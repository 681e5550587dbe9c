"""Per-op oracle checks for the autodiff tape.

Every differentiable op is compared against a central finite-difference
gradient computed directly on the underlying numpy buffers. The FD code
here is deliberately dumb and local so it cannot share a bug with the
tape implementation.
"""

import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from hotmoe import tensor as T
from hotmoe.errors import InvariantViolation


def fd_grad(scalar_fn, arr, eps=1e-6):
    """Central-difference gradient of scalar_fn() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        f_plus = scalar_fn()
        flat[i] = keep - eps
        f_minus = scalar_fn()
        flat[i] = keep
        gflat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def assert_close(analytic, numeric, tol=1e-5):
    # central differences in float64 carry ~1e-9 absolute noise, so the
    # floor keeps near-zero components from dominating the relative error
    denom = np.maximum(np.abs(numeric), 1e-4)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"max rel err {rel.max():.3e}"


def check_op(build, arrays, tol=1e-5):
    """build(tensors) -> scalar Tensor; checks grads for every input."""
    tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        def scalar():
            fresh = [T.Tensor(x) for x in arrays]
            return build(*fresh).item()
        numeric = fd_grad(scalar, a)
        assert_close(t.grad, numeric, tol)


RNG = np.random.default_rng(1234)


def rand(*shape):
    return RNG.normal(size=shape)


class TestElementwise:
    def test_add_broadcast(self):
        check_op(lambda a, b: T.tsum(T.mul(a + b, a + b)), [rand(3, 4), rand(4)])

    def test_sub(self):
        check_op(lambda a, b: T.tsum(T.exp(T.sub(a, b))), [rand(2, 3), rand(2, 3)])

    def test_mul_broadcast(self):
        check_op(lambda a, b: T.tsum(a * b), [rand(2, 3, 4), rand(1, 4)])

    def test_div(self):
        a = rand(3, 3)
        b = rand(3, 3) + 3.0  # keep denominators away from zero
        check_op(lambda x, y: T.tsum(T.div(x, y)), [a, b])

    def test_power(self):
        a = np.abs(rand(4, 4)) + 0.5
        check_op(lambda x: T.tsum(T.power(x, 3.0)), [a])

    def test_neg_chain(self):
        check_op(lambda a: T.tsum(-a * a), [rand(5)])

    def test_exp_log(self):
        a = np.abs(rand(3, 4)) + 0.5
        check_op(lambda x: T.tsum(T.log(T.exp(x) + T.exp(x))), [a])

    def test_gelu(self):
        check_op(lambda x: T.tsum(T.gelu(x)), [rand(4, 5)], tol=1e-6)

    def test_gelu_matches_erf_definition(self):
        from scipy.special import erf
        x = rand(64)
        out = T.gelu(T.Tensor(x)).data
        ref = x * 0.5 * (1.0 + erf(x / np.sqrt(2)))
        np.testing.assert_array_equal(out, ref)

    def test_gelu_pdf_only_in_backward(self, monkeypatch):
        from scipy.special import erf
        calls = []
        pdf = T.normal_pdf
        monkeypatch.setattr(T, "normal_pdf", lambda x: calls.append(1) or pdf(x))
        x = rand(6, 7)
        with T.no_grad():
            T.gelu(T.Tensor(x))
        assert calls == []
        a = T.Tensor(x, requires_grad=True)
        g = rand(6, 7)
        T.tsum(T.gelu(a) * T.Tensor(g)).backward()
        assert calls == [1]
        # the expression the eager version used, bitwise
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        eager_pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        assert a.grad.tobytes() == (g * (cdf + x * eager_pdf)).tobytes()


def erf_cdf(x):
    """The plain erf form of the normal cdf that normal_cdf must match."""
    from scipy.special import erf
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def cdf_inputs():
    """Mixed-sign values at scales 1e-3 to 30, signed zeros, infinities,
    subnormals, and x with |x| / sqrt(2) at 1 - ulp, 1 and 1 + ulp, where
    cephes' erf hands over to erfc."""
    rng = np.random.default_rng(5)
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                        tiny / 3, -tiny / 3, tiny, -tiny])
    targets = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    edge = []
    for y in targets:
        near = y * np.sqrt(2.0) + np.arange(-4, 5) * np.spacing(np.sqrt(2.0))
        assert y in near / np.sqrt(2.0)
        edge.append(near)
    edge = np.concatenate(edge)
    scales = np.geomspace(1e-3, 30.0, 13)
    return np.concatenate([rng.normal(0.0, s, 20000) for s in scales]
                          + [special, edge, -edge])


class TestNormalCdf:
    def test_bitwise_equal_to_erf_form(self):
        x = cdf_inputs()
        assert T.normal_cdf(x).tobytes() == erf_cdf(x).tobytes()

    def test_nan_stays_nan(self):
        # a NaN's sign bit is not part of the contract: copysign copies x's
        x = np.array([np.nan, -np.nan, 0.5])
        out = T.normal_cdf(x)
        assert np.isnan(out[:2]).all() and out[2] == erf_cdf(0.5)

    @pytest.mark.parametrize("x", [np.float64(-0.4), np.array(1.3), 0.7])
    def test_0d_input_gives_scalar(self, x):
        out = T.normal_cdf(x)
        assert np.shape(out) == ()
        assert float(out) == float(erf_cdf(np.float64(x)))

    def test_gelu_gradient_unchanged(self):
        x = cdf_inputs()
        x = x[np.isfinite(x)]
        a = T.Tensor(x, requires_grad=True)
        g = np.random.default_rng(6).normal(size=x.shape)
        T.tsum(T.gelu(a) * T.Tensor(g)).backward()
        pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
        # + 0.0: a leaf's first gradient turns -0.0 into +0.0 (first_grad)
        assert a.grad.tobytes() == (g * (erf_cdf(x) + x * pdf) + 0.0).tobytes()


ERF_MODULE = "scipy.special._special_ufuncs"
# a fresh interpreter: is erf's extension there, and which modules does
# importing the CLI load; then the erf scipy.special hands out afterwards
FRESH_IMPORT = f"""
import sys, scipy
from importlib.machinery import PathFinder
found = PathFinder.find_spec({ERF_MODULE!r}, [d + "/special" for d in scipy.__path__])
import hotmoe.cli
print(found is not None, {ERF_MODULE!r} in sys.modules, "scipy.special" in sys.modules)
import scipy.special
from hotmoe import tensor
print(tensor._erf is scipy.special.erf)
"""


class TestErfLoader:
    def test_cli_import_loads_the_extension_not_the_package(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", FRESH_IMPORT], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        flags, same = proc.stdout.splitlines()
        found, loaded, package = flags.split()
        if found == "False":
            pytest.skip(f"this SciPy has no {ERF_MODULE}")
        assert (loaded, package) == ("True", "False")
        # the later package import reused the loaded extension
        assert same == "True"

    def test_erf_is_scipy_special_erf(self):
        import scipy.special
        assert T._erf is scipy.special.erf

    @pytest.mark.parametrize("registered", [None, types.ModuleType(ERF_MODULE)],
                             ids=["extension-missing", "extension-without-erf"])
    def test_fallback_imports_the_package(self, registered, monkeypatch):
        import scipy.special
        monkeypatch.setattr(T, "PathFinder",
                            types.SimpleNamespace(find_spec=lambda name, path: None))
        if registered is None:
            monkeypatch.delitem(sys.modules, ERF_MODULE, raising=False)
        else:
            monkeypatch.setitem(sys.modules, ERF_MODULE, registered)
        assert T._load_erf() is scipy.special.erf


class TestShapes:
    def test_reshape(self):
        check_op(lambda a: T.tsum(T.reshape(a, (6, 2)) * 3.0), [rand(3, 4)])

    def test_swapaxes(self):
        w = rand(4, 3)
        check_op(lambda a: T.tsum(T.swapaxes(a, 0, 1) * w), [rand(3, 4)])

    def test_sum_axis_keepdims(self):
        check_op(lambda a: T.tsum(T.tsum(a, axis=1, keepdims=True) * 2.0), [rand(3, 4)])

    def test_mean(self):
        check_op(lambda a: T.tsum(T.power(T.tmean(a, axis=0), 2.0)), [rand(5, 3)])

    def test_mean_all(self):
        a = rand(4, 4)
        out = T.tmean(T.Tensor(a))
        assert out.item() == pytest.approx(a.mean())


class TestMatmul:
    def test_plain(self):
        check_op(lambda a, b: T.tsum(a @ b), [rand(3, 4), rand(4, 5)])

    def test_batched(self):
        check_op(lambda a, b: T.tsum(T.power(a @ b, 2.0)), [rand(2, 3, 4), rand(2, 4, 5)])

    def test_broadcast_weight(self):
        # batched activations against a shared 2-D weight
        check_op(lambda a, b: T.tsum(a @ b), [rand(2, 3, 4), rand(4, 5)])

    def test_value_matches_numpy(self):
        a, b = rand(6, 7), rand(7, 8)
        np.testing.assert_array_equal((T.Tensor(a) @ T.Tensor(b)).data, a @ b)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            T.matmul(T.Tensor(rand(3)), T.Tensor(rand(3, 2)))


class TestSoftmax:
    def test_softmax_grad(self):
        w = rand(3, 5)
        check_op(lambda a: T.tsum(T.softmax(a) * w), [rand(3, 5)])

    def test_log_softmax_grad(self):
        w = rand(2, 6)
        check_op(lambda a: T.tsum(T.log_softmax(a) * w), [rand(2, 6)])

    def test_softmax_rows_sum_to_one(self):
        s = T.softmax(T.Tensor(rand(4, 9))).data
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)

    def test_log_softmax_consistency(self):
        x = rand(3, 7)
        np.testing.assert_allclose(
            np.exp(T.log_softmax(T.Tensor(x)).data),
            T.softmax(T.Tensor(x)).data,
            atol=1e-12,
        )

    def test_softmax_shift_invariance(self):
        x = rand(2, 5)
        a = T.softmax(T.Tensor(x)).data
        b = T.softmax(T.Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestIndexing:
    def test_gather_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1])
        w = rand(4, 3)
        check_op(lambda a: T.tsum(T.gather_rows(a, idx) * w), [rand(5, 3)])

    def test_take_along_last(self):
        idx = RNG.integers(0, 6, size=(3, 4, 1))
        check_op(lambda a: T.tsum(T.take_along_last(a, idx)), [rand(3, 4, 6)])

    def test_gather_pairs(self):
        rows = np.array([0, 1, 1, 2])
        cols = np.array([3, 0, 0, 2])
        check_op(lambda a: T.tsum(T.power(T.gather_pairs(a, rows, cols), 2.0)), [rand(3, 4)])

    def test_index_add_rows(self):
        idx = np.array([1, 3, 1])
        w = rand(5, 2)
        check_op(
            lambda a, b: T.tsum(T.index_add_rows(a, idx, b) * w),
            [rand(5, 2), rand(3, 2)],
        )

    def test_index_add_accumulates_duplicates(self):
        base = np.zeros((3, 2))
        add = np.ones((2, 2))
        out = T.index_add_rows(T.Tensor(base), np.array([1, 1]), T.Tensor(add))
        np.testing.assert_array_equal(out.data[1], [2.0, 2.0])

    def test_index_add_increasing_rows_matches_add_at(self):
        # one add per row: the result is np.add.at's, bitwise
        idx = np.array([0, 2, 3, 6])
        a, b = rand(7, 3), rand(4, 3)
        expected = a.copy()
        np.add.at(expected, idx, b)
        out = T.index_add_rows(T.Tensor(a), idx, T.Tensor(b))
        assert out.data.tobytes() == expected.tobytes()
        w = rand(7, 3)
        check_op(lambda x, y: T.tsum(T.index_add_rows(x, idx, y) * w), [a, b])


class TestTapeMechanics:
    def test_grad_accumulates_across_uses(self):
        a = T.Tensor(np.array([2.0]), requires_grad=True)
        out = T.tsum(a * a + a * 3.0)
        out.backward()
        assert a.grad[0] == pytest.approx(2 * 2.0 + 3.0)

    def test_backward_requires_scalar(self):
        a = T.Tensor(rand(3), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_backward_releases_graph_and_keeps_leaves(self):
        a = T.Tensor(np.array([2.0]), requires_grad=True)
        h = a * a
        out = T.tsum(h)
        out.backward()
        assert out._parents is None and h._parents is None
        assert a._parents == [] and h.data[0] == 4.0
        T.tsum(a * 3.0).backward()   # a leaf joins a new graph as before
        assert a.grad[0] == 4.0 + 3.0

    def test_second_backward_through_consumed_graph_raises(self):
        a = T.Tensor(np.array([2.0]), requires_grad=True)
        h = a * a
        out = T.tsum(h * 3.0)
        out.backward()
        assert a.grad[0] == 12.0
        with pytest.raises(InvariantViolation, match="consumed"):
            out.backward()
        with pytest.raises(InvariantViolation, match="consumed"):
            T.tsum(h * 1.0).backward()   # a new root over a consumed node
        assert a.grad[0] == 12.0   # nothing accumulated a second time

    def test_no_grad_builds_no_graph(self):
        a = T.Tensor(rand(3), requires_grad=True)
        with T.no_grad():
            out = a * 2.0
        assert not out.requires_grad
        assert out._parents == []

    def test_no_grad_restores_flag(self):
        assert T.grad_enabled()
        with T.no_grad():
            assert not T.grad_enabled()
        assert T.grad_enabled()

    def test_constant_leaves_get_no_grad(self):
        a = T.Tensor(rand(3), requires_grad=True)
        c = T.Tensor(rand(3))
        T.tsum(a * c).backward()
        assert c.grad is None

    def test_float64_everywhere(self):
        t = T.Tensor(np.arange(4, dtype=np.int64))
        assert t.data.dtype == np.float64
        assert (t * 2).data.dtype == np.float64

    def test_diamond_graph(self):
        # f = (a+a)*(a+a) = 4a^2, df/da = 8a
        a = T.Tensor(np.array([3.0]), requires_grad=True)
        b = a + a
        T.tsum(b * b).backward()
        assert a.grad[0] == pytest.approx(24.0)

    def test_first_contribution_turns_negative_zero_positive(self):
        # as accumulating into zeros does: -0.0 + 0.0 is +0.0
        a = T.Tensor(np.ones(3), requires_grad=True)
        T.tsum(a * T.Tensor(np.array([-0.0, 1.0, -2.0]))).backward()
        assert a.grad.tolist() == [0.0, 1.0, -2.0]
        assert not np.signbit(a.grad[0])

    def test_first_contribution_takes_the_parents_layout(self):
        # a swapaxes view's gradient is laid out like np.zeros_like of the
        # view, not like the C-contiguous contribution; BLAS rounds by stride
        x = T.Tensor(rand(2, 3, 4), requires_grad=True)
        view = T.swapaxes(x, 0, 2)
        w = rand(4, 3, 2)
        T.tsum(view * T.Tensor(w)).backward()
        np.testing.assert_array_equal(view.grad, w)
        assert view.grad.strides == np.zeros_like(view.data).strides
        assert view.grad.strides != w.strides

    def test_check_finite_raises(self):
        from hotmoe.errors import NumericalError
        with pytest.raises(NumericalError):
            T.check_finite(T.Tensor(np.array([np.nan])), "unit")


def node(parents, contribs, calls=None):
    """A tape node over parents whose backward returns contribs, counting
    its calls in calls (a one-element list) when given."""
    def backward(g):
        if calls is not None:
            calls[0] += 1
        return contribs
    return T._make(np.zeros(()), parents, backward)


class TestNodeProtocol:
    """_make(data, parents, backward): one backward call per pass, and the
    i-th contribution goes into the i-th parent, in list order."""

    def test_repeated_parent_takes_each_contribution_in_order(self):
        a = T.Tensor(np.zeros(3), requires_grad=True)
        b = T.Tensor(np.zeros(3), requires_grad=True)
        c1, c2, c3 = np.array([-0.0, 1.0, 2.0]), np.array([-0.0, -0.0, 3.0]), rand(3)
        node([a, a, b], [c1, c2, c3]).backward()
        assert a.grad.tobytes() == (np.add(c1, 0.0) + c2).tobytes()
        assert not np.signbit(a.grad[:2]).any()   # the first is -0.0 -> +0.0
        assert b.grad.tobytes() == c3.tobytes()
        # in list order: 1e16 + 1 + 1 rounds back to 1e16, 1 + 1 + 1e16 does not
        big = T.Tensor(np.zeros(1), requires_grad=True)
        node([big] * 3, [np.array([1e16]), np.ones(1), np.ones(1)]).backward()
        assert big.grad[0] == 1e16

    def test_none_contribution_leaves_grad_unset(self):
        a = T.Tensor(np.zeros(2), requires_grad=True)
        b = T.Tensor(np.zeros(2), requires_grad=True)
        node([a, b], [None, np.ones(2)]).backward()
        assert a.grad is None
        assert b.grad.tolist() == [1.0, 1.0]

    def test_parent_without_grad_is_never_accumulated_into(self):
        a = T.Tensor(np.zeros(2), requires_grad=True)
        frozen = T.Tensor(np.zeros(2))
        node([frozen, a, frozen], [np.ones(2), np.ones(2), np.ones(2)]).backward()
        assert frozen.grad is None
        assert a.grad.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("n_parents", [1, 2, 32])
    def test_backward_runs_once_per_pass(self, n_parents):
        leaves = [T.Tensor(np.zeros(()), requires_grad=True) for _ in range(n_parents // 2 + 1)]
        parents = [leaves[i % len(leaves)] for i in range(n_parents)]
        calls = [0]
        out = node(parents, [np.ones(())] * n_parents, calls)
        T.tsum(out * 2.0).backward()
        assert calls == [1]
        assert sum(leaf.grad.item() for leaf in leaves) == n_parents
