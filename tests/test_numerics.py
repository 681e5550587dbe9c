"""Registry, optimizer, checkpoint, and gradcheck contracts.

Oracles: Adam is checked against a hand-rolled scalar reimplementation
and against the closed form of its first step (bias correction cancels,
update collapses to -lr*g/(|g|+eps)). Checkpoints are checked for
bit-exactness. Gradcheck is validated on a model whose gradient has an
exact closed form, and against a planted backward skew it must catch.
"""

import numpy as np
import pytest

from hotmoe import tensor as T
from hotmoe.checkpoint import load_checkpoint, save_checkpoint
from hotmoe.errors import InvariantViolation, IoError
from hotmoe.gradcheck import finite_diff_check
from hotmoe.model import MoEModel
from hotmoe.optim import BETA1, BETA2, CHUNK, EPS, Adam
from hotmoe.registry import ParamRegistry
from hotmoe.tasks import Batch
from hotmoe.tensor import Tensor

RNG = np.random.default_rng(77)

GRAD_TOL = 1e-4   # the acceptance gate's gradcheck tolerance
SKEW = 1e-3       # planted relative gradient bug, ten times GRAD_TOL


def skewed(loss: Tensor, factor: float) -> Tensor:
    """Identity on a scalar loss whose backward scales the gradient by factor."""
    return T._make(loss.data.copy(), [loss], lambda g: [g * factor])


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros(3)))
        with pytest.raises(InvariantViolation):
            reg.add("w", Tensor(np.zeros(3)))

    def test_whitespace_name_rejected(self):
        reg = ParamRegistry()
        with pytest.raises(InvariantViolation):
            reg.add("bad name", Tensor(np.zeros(2)))

    def test_mask_requires_trainable(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros(4)), trainable=False)
        with pytest.raises(InvariantViolation):
            reg.set_mask("w", np.ones(4, dtype=bool))

    def test_mask_must_be_bool_and_shaped(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros((2, 3))))
        with pytest.raises(InvariantViolation):
            reg.set_mask("w", np.ones((2, 3)))  # float mask
        with pytest.raises(InvariantViolation):
            reg.set_mask("w", np.ones((3, 2), dtype=bool))

    def test_freezing_clears_mask(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros(4)))
        reg.set_mask("w", np.array([1, 0, 1, 0], dtype=bool))
        reg.set_trainable("w", False)
        assert reg["w"].mask is None
        assert not reg["w"].tensor.requires_grad

    def test_trainable_count_respects_mask(self):
        reg = ParamRegistry()
        reg.add("a", Tensor(np.zeros((4, 5))))
        reg.add("b", Tensor(np.zeros(10)))
        reg.set_mask("b", np.array([True] * 3 + [False] * 7))
        reg.add("c", Tensor(np.zeros(100)), trainable=False)
        assert reg.n_params() == 20 + 10 + 100
        assert reg.n_trainable() == 20 + 3

    def test_load_state_strict(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros(3)))
        with pytest.raises(InvariantViolation):
            reg.load_state({"w": np.zeros(3), "ghost": np.zeros(1)})
        with pytest.raises(InvariantViolation):
            reg.load_state({})

    def test_load_state_copies(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.zeros(3)))
        src = np.ones(3)
        reg.load_state({"w": src})
        src[0] = 99.0
        assert reg["w"].tensor.data[0] == 1.0


def manual_adam(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar-loop Adam for the oracle comparison."""
    p = p0.copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        p = p - lr * mh / (np.sqrt(vh) + eps)
    return p


def per_param_adam(params, masks, grad_steps, lr):
    """The per-parameter Adam step that the flat buffer replaced, kept as
    its oracle: same expression, same order, one tensor at a time."""
    data = {n: p.copy() for n, p in params.items()}
    m = {n: np.zeros_like(p) for n, p in params.items()}
    v = {n: np.zeros_like(p) for n, p in params.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in data.items():
            g = grads[name] if grads[name] is not None else np.zeros_like(p)
            if masks.get(name) is not None:
                g = np.where(masks[name], g, 0.0)
            m[name] *= BETA1
            m[name] += (1.0 - BETA1) * g
            v[name] *= BETA2
            v[name] += (1.0 - BETA2) * g * g
            m_hat = m[name] / bc1
            v_hat = v[name] / bc2
            with np.errstate(invalid="ignore"):      # SNAN coordinates
                new = p - lr * m_hat / (np.sqrt(v_hat) + EPS)
            if masks.get(name) is not None:
                new = np.where(masks[name], new, p)
            data[name] = new
    return data


# a signalling NaN: any arithmetic write quiets it, so its bytes survive
# only if the coordinate is never written
SNAN = np.array([0x7FF0000000000001], dtype=np.uint64).view(np.float64)[0]


class TestAdam:
    def test_flat_buffer_matches_per_parameter_oracle(self):
        rng = np.random.default_rng(5)
        # "wide" straddles a chunk boundary, and so does its mask
        shapes = {"mat": (3, 4), "vec": (5,), "scalar": (), "cube": (2, 3, 2),
                  "masked": (6, 3), "sometimes": (4,),
                  "wide": (CHUNK // 100 + 7, 100)}
        params = {n: rng.normal(size=s) for n, s in shapes.items()}
        masks = {"masked": rng.random((6, 3)) < 0.5,
                 "wide": rng.random(shapes["wide"]) < 0.7}
        for name, mask in masks.items():
            params[name][~mask] = SNAN
        reg = ParamRegistry()
        frozen = reg.add("frozen", Tensor(rng.normal(size=(4, 4))), trainable=False)
        tensors = {n: reg.add(n, Tensor(p.copy())) for n, p in params.items()}
        for name, mask in masks.items():
            reg.set_mask(name, mask)
        frozen_before = frozen.data.tobytes()
        opt = Adam(reg, 3e-3)
        grad_steps = []
        for step in range(31):
            grads = {n: rng.normal(size=s) for n, s in shapes.items()}
            if step % 3 == 1:
                grads["sometimes"] = None
            grad_steps.append(grads)
            frozen.grad = np.ones((4, 4))        # must be ignored
            for name, t in tensors.items():
                t.grad = None if grads[name] is None else grads[name].copy()
            with np.errstate(invalid="raise"):       # no arithmetic on SNAN
                opt.step()
        expected = per_param_adam(params, masks, grad_steps, 3e-3)
        for name, t in tensors.items():
            assert t.data.shape == shapes[name]
            assert t.data.tobytes() == expected[name].tobytes(), name
        assert frozen.data.tobytes() == frozen_before
        for name, mask in masks.items():
            off = tensors[name].data[~mask]
            assert off.tobytes() == np.full(off.shape, SNAN).tobytes(), name
            assert not np.isnan(tensors[name].data[mask]).any()

    def test_replaced_data_raises(self):
        reg = ParamRegistry()
        w = reg.add("w", Tensor(np.ones(3)))
        opt = Adam(reg, 0.1)
        reg.load_state({"w": np.zeros(3)})
        w.grad = np.ones(3)
        with pytest.raises(InvariantViolation, match="w"):
            opt.step()
        assert w.data.tobytes() == np.zeros(3).tobytes()

    def test_changed_trainability_raises(self):
        reg = ParamRegistry()
        reg.add("a", Tensor(np.ones(3)))
        reg.add("b", Tensor(np.ones(2)), trainable=False)
        opt = Adam(reg, 0.1)
        reg.set_trainable("b", True)
        with pytest.raises(InvariantViolation):
            opt.step()
        reg.set_trainable("b", False)
        reg.set_trainable("a", False)
        with pytest.raises(InvariantViolation):
            opt.step()

    def test_changed_mask_raises(self):
        reg = ParamRegistry()
        reg.add("w", Tensor(np.ones(4)))
        reg.set_mask("w", np.array([True, False, True, False]))
        opt = Adam(reg, 0.1)
        reg.set_mask("w", np.array([True, True, True, False]))
        with pytest.raises(InvariantViolation, match="parameter w"):
            opt.step()

    def test_empty_trainable_set_is_a_no_op(self):
        reg = ParamRegistry()
        frozen = reg.add("frozen", Tensor(np.ones(3)), trainable=False)
        opt = Adam(reg, 0.1)
        frozen.grad = np.ones(3)
        opt.step()
        assert opt.t == 0
        assert frozen.data.tobytes() == np.ones(3).tobytes()

    def test_first_step_closed_form(self):
        # at t=1 bias correction gives mhat=g, vhat=g^2, so the update is
        # exactly -lr * g / (|g| + eps)
        p0 = np.array([1.0, -2.0, 0.5])
        g = np.array([0.5, -0.25, 3.0])
        reg = ParamRegistry()
        w = reg.add("w", Tensor(p0.copy()))
        w.grad = g.copy()
        opt = Adam(reg, 0.01)
        opt.step()
        expected = p0 - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(w.data, expected, rtol=0, atol=1e-15)

    def test_multi_step_matches_manual_loop(self):
        p0 = RNG.normal(size=7)
        grads = [RNG.normal(size=7) for _ in range(25)]
        reg = ParamRegistry()
        w = reg.add("w", Tensor(p0.copy()))
        opt = Adam(reg, 3e-3)
        for g in grads:
            w.grad = g.copy()
            opt.step()
        np.testing.assert_allclose(
            w.data, manual_adam(p0, grads, 3e-3), rtol=0, atol=1e-14)

    def test_frozen_param_bitwise_unchanged(self):
        p0 = RNG.normal(size=(3, 3))
        reg = ParamRegistry()
        frozen = reg.add("frozen", Tensor(p0.copy()), trainable=False)
        live = reg.add("live", Tensor(RNG.normal(size=3)))
        opt = Adam(reg, 0.1)
        before = frozen.data.tobytes()
        for _ in range(50):
            frozen.grad = np.ones_like(frozen.data)  # must be ignored
            live.grad = RNG.normal(size=3)
            opt.step()
        assert frozen.data.tobytes() == before

    def test_masked_coords_bitwise_unchanged(self):
        p0 = RNG.normal(size=10)
        mask = RNG.random(10) < 0.5
        reg = ParamRegistry()
        w = reg.add("w", Tensor(p0.copy()))
        reg.set_mask("w", mask)
        opt = Adam(reg, 0.05)
        for _ in range(40):
            w.grad = RNG.normal(size=10)
            opt.step()
        off = ~mask
        assert w.data[off].tobytes() == p0[off].tobytes()
        assert not np.array_equal(w.data[mask], p0[mask])

    def test_missing_grad_treated_as_zero(self):
        p0 = np.array([2.0])
        reg = ParamRegistry()
        w = reg.add("w", Tensor(p0.copy()))
        opt = Adam(reg, 0.1)
        opt.step()  # grad None: moments stay zero, update is 0/(0+eps)=0
        np.testing.assert_array_equal(w.data, p0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        arrays = {
            "layer0.attn.wq": RNG.normal(size=(8, 8)),
            "bias": RNG.normal(size=5),
            "scalar": np.array(3.14159),
            "cube": RNG.normal(size=(2, 3, 4)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(arrays)
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            assert loaded[name].tobytes() == arrays[name].tobytes()

    def test_save_load_save_identical_bytes(self, tmp_path):
        arrays = {"a": RNG.normal(size=(4, 4)), "b": RNG.normal(size=2)}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, arrays)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_is_utf8_text(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"w": np.zeros((2, 2))})
        head = path.read_bytes().split(b"\n\n")[0].decode("utf-8")
        assert head.splitlines()[0] == "hotmoe-checkpoint v1"
        assert "w f64 2x2 0" in head

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(IoError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(IoError):
            load_checkpoint(path)


class TestGradCheck:
    def test_linear_regression_closed_form(self):
        # loss = mean((XW + b - y)^2); dL/dW = 2/N X^T r, dL/db = 2/N sum r
        X = RNG.normal(size=(8, 3))
        y = RNG.normal(size=(8, 2))
        reg = ParamRegistry()
        W = reg.add("W", Tensor(RNG.normal(size=(3, 2))))
        b = reg.add("b", Tensor(RNG.normal(size=2)))

        def loss_fn():
            pred = Tensor(X) @ W + b
            resid = pred - Tensor(y)
            return T.tmean(resid * resid)

        report = finite_diff_check(loss_fn, reg, eps=1e-5)
        assert report.max_rel_err < 1e-6
        resid = X @ W.data + b.data - y
        np.testing.assert_allclose(W.grad, 2.0 / resid.size * X.T @ resid, atol=1e-12)
        np.testing.assert_allclose(b.grad, 2.0 / resid.size * resid.sum(axis=0), atol=1e-12)

    def test_all_frozen_reports_zero(self):
        reg = ParamRegistry()
        w = reg.add("w", Tensor(np.ones(3)), trainable=False)
        report = finite_diff_check(lambda: T.tsum(w * w), reg)
        assert report.max_rel_err == 0.0
        assert report.per_param == {}

    def test_coordinate_subsample_is_seeded(self):
        reg = ParamRegistry()
        w = reg.add("w", Tensor(RNG.normal(size=50)))
        loss = lambda: T.tsum(w * w * w)
        r1 = finite_diff_check(loss, reg, max_coords_per_param=5, seed=3)
        r2 = finite_diff_check(loss, reg, max_coords_per_param=5, seed=3)
        assert r1.per_param == r2.per_param
        assert r1.coords_checked["w"] == 5

    def test_masked_coords_skipped(self):
        reg = ParamRegistry()
        mask = np.array([True, False, True])
        w = reg.add("w", Tensor(np.array([1.0, 2.0, 3.0])))
        reg.set_mask("w", mask)
        report = finite_diff_check(lambda: T.tsum(w * w), reg)
        assert report.coords_checked["w"] == 2

    def test_eps_range_enforced(self):
        reg = ParamRegistry()
        w = reg.add("w", Tensor(np.ones(2)))
        with pytest.raises(ValueError):
            finite_diff_check(lambda: T.tsum(w), reg, eps=0.1)

    def test_planted_skew_fails_small_registry(self):
        X = RNG.normal(size=(8, 3))
        y = RNG.normal(size=(8, 2))
        reg = ParamRegistry()
        W = reg.add("W", Tensor(RNG.normal(size=(3, 2))))
        b = reg.add("b", Tensor(RNG.normal(size=2)))

        def loss_fn(factor):
            resid = T.gelu(Tensor(X) @ W + b) - Tensor(y)
            return skewed(T.tmean(resid * resid), factor)

        clean = finite_diff_check(lambda: loss_fn(1.0), reg)
        assert clean.passes(GRAD_TOL), clean.format()
        bad = finite_diff_check(lambda: loss_fn(1.0 + SKEW), reg)
        assert not bad.passes(GRAD_TOL), bad.format()
        # a relative skew d at the parameter's largest coordinate reports ~d
        assert 0.5 * SKEW < bad.max_rel_err < 2.0 * SKEW

    def test_planted_skew_fails_desk_model(self, desk_cfg, task_splits):
        # the ac01 base check: seed-7 desk model, mod_add batch of 8, 2 coords
        train, _ = task_splits["mod_add"]
        batch = Batch(train.tokens[:8], train.targets[:8], train.loss_mask[:8])
        model = MoEModel(desk_cfg, seed=7)
        for factor, ok in ((1.0, True), (1.0 + SKEW, False)):
            rep = finite_diff_check(lambda: skewed(model.loss(batch).loss, factor),
                                    model.registry, eps=1e-5,
                                    max_coords_per_param=2, seed=0)
            assert rep.passes(GRAD_TOL) is ok, (factor, rep.format())

    def test_gradient_at_roundoff_floor_passes(self):
        # |dL/dw| ~ 1e-10 beside L ~ 3.5: the central difference's round-off
        # (~u*L/eps ~ 8e-11 at eps=1e-5) is as large as the gradient itself
        reg = ParamRegistry()
        w = reg.add("w", Tensor(RNG.normal(size=20)))
        report = finite_diff_check(lambda: T.tsum(w * w * w) * 1e-10 + 3.5, reg,
                                   eps=1e-5)
        assert report.passes(GRAD_TOL), report.format()
        np.testing.assert_allclose(w.grad, 3e-10 * w.data ** 2, rtol=1e-12)

    def test_report_formatting(self):
        reg = ParamRegistry()
        w = reg.add("w", Tensor(np.ones(2)))
        report = finite_diff_check(lambda: T.tsum(w * w), reg)
        text = report.format()
        assert "max_rel_err" in text and "w:" in text
