"""Adapter scheme contracts: attachment, masks, trainability, zero-init.

Every scheme's adapter term is s * (x A) B; a lori_s mask reaches only
the registry, which keeps the optimizer off B's masked-off coordinates.

Closed forms from the default config (d_model=32, d_ff=64, n_experts=16,
r=4): per-layer adapter params are attention 4*4*(32+32)=1024, gate
4*(32+16)=192, all-expert 16*(4*(32+64)+4*(64+32))=12288, total 13504;
a k=4 plan shrinks the expert share to 3072 (total 4288 = 31.8%).
"""

import dataclasses
import re

import numpy as np
import pytest

from hotmoe import tensor as T
from composed import project
from hotmoe.adapters import (AdapterPair, Scheme, TargetSet, adapted_backward,
                             adapted_forward, attach, build_mask, set_trainability)
from hotmoe.errors import ConfigError, InvariantViolation
from hotmoe.model import ModelConfig, MoEModel
from hotmoe.profiler import PlacementPlan
from hotmoe.tensor import Tensor

RNG = np.random.default_rng(31)


def plan_k4():
    return PlacementPlan(hot=[[0, 3, 7, 11], [1, 2, 5, 9], [4, 6, 8, 10],
                              [12, 13, 14, 15]], k=4, strategy="layer_hot")


class TestTypes:
    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            Scheme("dora")
        with pytest.raises(ConfigError):
            Scheme("lori_s", rho=0.0)
        assert Scheme("lori_s").rho == 0.10

    def test_target_set_validation(self):
        with pytest.raises(ConfigError):
            TargetSet(attention=False, gate=False, experts="none")
        with pytest.raises(ConfigError):
            TargetSet(experts="some")

    def test_target_set_is_a_hashable_value(self):
        a, b = TargetSet(True, False, "all"), TargetSet(True, False, "all")
        assert a == b and hash(a) == hash(b)
        assert {(a, "lora"): 1}[(b, "lora")] == 1
        assert len({a, b, TargetSet()}) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.experts = "none"
        assert a.experts == "all"

    def test_rank_bound(self):
        with pytest.raises(ConfigError):
            AdapterPair(A=Tensor(np.zeros((4, 6))), B=Tensor(np.zeros((6, 5))),
                        alpha=8.0)

    def test_inner_dimension_mismatch(self):
        # the rank is A's width, and B's height must equal it
        with pytest.raises(InvariantViolation, match="shape mismatch"):
            AdapterPair(A=Tensor(np.zeros((8, 4))), B=Tensor(np.zeros((3, 8))),
                        alpha=8.0)

    def test_scale(self):
        pair = AdapterPair(A=Tensor(np.zeros((8, 4))), B=Tensor(np.zeros((4, 8))),
                           alpha=8.0)
        assert pair.scale == 2.0


def adapted(x, W, pair):
    """x @ W with pair's adapter term added by adapted_forward, and x @ A."""
    out = x @ W
    return out, adapted_forward(x, pair, out)


class TestAdaptedForward:
    def test_hand_case(self):
        # x=[1,0], W=I, A=[[1],[0]], B=[[0,2]], s=1 -> h=[1,2], xA=[1]
        x = np.array([[1.0, 0.0]])
        pair = AdapterPair(A=Tensor(np.array([[1.0], [0.0]])),
                           B=Tensor(np.array([[0.0, 2.0]])), alpha=1.0)
        out, xa = adapted(x, np.eye(2), pair)
        np.testing.assert_array_equal(out, [[1.0, 2.0]])
        np.testing.assert_array_equal(xa, [[1.0]])

    def test_hand_case_mask_is_not_arithmetic(self):
        # the test_hand_case pair with B's second coordinate off its mask:
        # the term is still s * (x A) B, since training keeps B zero there
        x = np.array([[1.0, 0.0]])
        pair = AdapterPair(A=Tensor(np.array([[1.0], [0.0]])),
                           B=Tensor(np.array([[0.0, 2.0]]), requires_grad=True),
                           alpha=1.0, mask=np.array([[True, False]]))
        out, xa = adapted(x, np.eye(2), pair)
        np.testing.assert_array_equal(out, [[1.0, 2.0]])
        g_in, (g_A, g_B) = adapted_backward(np.array([[1.0, 1.0]]), x, pair, xa, False)
        np.testing.assert_array_equal(g_B, [[1.0, 1.0]])
        assert g_in is None and g_A is None

    def test_zero_b_is_exact_identity(self):
        x = RNG.normal(size=(5, 8))
        W = RNG.normal(size=(8, 6))
        pair = AdapterPair(A=Tensor(RNG.normal(size=(8, 3))),
                           B=Tensor(np.zeros((3, 6))), alpha=6.0)
        assert adapted(x, W, pair)[0].tobytes() == (x @ W).tobytes()

    def test_output_linear_in_scale(self):
        x = RNG.normal(size=(4, 8))
        W = RNG.normal(size=(8, 8))
        A, B = RNG.normal(size=(8, 2)), RNG.normal(size=(2, 8))
        one = AdapterPair(A=Tensor(A), B=Tensor(B), alpha=2.0)   # s=1
        two = AdapterPair(A=Tensor(A), B=Tensor(B), alpha=4.0)   # s=2
        base = x @ W
        d1 = adapted(x, W, one)[0] - base
        d2 = adapted(x, W, two)[0] - base
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-12)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("want_in", [True, False])
    def test_backward_matches_tape(self, masked, want_in):
        # the adapter's gradients and input term are the tape's for the
        # composed projection, bitwise; a mask, which only the optimizer
        # reads, changes none of them
        x = Tensor(RNG.normal(size=(5, 8)), requires_grad=True)
        W = Tensor(RNG.normal(size=(8, 6)))
        pair = AdapterPair(A=Tensor(RNG.normal(size=(8, 3)), requires_grad=True),
                           B=Tensor(RNG.normal(size=(3, 6)), requires_grad=True),
                           alpha=6.0, mask=RNG.random((3, 6)) < 0.5 if masked else None)
        g = RNG.normal(size=(5, 6))
        out, xa = adapted(x.data, W.data, pair)
        g_in, (g_A, g_B) = adapted_backward(g, x.data, pair, xa, want_in)
        taped = project(x, W, pair)
        T.tsum(taped * Tensor(g)).backward()
        assert out.tobytes() == taped.data.tobytes()
        # + 0.0: the tape's first gradient of a leaf turns -0.0 into +0.0
        assert (g_A + 0.0).tobytes() == pair.A.grad.tobytes()
        assert (g_B + 0.0).tobytes() == pair.B.grad.tobytes()
        if want_in:   # the tape added the base term first
            assert (g @ W.data.T + g_in).tobytes() == x.grad.tobytes()
        else:
            assert g_in is None

    def test_frozen_a_gets_no_gradient(self):
        # lori_d: A is frozen, so its slot is None and B's is the tape's
        x = Tensor(RNG.normal(size=(5, 8)))
        W = Tensor(RNG.normal(size=(8, 6)))
        pair = AdapterPair(A=Tensor(RNG.normal(size=(8, 3))),
                           B=Tensor(RNG.normal(size=(3, 6)), requires_grad=True),
                           alpha=6.0, scheme="lori_d")
        g = RNG.normal(size=(5, 6))
        _, xa = adapted(x.data, W.data, pair)
        g_in, (g_A, g_B) = adapted_backward(g, x.data, pair, xa, False)
        T.tsum(project(x, W, pair) * Tensor(g)).backward()
        assert g_in is None and g_A is None and pair.A.grad is None
        assert (g_B + 0.0).tobytes() == pair.B.grad.tobytes()


class TestBuildMask:
    def test_single_max_selected(self):
        b = np.array([0.1, -0.9, 0.2, 0.0, 0.5, -0.1, 0.3, 0.05, -0.2, 0.4])
        mask = build_mask(b, 0.1)
        assert mask.sum() == 1 and mask[1]

    def test_all_equal_takes_lowest_flat_indices(self):
        b = np.ones((2, 5))
        mask = build_mask(b, 0.3)  # ceil(3.0) = 3 entries
        assert mask.reshape(-1)[:3].all() and not mask.reshape(-1)[3:].any()

    def test_matches_full_sort_oracle(self):
        for trial in range(50):
            b = RNG.normal(size=(3, 7))
            mask = build_mask(b, 0.25)
            flat = np.abs(b.reshape(-1))
            ranked = sorted(range(21), key=lambda i: (-flat[i], i))
            expect = np.zeros(21, dtype=bool)
            expect[ranked[:int(np.ceil(0.25 * 21))]] = True
            np.testing.assert_array_equal(mask.reshape(-1), expect)

    def test_ceiling_count(self):
        assert build_mask(RNG.normal(size=10), 0.11).sum() == 2  # ceil(1.1)
        assert build_mask(RNG.normal(size=10), 1.0).sum() == 10

    def test_rho_range(self):
        with pytest.raises(ConfigError):
            build_mask(np.ones(4), 1.5)


def adapter_param_count(model):
    return sum(e.tensor.size for n, e in model.registry.items() if ".adapter." in n)


class TestAttach:
    def test_attention_only_closed_form(self):
        model = MoEModel(ModelConfig(), seed=0)
        attach(model, TargetSet(True, False, "none"), None, Scheme("lora"),
               r=4, alpha=8.0, seed=0)
        assert adapter_param_count(model) == 4 * 4 * 4 * (32 + 32)  # layers*projs*r*(din+dout)

    def test_all_targets_closed_form_13504_per_layer(self):
        model = MoEModel(ModelConfig(), seed=0)
        attach(model, TargetSet(True, True, "all"), None, Scheme("lora"),
               r=4, alpha=8.0, seed=0)
        assert adapter_param_count(model) == 4 * 13504
        reg = set_trainability(model, Scheme("lora"))
        assert reg.n_trainable() == 4 * 13504

    def test_plan_k4_closed_form_4288_per_layer(self):
        model = MoEModel(ModelConfig(), seed=0)
        attach(model, TargetSet(True, True, "plan"), plan_k4(), Scheme("lora"),
               r=4, alpha=8.0, seed=0)
        assert adapter_param_count(model) == 4 * 4288
        assert 4288 / 13504 == pytest.approx(0.3175, abs=5e-4)

    def test_cold_experts_have_no_adapter_objects(self):
        model = MoEModel(ModelConfig(), seed=0)
        plan = plan_k4()
        attach(model, TargetSet(True, True, "plan"), plan, Scheme("lora"),
               r=4, alpha=8.0, seed=0)
        hot0 = set(plan.hot[0])
        for e in range(16):
            has = f"layer0.expert{e}.w_up" in model.adapters
            assert has == (e in hot0)
            assert (f"layer0.expert{e}.w_up.adapter.A" in model.registry) == (e in hot0)

    def test_plan_required_and_validated(self):
        model = MoEModel(ModelConfig(), seed=0)
        with pytest.raises(ConfigError):
            attach(model, TargetSet(True, True, "plan"), None, Scheme("lora"),
                   4, 8.0, 0)
        for index in (99, -1):
            bad = PlacementPlan(hot=[[0, 1, 2, index]] * 4, k=4,
                                strategy="layer_hot")
            with pytest.raises(ConfigError):
                attach(model, TargetSet(False, False, "plan"), bad,
                       Scheme("lora"), 4, 8.0, 0)

    def test_double_attach_rejected(self):
        model = MoEModel(ModelConfig(), seed=0)
        attach(model, TargetSet(True, False, "none"), None, Scheme("lora"), 4, 8.0, 0)
        with pytest.raises(InvariantViolation):
            attach(model, TargetSet(True, False, "none"), None, Scheme("lora"),
                   4, 8.0, 0)

    @pytest.mark.parametrize("fault, error", [
        ("missing", ConfigError), ("shape", InvariantViolation),
        ("dtype", InvariantViolation), ("rank", ConfigError)])
    def test_refusal_registers_nothing(self, fault, error):
        # layer1.router.w is the 22nd of 34 sites: the 21 before it pass
        cfg = ModelConfig(n_layers=2, n_experts=4, k_route=2)
        sites = TargetSet(True, True, "all")
        ref = MoEModel(cfg, seed=0)
        attach(ref, sites, None, Scheme("lori_d"), r=4, alpha=8.0, seed=1)
        masks = {name: build_mask(RNG.normal(size=pair.B.shape), 0.1)
                 for name, pair in ref.adapters.items()}
        bad, scheme, r = dict(masks), Scheme("lori_s"), 4
        if fault == "missing":
            del bad["layer1.router.w"]
        elif fault == "shape":
            bad["layer1.router.w"] = np.ones((3, 4), dtype=bool)
        elif fault == "dtype":
            bad["layer1.router.w"] = masks["layer1.router.w"].astype(np.float64)
        else:   # rank 5 fits every d_model-wide site but not the 4-expert router
            scheme, r = Scheme("lora"), 5
        model = MoEModel(cfg, seed=0)
        with pytest.raises(error):
            attach(model, sites, None, scheme, r=r, alpha=8.0, seed=1, masks=bad)
        assert model.adapters == {}
        assert [n for n, _ in model.registry.items() if ".adapter." in n] == []
        attach(model, sites, None, Scheme("lori_s"), r=4, alpha=8.0, seed=1, masks=masks)
        assert list(model.adapters) == list(ref.adapters)

    def test_shared_experts_always_adapted_with_plan(self):
        cfg = ModelConfig(n_shared=2, k_route=3)
        model = MoEModel(cfg, seed=0)
        attach(model, TargetSet(False, False, "plan"), plan_k4(), Scheme("lora"),
               4, 8.0, 0)
        assert "layer0.shared0.w_up" in model.adapters
        assert "layer0.shared1.w_down" in model.adapters

    @pytest.mark.parametrize("experts", ["all", "plan"])
    @pytest.mark.parametrize("n_shared", [0, 1])
    def test_pairs_record_their_site(self, experts, n_shared):
        cfg = ModelConfig(n_shared=n_shared)
        model = MoEModel(cfg, seed=0)
        attach(model, TargetSet(True, True, experts), plan_k4(), Scheme("lora"),
               4, 8.0, 0)
        kinds = {"attn": "attention", "router": "gate", "expert": "experts",
                 "shared": "shared"}
        seen = set()
        for name, pair in model.adapters.items():
            layer, site = re.fullmatch(r"layer(\d+)\.([a-z]+)\d*\.\w+", name).groups()
            expert = re.fullmatch(r"layer\d+\.expert(\d+)\.w_(up|down)", name)
            want = (kinds[site], int(layer), expert and int(expert.group(1)))
            assert (pair.kind, pair.layer, pair.expert) == want, name
            seen.add(pair.kind)
        assert seen == {"attention", "gate", "experts"} | ({"shared"} if n_shared else set())

    def test_b_zero_init_and_a_seeded(self):
        m1 = MoEModel(ModelConfig(), seed=0)
        m2 = MoEModel(ModelConfig(), seed=0)
        for m in (m1, m2):
            attach(m, TargetSet(True, True, "all"), None, Scheme("lora"), 4, 8.0,
                   seed=5)
        for name, pair in m1.adapters.items():
            assert (pair.B.data == 0).all()
            assert pair.A.data.tobytes() == m2.adapters[name].A.data.tobytes()
            assert pair.A.data.std() > 0


class TestTrainability:
    def make_adapted(self, scheme: Scheme, masks=None):
        model = MoEModel(ModelConfig(n_layers=2, n_experts=4, k_route=2), seed=0)
        attach(model, TargetSet(True, True, "all"), None, scheme, r=4, alpha=8.0,
               seed=1, masks=masks)
        return model

    def test_lora_trains_a_and_b_only(self):
        model = self.make_adapted(Scheme("lora"))
        reg = set_trainability(model, Scheme("lora"))
        trainables = {n for n, e in reg.items() if e.trainable}
        assert trainables == {n for n, _ in reg.items() if n.endswith((".adapter.A",
                                                                       ".adapter.B"))}

    def test_lori_d_freezes_a(self):
        model = self.make_adapted(Scheme("lori_d"))
        reg = set_trainability(model, Scheme("lori_d"))
        for name, entry in reg.items():
            if name.endswith(".adapter.A"):
                assert not entry.trainable
            if name.endswith(".adapter.B"):
                assert entry.trainable and entry.mask is None
        assert all(pair.scheme == "lori_d" for pair in model.adapters.values())

    def test_lori_s_masked_count_closed_form(self):
        scheme = Scheme("lori_s", rho=0.1)
        ref = self.make_adapted(Scheme("lori_d"))
        masks = {name: build_mask(RNG.normal(size=pair.B.shape), 0.1)
                 for name, pair in ref.adapters.items()}
        model = self.make_adapted(scheme, masks=masks)
        reg = set_trainability(model, scheme)
        expect = sum(int(np.ceil(0.1 * pair.B.size))
                     for pair in model.adapters.values())
        assert reg.n_trainable() == expect

    @pytest.mark.parametrize("attached, given", [("lora", "lori_d"), ("lori_d", "lora"),
                                                 ("lori_d", "lori_s"), ("lori_s", "lori_d")])
    def test_set_trainability_refuses_another_scheme(self, attached, given):
        # a pair keeps the scheme attach gave it; training it under another
        # would relabel its parameter count, so nothing is changed
        ref = self.make_adapted(Scheme("lora"))
        masks = {name: build_mask(RNG.normal(size=pair.B.shape), 0.1)
                 for name, pair in ref.adapters.items()}
        model = self.make_adapted(Scheme(attached), masks=masks)
        before = [(n, e.trainable) for n, e in model.registry.items()]
        with pytest.raises(InvariantViolation, match=f"attached as {attached}, not {given}"):
            set_trainability(model, Scheme(given))
        assert [(n, e.trainable) for n, e in model.registry.items()] == before

    def test_lori_s_requires_masks(self):
        with pytest.raises(ConfigError):
            self.make_adapted(Scheme("lori_s"))

    def test_lori_s_mask_missing_for_one_target(self):
        ref = self.make_adapted(Scheme("lori_d"))
        masks = {name: build_mask(RNG.normal(size=pair.B.shape), 0.1)
                 for name, pair in ref.adapters.items()}
        del masks["layer1.router.w"]
        with pytest.raises(ConfigError, match="lori_s mask missing for target "
                                              "layer1.router.w"):
            self.make_adapted(Scheme("lori_s"), masks=masks)

    def test_lori_s_registers_only_a_and_b(self):
        # the mask is the pair's and the registry entry's, never a tensor
        ref = self.make_adapted(Scheme("lori_d"))
        masks = {name: build_mask(RNG.normal(size=pair.B.shape), 0.1)
                 for name, pair in ref.adapters.items()}
        model = self.make_adapted(Scheme("lori_s"), masks=masks)
        assert [n for n, _ in model.registry.items() if ".adapter." in n] == [
            f"{t}.adapter.{h}" for t in model.adapters for h in "AB"]

    def test_base_frozen_under_all_schemes(self):
        for name in ("lora", "lori_d"):
            model = self.make_adapted(Scheme(name))
            reg = set_trainability(model, Scheme(name))
            for pname, entry in reg.items():
                if ".adapter." not in pname:
                    assert not entry.trainable


class TestZeroInitEquivalence:
    def test_adapted_forward_bitwise_equals_base(self):
        cfg = ModelConfig(n_layers=2, n_experts=8, k_route=2)
        base = MoEModel(cfg, seed=3)
        tokens = RNG.integers(0, 32, size=(4, 10))
        want = base.forward(tokens).logits.data.tobytes()
        plan = PlacementPlan(hot=[[0, 2], [5, 7]], k=2, strategy="layer_hot")
        for targets in (TargetSet(True, True, "all"),
                        TargetSet(True, False, "plan"),
                        TargetSet(False, True, "none")):
            model = MoEModel(cfg, seed=3)
            attach(model, targets, plan, Scheme("lora"), r=4, alpha=8.0, seed=11)
            got = model.forward(tokens).logits.data.tobytes()
            assert got == want, f"zero-init drift for targets {targets}"

