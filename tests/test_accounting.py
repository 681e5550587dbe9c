"""Parameter and FLOPs accounting against hand-computed closed forms."""

import numpy as np
import pytest

from hotmoe.accounting import (ExecCounters, adapter_flops, count_params,
                               exec_counters)
from hotmoe.adapters import Scheme, TargetSet, attach, build_mask, set_trainability
from hotmoe.errors import ConfigError, InvariantViolation
from hotmoe.model import LayerTrace, ModelConfig, MoEModel, RoutingTrace
from hotmoe.profiler import ActivationProfile, PlacementPlan, record, select
from hotmoe.tasks import PAD

DESK = ModelConfig()  # d_model=32, d_ff=64, n_layers=4, n_experts=16, k_route=4


def tiny_config(**kw):
    base = dict(d_model=8, n_heads=2, d_ff=12, n_layers=2, n_experts=4,
                k_route=2)
    base.update(kw)
    return ModelConfig(**base)


def full_plan(cfg):
    return PlacementPlan(hot=[list(range(cfg.n_experts))] * cfg.n_layers,
                         k=cfg.n_experts, strategy="layer_hot")


def make_trace(cfg, per_layer_indices):
    tr = RoutingTrace(cfg.n_experts, cfg.k_route)
    for idx in per_layer_indices:
        idx = np.asarray(idx, dtype=np.int64)
        tr.layers.append(LayerTrace(indices=idx,
                                    weights=np.full(idx.shape, 1.0 / cfg.k_route)))
    return tr


# ---------------------------------------------------------------- parameters

def test_no_adapters_zero_trainable():
    m = MoEModel(tiny_config(), seed=0)
    rep = count_params(m)
    assert rep.trainable == 0
    assert rep.fraction == 0.0
    assert rep.per_target == {}
    assert rep.closed_form == 0
    assert rep.base_total == m.registry.n_params()


def test_base_total_excludes_adapters():
    cfg = tiny_config()
    bare = MoEModel(cfg, seed=0).registry.n_params()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    set_trainability(m, Scheme("lora"))
    rep = count_params(m)
    assert rep.base_total == bare
    assert rep.trainable > 0


def test_lora_all_targets_closed_form_desk_scale():
    # per layer: attention 4 proj * 4*(32+32) = 4096... r=4 so 4*64=256 each,
    # 4*256 = 1024; gate 4*(32+16) = 192; experts 16 * (4*(32+64)+4*(64+32))
    # = 16*768 = 12288. Total 13504 per layer.
    m = MoEModel(DESK, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=4, alpha=8, seed=1)
    set_trainability(m, Scheme("lora"))
    rep = count_params(m)
    per_layer = 1024 + 192 + 12288
    assert per_layer == 13504
    assert rep.trainable == DESK.n_layers * per_layer
    assert rep.trainable == rep.closed_form
    assert rep.per_target["attention"] == DESK.n_layers * 1024
    assert rep.per_target["gate"] == DESK.n_layers * 192
    assert rep.per_target["experts"] == DESK.n_layers * 12288


def test_lora_plan_k4_closed_form_and_ratio():
    prof = ActivationProfile(np.tile(np.arange(16, 0, -1), (4, 1)).astype(np.int64))
    plan = select(prof, k=4, strategy="layer_hot")
    m = MoEModel(DESK, seed=0)
    attach(m, TargetSet(experts="plan"), plan, Scheme("lora"), r=4, alpha=8, seed=1)
    set_trainability(m, Scheme("lora"))
    rep = count_params(m)
    per_layer = 1024 + 192 + 4 * 768
    assert per_layer == 4288
    assert rep.trainable == 4 * per_layer
    ratio = rep.trainable / (4 * 13504)
    assert abs(ratio - 0.3175) < 5e-4


def test_lori_d_counts_b_only():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lori_d"), r=2, alpha=4, seed=1)
    set_trainability(m, Scheme("lori_d"))
    rep = count_params(m)
    # per layer: attn 4 proj * r*8 = 64; gate r*4 = 8; experts 4*(r*12+r*8) = 160
    per_layer = 4 * 16 + 8 + 4 * (24 + 16)
    assert rep.trainable == cfg.n_layers * per_layer
    assert rep.trainable == rep.closed_form


def test_lori_s_counts_mask_popcount():
    cfg = tiny_config()
    donor = MoEModel(cfg, seed=0)
    attach(donor, TargetSet(experts="all"), None, Scheme("lori_d"), r=2, alpha=4, seed=1)
    rng = np.random.default_rng(7)
    masks = {}
    for name, pair in donor.adapters.items():
        masks[name] = build_mask(rng.normal(size=pair.B.shape), 0.10)
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lori_s"), r=2, alpha=4,
           seed=1, masks=masks)
    set_trainability(m, Scheme("lori_s"))
    rep = count_params(m)
    import math
    want = sum(math.ceil(0.10 * p.B.size) for p in m.adapters.values())
    assert rep.trainable == want == rep.closed_form


def test_closed_form_differs_from_registry_raises():
    # a registry mask other than the pair's trains a different count than
    # the closed form (the pair's mask popcount) reports
    cfg = tiny_config()
    donor = MoEModel(cfg, seed=0)
    attach(donor, TargetSet(experts="all"), None, Scheme("lori_d"), r=2, alpha=4, seed=1)
    rng = np.random.default_rng(7)
    masks = {name: build_mask(rng.normal(size=pair.B.shape), 0.10)
             for name, pair in donor.adapters.items()}
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lori_s"), r=2, alpha=4,
           seed=1, masks=masks)
    reg = set_trainability(m, Scheme("lori_s"))
    pair = m.adapters["layer0.router.w"]
    reg.set_mask("layer0.router.w.adapter.B", np.ones(pair.B.shape, dtype=bool))
    with pytest.raises(InvariantViolation, match="closed-form count .* != registry"):
        count_params(m)


def test_fraction_is_trainable_over_base():
    prof = ActivationProfile(np.tile(np.arange(16, 0, -1), (4, 1)).astype(np.int64))
    plan = select(prof, k=4, strategy="layer_hot")
    m = MoEModel(DESK, seed=0)
    attach(m, TargetSet(experts="plan"), plan, Scheme("lori_d"), r=4, alpha=8, seed=1)
    set_trainability(m, Scheme("lori_d"))
    rep = count_params(m)
    assert rep.fraction == rep.trainable / rep.base_total
    assert 0.0 < rep.fraction < 0.05


def test_param_report_format_line():
    m = MoEModel(tiny_config(), seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    set_trainability(m, Scheme("lora"))
    line = count_params(m).format()
    assert "trainable=" in line and "fraction=" in line


# --------------------------------------------------------------------- flops

def test_flops_hand_case():
    cfg = tiny_config()
    plan = PlacementPlan(hot=[[0, 1], [2, 3]], k=2, strategy="layer_hot")
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="plan"), plan, Scheme("lora"), r=2, alpha=4, seed=1)
    trace = make_trace(cfg, [
        [[0, 1], [0, 2], [3, 1]],   # layer 0 counts: e0=2 e1=2 e2=1 e3=1
        [[2, 0], [3, 3], [1, 2]],   # layer 1 counts: e0=1 e1=1 e2=2 e3=2
    ])
    rep = adapter_flops(trace, m)
    # per token per layer: attention 4 proj * 2*2*(8+8) = 256, gate 2*2*(8+4)
    # = 48; two layers and three tokens -> 1824. Expert pair costs
    # 2*2*(8+12) + 2*2*(12+8) = 160 per execution.
    assert rep.attention_gate_flops == 2 * 3 * (256 + 48)
    assert rep.exec_per_layer == [4, 4]
    assert rep.expert_flops == 8 * 160
    assert rep.baseline_expert_flops == 12 * 160
    assert rep.forward_flops == 1824 + 1280
    assert rep.train_flops == 3 * rep.forward_flops
    assert abs(rep.expert_reduction_pct - 100.0 * (1 - 8 / 12)) < 1e-12
    want = 100.0 * (1 - (1824 + 1280) / (1824 + 1920))
    assert abs(rep.reduction_pct - want) < 1e-12


def test_flops_no_expert_adapters_identical_to_baseline():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(attention=True, gate=True, experts="none"), None,
           Scheme("lora"), r=2, alpha=4, seed=1)
    trace = make_trace(cfg, [[[0, 1]] * 5, [[2, 3]] * 5])
    rep = adapter_flops(trace, m)
    assert rep.expert_flops == 0
    assert rep.baseline_expert_flops == 0
    assert rep.forward_flops == rep.baseline_forward_flops
    assert rep.reduction_pct == 0.0
    assert rep.expert_reduction_pct == 0.0


def test_flops_unselected_plan_costs_nothing():
    # the only adapted expert is never routed to: a 100% reduction is a result
    cfg = tiny_config(n_layers=1)
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(attention=False, gate=False, experts="plan"),
           PlacementPlan(hot=[[0]], k=1, strategy="layer_hot"),
           Scheme("lora"), r=2, alpha=4, seed=1)
    rep = adapter_flops(make_trace(cfg, [[[1, 2], [3, 1], [2, 3]]]), m)
    assert rep.forward_flops == 0 and rep.exec_per_layer == [0]
    assert rep.baseline_expert_flops == 6 * 160
    assert rep.reduction_pct == rep.expert_reduction_pct == 100.0


def test_flops_full_plan_matches_baseline():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    rng = np.random.default_rng(3)
    idx = [np.stack([rng.choice(4, size=2, replace=False) for _ in range(20)])
           for _ in range(cfg.n_layers)]
    rep = adapter_flops(make_trace(cfg, idx), m)
    assert rep.expert_flops == rep.baseline_expert_flops
    assert rep.reduction_pct == 0.0


def test_flops_monotone_in_plan_size():
    cfg = tiny_config()
    rng = np.random.default_rng(11)
    idx = [np.stack([rng.choice(4, size=2, replace=False) for _ in range(40)])
           for _ in range(cfg.n_layers)]
    trace = make_trace(cfg, idx)
    prev = None
    for k in (1, 2, 3, 4):
        plan = PlacementPlan(hot=[list(range(k))] * cfg.n_layers, k=k,
                             strategy="layer_hot")
        m = MoEModel(cfg, seed=0)
        attach(m, TargetSet(experts="plan"), plan, Scheme("lora"), r=2,
               alpha=4, seed=1)
        rep = adapter_flops(trace, m)
        if prev is not None:
            assert rep.expert_flops >= prev
        prev = rep.expert_flops
    assert rep.expert_flops == rep.baseline_expert_flops  # k = n_experts


def test_flops_shared_experts_always_costed():
    cfg = tiny_config(n_shared=1, k_route=2)
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(attention=False, gate=False, experts="all"), None,
           Scheme("lora"), r=2, alpha=4, seed=1)
    trace = make_trace(cfg, [[[0, 1]] * 6, [[2, 3]] * 6])
    rep = adapter_flops(trace, m)
    # shared pair costs 160 per token per layer, 6 tokens, 2 layers
    assert rep.shared_flops == 2 * 6 * 160
    assert rep.forward_flops == rep.expert_flops + rep.shared_flops


def test_flops_layer_count_mismatch_rejected():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    bad = make_trace(cfg, [[[0, 1]] * 3])  # one layer only
    with pytest.raises(ConfigError):
        adapter_flops(bad, m)


def test_flops_expert_width_mismatch_rejected():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    bad = make_trace(cfg, [[[0, 1]] * 3, [[0, 1]] * 3])
    bad.n_experts = 8
    with pytest.raises(ConfigError):
        adapter_flops(bad, m)


def test_train_is_exactly_three_forwards_on_model_trace():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    plan = PlacementPlan(hot=[[0, 2], [1, 3]], k=2, strategy="layer_hot")
    attach(m, TargetSet(experts="plan"), plan, Scheme("lora"), r=2, alpha=4, seed=1)
    tokens = np.arange(12).reshape(2, 6) % 26
    out = m.forward(tokens, want_trace=True)
    rep = adapter_flops(out.trace, m)
    assert rep.train_flops == 3 * rep.forward_flops
    assert isinstance(rep.train_flops, int)


# ------------------------------------------------------------- exec counters

def test_exec_counters_hand_case():
    cfg = tiny_config()
    trace = make_trace(cfg, [
        [[0, 1], [0, 2], [3, 1]],
        [[2, 0], [3, 3], [1, 2]],
    ])
    plan = PlacementPlan(hot=[[0, 1], [2, 3]], k=2, strategy="layer_hot")
    ctr = exec_counters(trace, plan)
    assert ctr.per_layer == [(4, 6), (4, 6)]
    assert abs(ctr.hit_rate - 8 / 12) < 1e-12


def test_exec_counters_full_plan_hits_everything():
    cfg = tiny_config()
    rng = np.random.default_rng(5)
    idx = [np.stack([rng.choice(4, size=2, replace=False) for _ in range(30)])
           for _ in range(2)]
    trace = make_trace(cfg, idx)
    plan = PlacementPlan(hot=[[0, 1, 2, 3]] * 2, k=4, strategy="layer_hot")
    ctr = exec_counters(trace, plan)
    assert ctr.hit_rate == 1.0


def test_exec_counters_disjoint_plan_hits_nothing():
    cfg = tiny_config()
    trace = make_trace(cfg, [[[0, 1]] * 10, [[0, 1]] * 10])
    plan = PlacementPlan(hot=[[2, 3]] * 2, k=2, strategy="layer_hot")
    ctr = exec_counters(trace, plan)
    assert ctr.hit_rate == 0.0


def test_layer_hot_hit_rate_at_least_uniform_share():
    # top-k of any histogram captures at least k/n of its mass, so a
    # layer_hot plan scored on its own source trace can never do worse
    # than a uniform placement
    rng = np.random.default_rng(19)
    cfg = tiny_config(n_experts=8, k_route=2)
    for trial in range(25):
        idx = [np.stack([rng.choice(8, size=2, replace=False)
                         for _ in range(50)]) for _ in range(2)]
        trace = make_trace(cfg, idx)
        prof = ActivationProfile.empty(2, 8)
        from hotmoe.profiler import record
        record(prof, trace)
        for k in (1, 2, 4):
            plan = select(prof, k=k, strategy="layer_hot")
            ctr = exec_counters(trace, plan)
            assert ctr.hit_rate >= k / 8 - 1e-12


def test_exec_counters_empty_trace():
    ctr = ExecCounters(per_layer=[])
    assert ctr.hit_rate == 0.0


# ------------------------------------------------------ per-layer counts

def test_trace_counts_include_every_position():
    cfg = tiny_config()
    trace = make_trace(cfg, [[[0, 1], [0, 2], [3, 1]], [[2, 0], [3, 1], [1, 2]]])
    trace.tokens = np.array([5, 6, PAD])
    assert trace.counts.tolist() == [[2, 2, 1, 1], [1, 2, 2, 1]]
    assert trace.counts.dtype == np.int64
    prof = ActivationProfile.empty(2, 4)
    record(prof, trace)                      # the content profile skips PAD
    assert prof.counts.sum() == 8 and trace.counts.sum() == 12


def test_summed_profile_costs_like_merged_traces():
    cfg = tiny_config()
    plan = PlacementPlan(hot=[[0, 1], [2, 3]], k=2, strategy="layer_hot")
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="plan"), plan, Scheme("lora"), r=2, alpha=4, seed=1)
    rng = np.random.default_rng(23)
    traces = [make_trace(cfg, [np.stack([rng.choice(4, size=2, replace=False)
                                         for _ in range(n)]) for _ in range(2)])
              for n in (7, 12)]
    summed = ActivationProfile(traces[0].counts + traces[1].counts)
    merged = RoutingTrace.merge(traces)
    assert adapter_flops(summed, m) == adapter_flops(merged, m)
    assert adapter_flops(summed, m).tokens == 19
    assert exec_counters(summed, plan) == exec_counters(merged, plan)


@pytest.mark.parametrize("counts", [[[2, 2, 1, 1], [1, 1, 2, 1]],   # sums 6 vs 5
                                    [[2, 2, 1, 0], [1, 1, 2, 1]]],  # 5 = 2.5 tokens
                         ids=["uneven-layers", "not-a-multiple-of-k"])
def test_flops_broken_count_conservation_raises(counts):
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    with pytest.raises(InvariantViolation):
        adapter_flops(ActivationProfile(np.array(counts, dtype=np.int64)), m)


def test_flops_wrong_shape_profile_rejected():
    cfg = tiny_config()
    m = MoEModel(cfg, seed=0)
    attach(m, TargetSet(experts="all"), None, Scheme("lora"), r=2, alpha=4, seed=1)
    with pytest.raises(ConfigError):
        adapter_flops(ActivationProfile.empty(cfg.n_layers, 8), m)
