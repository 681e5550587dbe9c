"""The fused routed-expert bank against the per-expert tape loop.

MoEModel._moe runs its routed experts as one tape node,
model.routed_experts. The oracle here is the loop it replaced: per expert,
gather its rows, run the expert through (adapted) projections and gelu on
the tape, and index-add its weighted output. Both run the same operations
in the same order, so outputs and every gradient must be bitwise equal.
"""

import numpy as np
import pytest

from hotmoe import model as model_mod
from hotmoe import tensor as T
from hotmoe.adapters import (AdapterPair, Scheme, TargetSet, adapted_forward,
                             attach, build_mask, set_trainability)
from hotmoe.gradcheck import finite_diff_check
from hotmoe.model import ModelConfig, MoEModel, forward_backward, routed_experts
from hotmoe.profiler import PlacementPlan
from hotmoe.tasks import Batch

GRAD_TOL = 1e-4   # the acceptance gate's gradcheck tolerance
SCHEMES = ("lora", "lori_d", "lori_s")


def loop_bank(xf, mix_w, idx, experts):
    """The per-expert tape loop that routed_experts replaced."""
    def proj(x, W, pair):
        return x @ W if pair is None else adapted_forward(x, W, pair)

    yf = T.Tensor(np.zeros(xf.shape))
    for e, (w_up, w_down, a_up, a_down) in enumerate(experts):
        rows, slots = np.where(idx == e)
        if rows.size == 0:
            continue
        xe = T.gather_rows(xf, rows)
        he = proj(T.gelu(proj(xe, w_up, a_up)), w_down, a_down)
        we = T.reshape(T.gather_pairs(mix_w, rows, slots), (rows.size, 1))
        yf = T.index_add_rows(yf, rows, he * we)
    return yf


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_ff=12, n_experts=4,
                k_route=2, vocab=32, max_seq=16)
    base.update(kw)
    return ModelConfig(**base)


def batch_of(seed, shape=(5, 9)):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.5
    mask[0, 0] = True
    return Batch(rng.integers(0, 32, size=shape), rng.integers(0, 32, size=shape), mask)


def first_half_plan(cfg):
    return PlacementPlan(hot=[list(range(0, cfg.n_experts, 2))] * cfg.n_layers,
                         k=(cfg.n_experts + 1) // 2, strategy="test")


def adapted(cfg, scheme, targets, plan):
    """A seed-3 model with adapters on `targets`, each B small and nonzero."""
    model = MoEModel(cfg, seed=3)
    masks = None
    if scheme == "lori_s":
        donor = MoEModel(cfg, seed=3)
        attach(donor, targets, plan, Scheme("lori_d"), r=2, alpha=4.0, seed=1)
        rng = np.random.default_rng(9)
        masks = {name: build_mask(rng.normal(size=pair.B.shape), 0.3)
                 for name, pair in donor.adapters.items()}
    attach(model, targets, plan, Scheme(scheme), r=2, alpha=4.0, seed=1, masks=masks)
    set_trainability(model, Scheme(scheme))
    rng = np.random.default_rng(5)
    for pair in model.adapters.values():
        pair.B.data[...] = 0.01 * rng.normal(size=pair.B.shape)
        if pair.mask is not None:
            pair.B.data[...] *= pair.mask
    return model


def step_bytes(build, batch, monkeypatch, loop):
    """Loss, per-layer trace and every gradient of one step, as bytes."""
    with monkeypatch.context() as mp:
        if loop:
            mp.setattr(model_mod, "routed_experts", loop_bank)
        model = build()
        res = forward_backward(model, batch, want_trace=True)
    grads = {name: None if e.tensor.grad is None else e.tensor.grad.tobytes()
             for name, e in model.registry.items()}
    trace = [(lt.indices.tobytes(), lt.weights.tobytes()) for lt in res.trace.layers]
    return res.loss.data.tobytes(), trace, grads


def assert_step_matches_loop(build, batch, monkeypatch):
    fused = step_bytes(build, batch, monkeypatch, loop=False)
    loop = step_bytes(build, batch, monkeypatch, loop=True)
    assert fused[0] == loop[0]
    assert fused[1] == loop[1]
    assert fused[2].keys() == loop[2].keys()
    for name in fused[2]:
        assert fused[2][name] == loop[2][name], name
    return fused


@pytest.mark.parametrize("kw", [
    {}, {"lb_mode": "per_layer"}, {"lb_mode": "off"}, {"n_shared": 1},
    {"k_route": 4}, {"k_route": 1, "n_experts": 3}])
def test_pretrain_step_matches_loop(kw, monkeypatch):
    cfg = tiny_config(**kw)
    _, _, grads = assert_step_matches_loop(lambda: MoEModel(cfg, seed=2),
                                           batch_of(0), monkeypatch)
    assert all(g is not None for name, g in grads.items() if ".expert" in name)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("experts", ["all", "plan"])
@pytest.mark.parametrize("others", [True, False])
def test_adapted_step_matches_loop(scheme, experts, others, monkeypatch):
    # others=False leaves layer 0's input and every router frozen, so the
    # bank sees an x and mixing weights that need no gradient
    cfg = tiny_config(n_shared=1) if others else tiny_config()
    targets = TargetSet(attention=others, gate=others, experts=experts)
    plan = first_half_plan(cfg) if experts == "plan" else None
    _, _, grads = assert_step_matches_loop(
        lambda: adapted(cfg, scheme, targets, plan), batch_of(1), monkeypatch)
    trained = [n for n, g in grads.items() if g is not None]
    assert trained and all(".adapter." in n for n in trained)


def bank_inputs(cfg, seed, idx, adapted_experts=()):
    """x, mixing weights and layer 0's expert bank, with masked adapters
    (trainable A and B) on both projections of `adapted_experts`."""
    rng = np.random.default_rng(seed)
    model = MoEModel(cfg, seed=seed)

    def pair(d_in, d_out):
        return AdapterPair(A=T.Tensor(rng.normal(size=(d_in, 2)), requires_grad=True),
                           B=T.Tensor(rng.normal(size=(2, d_out)), requires_grad=True),
                           r=2, alpha=4.0, mask=rng.random((2, d_out)) < 0.5)

    xf = T.Tensor(rng.normal(size=(idx.shape[0], cfg.d_model)), requires_grad=True)
    mix_w = T.Tensor(rng.random(idx.shape), requires_grad=True)
    experts = []
    for e in range(cfg.n_experts):
        on = e in adapted_experts
        experts.append((model.registry[f"layer0.expert{e}.w_up"].tensor,
                        model.registry[f"layer0.expert{e}.w_down"].tensor,
                        pair(cfg.d_model, cfg.d_ff) if on else None,
                        pair(cfg.d_ff, cfg.d_model) if on else None))
    return xf, mix_w, experts


def bank_tensors(xf, mix_w, experts):
    out = [xf, mix_w]
    for w_up, w_down, a_up, a_down in experts:
        out += [w_up, w_down]
        for pair in (a_up, a_down):
            if pair is not None:
                out += [pair.A, pair.B]
    return out


def test_expert_without_tokens():
    cfg = tiny_config()
    idx = np.array([[0, 1], [3, 1], [1, 0], [0, 3], [3, 0]])   # expert 2 idle
    xf, mix_w, experts = bank_inputs(cfg, 4, idx, adapted_experts=(1, 2))
    g = np.random.default_rng(8).normal(size=xf.shape)
    outs = []
    for bank in (routed_experts, loop_bank):
        tensors = bank_tensors(xf, mix_w, experts)
        for t in tensors:
            t.grad = None
        y = bank(xf, mix_w, idx, experts)
        T.tsum(y * T.Tensor(g)).backward()
        outs.append((y.data.tobytes(),
                     [None if t.grad is None else t.grad.tobytes() for t in tensors]))
    assert outs[0] == outs[1]
    idle = [t.grad for t in bank_tensors(xf, mix_w, experts[2:3])[2:]]
    assert len(idle) == 6 and all(g is None for g in idle)


def test_no_grad_forward_matches_tape():
    cfg = tiny_config(n_experts=6, k_route=3)
    idx = np.argsort(np.random.default_rng(2).random((7, 6)), axis=1)[:, :3]
    xf, mix_w, experts = bank_inputs(cfg, 1, idx)
    taped = routed_experts(xf, mix_w, idx, experts)
    with T.no_grad():
        free = routed_experts(xf, mix_w, idx, experts)
    assert not free.requires_grad and not free._parents
    assert free.data.tobytes() == taped.data.tobytes()


def test_layer_adds_same_tape_nodes_for_4_and_16_experts(monkeypatch):
    def nodes(n_experts):
        cfg = tiny_config(n_experts=n_experts, k_route=2)
        model = MoEModel(cfg, seed=0)
        x = T.Tensor(np.random.default_rng(0).normal(size=(4, 8, 8)), requires_grad=True)
        y, _, _, _ = model._moe(0, x)
        seen, stack, ops = set(), [y], 0
        while stack:
            node = stack.pop()
            if id(node) in seen or node is x:
                continue
            seen.add(id(node))
            stack.extend(p for p, _ in node._parents)
            ops += bool(node._parents)   # parameters are leaves, not tape nodes
        return ops
    assert nodes(4) == nodes(16)
    monkeypatch.setattr(model_mod, "routed_experts", loop_bank)
    assert nodes(4) < nodes(16)   # the loop grows with the bank


@pytest.mark.parametrize("scheme", ("base",) + SCHEMES)
def test_gradcheck(scheme):
    cfg = tiny_config(n_shared=1)
    batch = batch_of(3, shape=(3, 7))
    if scheme == "base":
        model = MoEModel(cfg, seed=7)
    else:
        model = adapted(cfg, scheme, TargetSet(True, True, "plan"), first_half_plan(cfg))
    rep = finite_diff_check(lambda: model.loss(batch).loss, model.registry,
                            eps=1e-5, max_coords_per_param=3, seed=0)
    assert rep.passes(GRAD_TOL), rep.format()
