"""The fused layer nodes against the composed tape path they replaced.

Each layer of MoEModel.forward normalizes with one rmsnorm node, routes
with one model.route node (router projection with its gate adapter,
route_topk, the mixing softmax, and, in a model that balances, the
load-balancing statistic P on the layer's trace) and runs its routed and
shared experts as one model.routed_experts node.
The oracle here is the tape graph they replaced: the composed norm, the
router's (adapted) projection, take_along_last, softmax and tmean, and
the per-expert bank loop (each shared expert run on every token and
added first, then per routed expert: gather its rows, run the expert
through (adapted) projections and gelu on the tape, index-add its
weighted output). Both run the same operations in the same order, so
outputs and every gradient must be bitwise equal.
"""

from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hotmoe import model as model_mod
from hotmoe import tensor as T
from composed import project
from hotmoe.adapters import (AdapterPair, Scheme, TargetSet, attach, build_mask,
                             set_trainability)
from hotmoe.config import load_config
from hotmoe.gradcheck import finite_diff_check
from hotmoe.model import (LayerTrace, ModelConfig, MoEModel, forward_backward,
                          load_balancing_loss, rmsnorm, route, route_topk,
                          routed_experts)
from hotmoe.profiler import PlacementPlan
from hotmoe.tasks import Batch

GRAD_TOL = 1e-4   # the acceptance gate's gradcheck tolerance
SCHEMES = ("lora", "lori_d", "lori_s")
DESK = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.cfg").model


def loop_bank(xf, mix_w, idx, experts, shared=()):
    """The per-expert tape loop that routed_experts replaced: the shared
    experts, always on, ahead of the routed ones."""
    def run(x, expert):
        (w_up, a_up), (w_down, a_down) = expert
        return project(T.gelu(project(x, w_up, a_up)), w_down, a_down)

    yf = T.Tensor(np.zeros(xf.shape))
    for expert in shared:
        yf = yf + run(xf, expert)
    for e, expert in enumerate(experts):
        rows, slots = np.where(idx == e)
        if rows.size == 0:
            continue
        he = run(T.gather_rows(xf, rows), expert)
        we = T.reshape(T.gather_pairs(mix_w, rows, slots), (rows.size, 1))
        yf = T.index_add_rows(yf, rows, he * we)
    return yf


def composed_route(xf, router, k_route, balance):
    """The tape graph that route replaced."""
    W, gate = router
    logits = project(xf, W, gate)
    idx, _ = route_topk(logits.data, k_route)
    mix_w = T.softmax(T.take_along_last(logits, idx), axis=-1)
    p = T.tmean(T.softmax(logits, axis=-1), axis=0) if balance else None
    return mix_w, LayerTrace(indices=idx.copy(), weights=mix_w.data.copy(), p=p)


def composed_rmsnorm(x):
    """The tape graph that the one-node rmsnorm replaced."""
    scale = T.power(T.tmean(x * x, axis=-1, keepdims=True) + model_mod._NORM_EPS, -0.5)
    return x * scale


def compose(mp):
    """Swap every fused layer node but attention for its composed graph."""
    mp.setattr(model_mod, "rmsnorm", composed_rmsnorm)
    mp.setattr(model_mod, "route", composed_route)
    mp.setattr(model_mod, "routed_experts", loop_bank)


def moe_half(model, layer, x):
    """The MoE half of forward's layer on a normed x (B, S, d): y and the
    layer's trace, through whichever route and routed_experts the model
    module holds."""
    c = model.config
    bsz, s, d = x.shape
    xf = T.reshape(x, (bsz * s, d))
    _, router, experts, shared = model.layer_names[layer]
    proj = model._projection
    mix_w, lt = model_mod.route(xf, proj(router), c.k_route, c.lb_weight > 0.0)
    yf = model_mod.routed_experts(xf, mix_w, lt.indices,
                                  *[[(proj(up), proj(down)) for up, down in bank]
                                    for bank in (experts, shared)])
    return T.reshape(yf, (bsz, s, d)), lt


def tiny_config(**kw):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_ff=12, n_experts=4,
                k_route=2)
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
            compose(mp)
        model = build()
        res = forward_backward(model, batch)
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
    {}, {"lb_weight": 0.0}, {"n_shared": 1},
    {"k_route": 4}, {"k_route": 1, "n_experts": 3}])
def test_pretrain_step_matches_loop(kw, monkeypatch):
    cfg = tiny_config(**kw)
    _, _, grads = assert_step_matches_loop(lambda: MoEModel(cfg, seed=2),
                                           batch_of(0), monkeypatch)
    assert all(g is not None for name, g in grads.items()
               if ".expert" in name or ".router" in name)


@pytest.mark.parametrize("kw", [{}, {"lb_weight": 0.0}, {"n_shared": 2},
                                {"k_route": 16}])
def test_desk_pretrain_step_matches_composed(kw, monkeypatch):
    cfg = replace(DESK, **kw)
    _, _, grads = assert_step_matches_loop(lambda: MoEModel(cfg, seed=2),
                                           batch_of(0, shape=(6, 13)), monkeypatch)
    assert all(g is not None for name, g in grads.items() if ".router" in name)


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


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("experts", ["all", "plan"])
@pytest.mark.parametrize("gate", [True, False])
@pytest.mark.parametrize("lb_weight", [pytest.param(DESK.lb_weight, id="global"),
                                       pytest.param(0.0, id="off")])
def test_desk_adapted_step_matches_composed(lb_weight, gate, experts, scheme,
                                            monkeypatch):
    # fine-tuning clones its model at lb_weight 0 (off); the global case also
    # sends the balancing loss's gradient through P, so both sides are checked
    cfg = replace(DESK, n_shared=1, lb_weight=lb_weight)
    targets = TargetSet(attention=False, gate=gate, experts=experts)
    plan = first_half_plan(cfg) if experts == "plan" else None
    _, _, grads = assert_step_matches_loop(
        lambda: adapted(cfg, scheme, targets, plan), batch_of(1, shape=(6, 13)),
        monkeypatch)
    gated = [n for n, g in grads.items() if ".router.w.adapter.B" in n and g is not None]
    assert len(gated) == (cfg.n_layers if gate else 0)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("lb_weight", [0.01, 0.0])
def test_two_adapted_shared_experts_match_loop(lb_weight, scheme, monkeypatch):
    # configs/shared.cfg's shape: each shared expert reads x itself, so the
    # tape adds its projection and adapter terms into x's gradient one by one
    cfg = tiny_config(n_shared=2, lb_weight=lb_weight)
    _, _, grads = assert_step_matches_loop(
        lambda: adapted(cfg, scheme, TargetSet(True, True, "plan"), first_half_plan(cfg)),
        batch_of(1), monkeypatch)
    assert all(grads[f"layer{l}.shared{j}.{w}.adapter.B"] is not None
               for l in range(cfg.n_layers) for j in range(2) for w in ("w_up", "w_down"))


def test_lb_loss_alone_matches_composed(monkeypatch):
    # only P reaches this loss: the weights node's gradient comes from P alone
    cfg = tiny_config(n_shared=1)

    def grads(composed):
        with monkeypatch.context() as mp:
            if composed:
                compose(mp)
            model = MoEModel(cfg, seed=2)
            out = model.forward(batch_of(0).tokens, want_trace=True)
            model.registry.zero_grads()
            load_balancing_loss(out.trace).backward()
        return {name: None if e.tensor.grad is None else e.tensor.grad.tobytes()
                for name, e in model.registry.items()}

    fused = grads(composed=False)
    assert fused == grads(composed=True)
    assert all(fused[f"layer{l}.router.w"] is not None for l in range(cfg.n_layers))


@pytest.mark.parametrize("residual", [False, True])
def test_rmsnorm_matches_composed(residual):
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
    mix = T.Tensor(rng.normal(size=(8, 8)))
    weights = T.Tensor(rng.normal(size=(3, 5, 8)))
    outs = []
    for norm in (rmsnorm, composed_rmsnorm):
        x.grad = None
        y = norm(x) @ mix
        if residual:   # x also feeds the residual, which the tape reaches first
            y = x + y
        T.tsum(y * weights).backward()
        outs.append((y.data.tobytes(), x.grad.tobytes()))
    assert outs[0] == outs[1]
    y = rmsnorm(x)
    assert y._parents == [x, x, x]   # one node over x, once per gradient term


def route_inputs(gate):
    """x (7, d), a router weight over 6 experts and, with gate, its adapter."""
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    xf = T.Tensor(rng.normal(size=(7, cfg.d_model)), requires_grad=True)
    W = T.Tensor(rng.normal(size=(cfg.d_model, 6)), requires_grad=True)
    pair = None
    if gate:
        pair = AdapterPair(A=T.Tensor(rng.normal(size=(cfg.d_model, 2))),
                           B=T.Tensor(rng.normal(size=(2, 6)), requires_grad=True),
                           alpha=4.0, mask=rng.random((2, 6)) < 0.5)
    return xf, (W, pair)


@pytest.mark.parametrize("gate", [False, True])
def test_route_no_grad_matches_tape(gate):
    xf, router = route_inputs(gate)
    w, lt = route(xf, router, 3, True)
    with T.no_grad():
        w_free, lt_free = route(xf, router, 3, True)
    assert w.requires_grad and lt.p.requires_grad
    assert not w_free._parents and not lt_free.p._parents
    assert w.data.tobytes() == w_free.data.tobytes()
    assert lt.p.data.tobytes() == lt_free.p.data.tobytes()
    assert lt.indices.tobytes() == lt_free.indices.tobytes()
    assert lt.weights.tobytes() == lt_free.weights.tobytes()
    assert lt.p._parents == [w]   # P is a child of the weights


@pytest.mark.parametrize("grad", [True, False], ids=["taped", "no-grad"])
def test_route_without_balance_builds_no_p(grad, monkeypatch):
    xf, router = route_inputs(gate=True)
    made = []
    make = T._make

    def counting(data, parents, backward):
        made.append(data)
        return make(data, parents, backward)

    monkeypatch.setattr(T, "_make", counting)
    with nullcontext() if grad else T.no_grad():
        w, lt = route(xf, router, 3, False)
        w_p, lt_p = route(xf, router, 3, True)
    assert lt.p is None and lt_p.p is not None
    assert len(made) == (3 if grad else 0)   # w, then w and P
    assert w.data.tobytes() == w_p.data.tobytes()
    assert lt.indices.tobytes() == lt_p.indices.tobytes()


@pytest.mark.parametrize("shape", ["tiny", "desk"])
def test_no_grad_model_forward_matches_tape(shape, monkeypatch):
    cfg = {"tiny": tiny_config(n_shared=1), "desk": DESK}[shape]
    model = adapted(cfg, "lori_s", TargetSet(True, True, "plan"), first_half_plan(cfg))
    tokens = np.random.default_rng(6).integers(0, 32, size=(3, 11))
    taped = model.forward(tokens).logits
    with T.no_grad():
        free = model.forward(tokens).logits
    assert not free._parents
    assert free.data.tobytes() == taped.data.tobytes()
    compose(monkeypatch)
    with T.no_grad():
        assert model.forward(tokens).logits.data.tobytes() == taped.data.tobytes()


def bank_inputs(cfg, seed, idx, adapted_experts=()):
    """x, mixing weights, layer 0's expert bank and its shared experts, with
    masked adapters (trainable A and B) on both projections of
    `adapted_experts` (routed indices, and "shared" for every shared one)."""
    rng = np.random.default_rng(seed)
    model = MoEModel(cfg, seed=seed)

    def pair(d_in, d_out):
        return AdapterPair(A=T.Tensor(rng.normal(size=(d_in, 2)), requires_grad=True),
                           B=T.Tensor(rng.normal(size=(2, d_out)), requires_grad=True),
                           alpha=4.0, mask=rng.random((2, d_out)) < 0.5)

    xf = T.Tensor(rng.normal(size=(idx.shape[0], cfg.d_model)), requires_grad=True)
    mix_w = T.Tensor(rng.random(idx.shape), requires_grad=True)
    def expert(tag, on):
        return ((model.registry[f"layer0.{tag}.w_up"].tensor,
                 pair(cfg.d_model, cfg.d_ff) if on else None),
                (model.registry[f"layer0.{tag}.w_down"].tensor,
                 pair(cfg.d_ff, cfg.d_model) if on else None))

    experts = [expert(f"expert{e}", e in adapted_experts) for e in range(cfg.n_experts)]
    shared = [expert(f"shared{j}", "shared" in adapted_experts) for j in range(cfg.n_shared)]
    return xf, mix_w, experts, shared


def bank_tensors(xf, mix_w, experts):
    out = [xf, mix_w]
    for (w_up, a_up), (w_down, a_down) in experts:
        out += [w_up, w_down]
        for pair in (a_up, a_down):
            if pair is not None:
                out += [pair.A, pair.B]
    return out


def bank_bytes(bank, xf, mix_w, idx, experts, g, shared=()):
    """The bank's output and every parent's gradient under g, as bytes."""
    tensors = bank_tensors(xf, mix_w, experts + list(shared))
    for t in tensors:
        t.grad = None
    y = bank(xf, mix_w, idx, experts, shared)
    T.tsum(y * T.Tensor(g)).backward()
    return y.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in tensors]


def test_expert_without_tokens():
    cfg = tiny_config()
    idx = np.array([[0, 1], [3, 1], [1, 0], [0, 3], [3, 0]])   # expert 2 idle
    xf, mix_w, experts, _ = bank_inputs(cfg, 4, idx, adapted_experts=(1, 2))
    g = np.random.default_rng(8).normal(size=xf.shape)
    outs = [bank_bytes(bank, xf, mix_w, idx, experts, g)
            for bank in (routed_experts, loop_bank)]
    assert outs[0] == outs[1]
    idle = [t.grad for t in bank_tensors(xf, mix_w, experts[2:3])[2:]]
    assert len(idle) == 6 and all(g is None for g in idle)


# (config overrides, idx, adapted experts): expert 2 holds exactly one slot
# or none; k_route 1 and k_route = n_experts; adapters on some experts only;
# shared experts, adapted or not, next to an idle expert and at k_route 1
BANK_CASES = {
    "one-slot-expert": ({}, [[0, 1], [2, 1], [1, 0], [0, 3], [3, 0]], (0, 2)),
    "idle-expert": ({}, [[0, 1], [3, 1], [1, 0], [0, 3], [3, 0]], (3,)),
    "k1": ({"k_route": 1}, [[0], [3], [0], [1], [3]], (1,)),
    "k-all": ({"k_route": 4}, [[0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0],
                               [1, 0, 3, 2]], (0, 3)),
    "no-adapters": ({}, [[1, 0], [2, 3], [0, 2], [3, 1], [1, 2], [0, 3]], ()),
    "all-adapters": ({}, [[1, 0], [2, 3], [0, 2], [3, 1], [1, 2], [0, 3]], (0, 1, 2, 3)),
    "shared": ({"n_shared": 1}, [[0, 1], [3, 1], [1, 0], [0, 3], [3, 0]], (1, "shared")),
    "two-shared": ({"n_shared": 2}, [[1, 0], [2, 3], [0, 2], [3, 1], [1, 2], [0, 3]],
                   (0, "shared")),
    "plain-shared-k1": ({"n_shared": 2, "k_route": 1}, [[0], [3], [0], [1], [3]], (1,)),
}


@pytest.mark.parametrize("zero_rows", (False, True), ids=("dense", "zero-rows"))
@pytest.mark.parametrize("x_grad", (True, False), ids=("x-grad", "x-frozen"))
@pytest.mark.parametrize("case", sorted(BANK_CASES))
def test_bank_edge_cases_bitwise(case, x_grad, zero_rows):
    kw, idx, adapted_experts = BANK_CASES[case]
    cfg = tiny_config(**kw)
    idx = np.array(idx)
    xf, mix_w, experts, shared = bank_inputs(cfg, 6, idx, adapted_experts=adapted_experts)
    xf.requires_grad = x_grad
    g = np.random.default_rng(2).normal(size=xf.shape)
    if zero_rows:
        # unscored positions: +0.0 and -0.0 gradient rows; a token whose
        # mixing weights all underflowed to 0.0 sums -0.0 terms where its
        # experts' outputs are negative
        g[0] = 0.0
        g[-1] = -0.0
        mix_w.data[1] = 0.0
    fused = bank_bytes(routed_experts, xf, mix_w, idx, experts, g, shared)
    assert fused == bank_bytes(loop_bank, xf, mix_w, idx, experts, g, shared)
    assert (fused[1][0] is None) == (not x_grad)


def test_no_grad_forward_matches_tape():
    cfg = tiny_config(n_experts=6, k_route=3)
    idx = np.argsort(np.random.default_rng(2).random((7, 6)), axis=1)[:, :3]
    xf, mix_w, experts, _ = bank_inputs(cfg, 1, idx)
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
        y, lt = moe_half(model, 0, model_mod.rmsnorm(x))
        seen, stack, ops = set(), [y, lt.p], 0
        while stack:
            node = stack.pop()
            if id(node) in seen or node is x:
                continue
            seen.add(id(node))
            stack.extend(node._parents)
            ops += bool(node._parents)   # parameters are leaves, not tape nodes
        return ops
    # the norm, reshape, route, P, the bank and the reshape back
    assert nodes(4) == nodes(16) == 6
    compose(monkeypatch)
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
