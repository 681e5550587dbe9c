"""The fused attention sublayer against the composed tape path.

MoEModel.forward runs each attention sublayer (pre-norm, adapted q/k/v/o
projections, causal softmax attention, residual add) as one tape node,
model.attention_sublayer. The oracle here is the tape graph it replaced,
built from rmsnorm, composed.project and the tape's shape and softmax ops.
Both run the same operations in the same order on arrays of the same
memory layout, so outputs and every gradient must be bitwise equal.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from hotmoe import model as model_mod
from hotmoe import tensor as T
from composed import project
from hotmoe.adapters import AdapterPair, TargetSet
from hotmoe.gradcheck import finite_diff_check
from hotmoe.model import (KVCache, MoEModel, attention_sublayer, forward_backward,
                          rmsnorm)
from hotmoe.registry import ParamRegistry
from test_moe_fused import (DESK, GRAD_TOL, SCHEMES, adapted, batch_of, first_half_plan,
                            tiny_config)


def tape_sublayer(x, projs, n_heads, bias, cache, layer):
    """The composed tape path that attention_sublayer replaced."""
    bsz, s, d = x.shape
    hd = d // n_heads
    xn = rmsnorm(x)

    def split(t):
        return T.swapaxes(T.reshape(t, (bsz, s, n_heads, hd)), 1, 2)

    (wq, aq), (wk, ak), (wv, av), (wo, ao) = projs
    q = split(project(xn, wq, aq))
    k = split(project(xn, wk, ak))
    v = split(project(xn, wv, av))
    if cache is not None:
        if cache.length:
            k_old, v_old = cache.kv[layer]
            k = T.Tensor(np.concatenate([k_old, k.data], axis=2))
            v = T.Tensor(np.concatenate([v_old, v.data], axis=2))
        cache.kv[layer] = (k.data, v.data)
    scores = (q @ T.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(hd))
    att = T.softmax(scores + T.Tensor(bias), axis=-1)
    out = T.reshape(T.swapaxes(att @ v, 1, 2), (bsz, s, d))
    return x + project(out, wo, ao)


def step_bytes(build, batch, monkeypatch, tape):
    """Loss, per-layer trace and every gradient of one step, as bytes."""
    with monkeypatch.context() as mp:
        if tape:
            mp.setattr(model_mod, "attention_sublayer", tape_sublayer)
        model = build()
        res = forward_backward(model, batch)
    grads = {name: None if e.tensor.grad is None else e.tensor.grad.tobytes()
             for name, e in model.registry.items()}
    trace = [(lt.indices.tobytes(), lt.weights.tobytes()) for lt in res.trace.layers]
    return res.loss.data.tobytes(), trace, grads


def assert_step_matches_tape(build, batch, monkeypatch):
    fused = step_bytes(build, batch, monkeypatch, tape=False)
    tape = step_bytes(build, batch, monkeypatch, tape=True)
    assert fused[0] == tape[0]
    assert fused[1] == tape[1]
    assert fused[2].keys() == tape[2].keys()
    for name in fused[2]:
        assert fused[2][name] == tape[2][name], name
    return fused[2]


SHAPES = {"tiny": tiny_config(), "desk": DESK}


@pytest.mark.parametrize("kw", [{}, {"lb_weight": 0.0}, {"n_shared": 1}])
@pytest.mark.parametrize("shape", SHAPES)
def test_pretrain_step_matches_tape(shape, kw, monkeypatch):
    cfg = replace(SHAPES[shape], **kw)
    grads = assert_step_matches_tape(lambda: MoEModel(cfg, seed=2),
                                     batch_of(0, shape=(6, 13)), monkeypatch)
    assert all(g is not None for name, g in grads.items() if ".attn." in name)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("attention", [True, False])
@pytest.mark.parametrize("shape", SHAPES)
def test_adapted_step_matches_tape(shape, attention, scheme, monkeypatch):
    # attention=False leaves the attention weights unadapted and frozen; the
    # sublayer then still carries gradient to x from the layers above it
    cfg = SHAPES[shape]
    targets = TargetSet(attention=attention, gate=True, experts="plan")
    grads = assert_step_matches_tape(
        lambda: adapted(cfg, scheme, targets, first_half_plan(cfg)),
        batch_of(1, shape=(6, 13)), monkeypatch)
    attn = [n for n, g in grads.items() if ".attn." in n and g is not None]
    assert all(".adapter." in n for n in attn) and bool(attn) == attention


@pytest.mark.parametrize("scheme", ("base",) + SCHEMES)
def test_no_grad_forward_matches_tape(scheme, monkeypatch):
    cfg = tiny_config()
    model = (MoEModel(cfg, seed=4) if scheme == "base" else
             adapted(cfg, scheme, TargetSet(True, True, "plan"), first_half_plan(cfg)))
    tokens = np.random.default_rng(6).integers(0, 32, size=(3, 11))
    taped = model.forward(tokens).logits
    assert taped.requires_grad
    with T.no_grad():
        free = model.forward(tokens).logits
    assert not free.requires_grad and not free._parents
    assert free.data.tobytes() == taped.data.tobytes()

    def cached(split):
        cache = KVCache()
        with T.no_grad():
            head = model.forward(tokens[:, :split], cache=cache).logits.data
            tail = model.forward(tokens[:, split:], cache=cache).logits.data
        return np.concatenate([head, tail], axis=1).tobytes()

    fused = [cached(split) for split in (1, 7)]
    monkeypatch.setattr(model_mod, "attention_sublayer", tape_sublayer)
    assert fused == [cached(split) for split in (1, 7)]


def tape_nodes(out, stop):
    seen, stack, ops = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or node is stop:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        ops += bool(node._parents)   # parameters are leaves, not tape nodes
    return ops


@pytest.mark.parametrize("targets", [None, TargetSet(True, False, "none")])
def test_sublayer_is_one_tape_node(targets):
    cfg = tiny_config()
    if targets is None:
        model = MoEModel(cfg, seed=0)
    else:
        model = adapted(cfg, "lora", targets, None)
    projs = [(model.registry[f"layer0.attn.{p}"].tensor,
              model.adapters.get(f"layer0.attn.{p}")) for p in ("wq", "wk", "wv", "wo")]
    assert all((pair is None) == (targets is None) for _, pair in projs)
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, 5, 8)), requires_grad=True)
    bias = model._causal_bias(5, 0)
    assert tape_nodes(attention_sublayer(x, projs, 2, bias, None, 0), x) == 1
    assert tape_nodes(tape_sublayer(x, projs, 2, bias, None, 0), x) > 1


def sublayer_registry(scheme, seed=0, d=8, r=2):
    """x, the four projections and (unless base) an adapter on each, all
    trainable, in a registry; lori_s adapters are masked."""
    rng = np.random.default_rng(seed)
    reg = ParamRegistry()
    reg.add("x", T.Tensor(rng.normal(size=(2, 5, d))))
    projs = []
    for p in ("wq", "wk", "wv", "wo"):
        W = T.Tensor(rng.normal(0.0, 0.3, size=(d, d)))
        reg.add(p, W)
        pair = None
        if scheme != "base":
            pair = AdapterPair(A=T.Tensor(rng.normal(0.0, 0.3, size=(d, r))),
                               B=T.Tensor(rng.normal(0.0, 0.3, size=(r, d))),
                               alpha=4.0,
                               mask=rng.random((r, d)) < 0.5 if scheme == "lori_s" else None)
            reg.add(f"{p}.A", pair.A, trainable=scheme == "lora")
            reg.add(f"{p}.B", pair.B)
            if pair.mask is not None:
                reg.set_mask(f"{p}.B", pair.mask)
        projs.append((W, pair))
    return reg, projs


@pytest.mark.parametrize("scheme", ("base",) + SCHEMES)
def test_gradcheck(scheme):
    reg, projs = sublayer_registry(scheme)
    bias = np.triu(np.full((5, 5), -1e9), k=1)
    weights = T.Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))

    def loss():
        y = attention_sublayer(reg["x"].tensor, projs, 2, bias, None, 0)
        return T.tsum(y * y * weights)

    rep = finite_diff_check(loss, reg, eps=1e-5, seed=0)
    assert rep.passes(GRAD_TOL), rep.format()
    assert reg["x"].tensor.grad is not None
