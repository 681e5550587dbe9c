"""Toy MoE transformer with top-k routing and a load-balancing loss.

Architecture: learned token + position embeddings, then n_layers blocks of
(causal multi-head attention, MoE feed-forward), each behind a residual
with parameter-free RMS normalization, then an output projection. Every
feed-forward is a routed bank of GELU experts plus optional always-active
shared experts.

Routing gradient semantics: mixing weights are a softmax over the
selected top-k logits only, so unselected logits get no gradient from the
mixing path. The load-balancing term sees the full softmax, which only a
traced forward of a model with lb_weight > 0 computes: its routing trace
carries it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import tensor as T
from .adapters import AdapterPair, adapted_backward, adapted_forward
from .checkpoint import save_checkpoint
from .errors import ConfigError, InvariantViolation
from .optim import Adam
from .profiler import ActivationProfile, record
from .registry import ParamRegistry
from .tasks import (PAD, Batch, Dataset, TaskSpec, evaluate, iter_batches,
                    make_task)
from .tensor import Tensor


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    n_experts: int = 16
    k_route: int = 4
    n_shared: int = 0
    lb_weight: float = 0.01
    vocab: ClassVar[int] = PAD + 1   # constant: the tasks emit token ids 0..PAD
    max_seq: ClassVar[int] = 16      # constant: embed.pos rows; task rows reach 13

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "n_experts"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_shared < 0:
            raise ConfigError(f"n_shared must be >= 0, got {self.n_shared}")
        if not 1 <= self.k_route <= self.n_experts:
            raise ConfigError(
                f"k_route {self.k_route} out of [1, n_experts={self.n_experts}]")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        # nan would switch the loss off (weight > 0 is False), < 0 rewards imbalance
        if not 0.0 <= self.lb_weight < math.inf:
            raise ConfigError(f"lb_weight must be finite and >= 0: {self.lb_weight}")


def route_topk(logits: np.ndarray, k_route: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k expert selection with ties toward the lower expert index.

    Returns (indices, weights) where weights are the softmax over the
    selected logits, in selection (descending-logit) order. Pure numpy:
    the differentiable mixing path re-derives weights on the tape from
    the returned indices.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n = logits.shape[-1]
    if k_route > n:
        raise ConfigError(f"k_route {k_route} > n_experts {n}")
    order = np.argsort(-logits, axis=-1, kind="stable")
    idx = order[..., :k_route]
    sel = np.take_along_axis(logits, idx, axis=-1)
    shifted = sel - sel.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    weights = e / e.sum(axis=-1, keepdims=True)
    return idx, weights


@dataclass
class LayerTrace:
    indices: np.ndarray            # (tokens, k_route) int64
    weights: np.ndarray            # (tokens, k_route) float64
    p: Tensor | None = None        # (n_experts,) mean full softmax, if balancing


@dataclass
class RoutingTrace:
    n_experts: int
    k_route: int
    layers: list[LayerTrace] = field(default_factory=list)
    tokens: np.ndarray | None = None  # flat (tokens,) input ids, set by forward

    @property
    def n_tokens(self) -> int:
        return self.layers[0].indices.shape[0] if self.layers else 0

    @property
    def counts(self) -> np.ndarray:
        """(n_layers, n_experts) int64 selections at every position, PAD included."""
        counts = np.zeros((len(self.layers), self.n_experts), dtype=np.int64)
        for l, lt in enumerate(self.layers):
            counts[l] = np.bincount(lt.indices.reshape(-1), minlength=self.n_experts)
        return counts

    @staticmethod
    def merge(traces: list["RoutingTrace"]) -> "RoutingTrace":
        """Concatenate token streams, dropping input ids; kept for the tracer."""
        if not traces:
            raise ConfigError("cannot merge zero traces")
        first = traces[0]
        out = RoutingTrace(first.n_experts, first.k_route)
        for l in range(len(first.layers)):
            out.layers.append(LayerTrace(
                indices=np.concatenate([t.layers[l].indices for t in traces]),
                weights=np.concatenate([t.layers[l].weights for t in traces]),
            ))
        return out


def load_balancing_loss(trace: RoutingTrace) -> Tensor:
    """N_E * sum_i f_i * P_i, with f (from the trace's counts) and P (on
    its layers, as a balancing model's forward leaves them) pooled first."""
    ps = [lt.p for lt in trace.layers]
    if not ps or any(p is None for p in ps):
        raise ConfigError("load_balancing_loss needs a trace with P in every layer")
    p_bar = ps[0]
    for p in ps[1:]:
        p_bar = p_bar + p
    p_bar = p_bar * (1.0 / len(ps))
    f = trace.counts / (trace.n_tokens * trace.k_route)
    return T.tsum(p_bar * Tensor(f.mean(axis=0))) * float(trace.n_experts)


@dataclass
class KVCache:
    """Attention keys and values of the positions a no-grad forward consumed.

    `kv[layer]` holds that layer's (keys, values), each (B, H, length, hd).
    The arrays sit outside the tape, so only gradient-free forwards use it.
    """
    kv: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    length: int = 0


@dataclass
class ForwardResult:
    logits: Tensor
    trace: RoutingTrace | None


@dataclass
class LossResult:
    loss: Tensor
    ce: float
    lb: float
    trace: RoutingTrace


_NORM_EPS = 1e-6


def _norm(xd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rmsnorm's forward: mean(x * x) + eps over the last axis, that to the
    power -0.5, and x times it."""
    ms = (xd * xd).sum(axis=-1, keepdims=True) * (1.0 / xd.shape[-1]) + _NORM_EPS
    scale = ms ** -0.5
    return ms, scale, xd * scale


def _norm_sq_grad(g_xn: np.ndarray, xd: np.ndarray, ms: np.ndarray) -> np.ndarray:
    """The x * x term of rmsnorm's backward for the output gradient g_xn;
    x's gradient takes it twice, after g_xn * scale."""
    g_scale = (g_xn * xd).sum(axis=-1, keepdims=True)
    g_ss = (g_scale * -0.5) * ms ** -1.5 * (1.0 / xd.shape[-1])
    return g_ss * xd


def rmsnorm(x: Tensor) -> Tensor:
    """x * mean(x * x) ** -0.5 over the last axis, as one tape node.

    x is listed once per term the composed norm (x * scale, scale from
    x * x) added into x's gradient, in the order it added them: x * scale,
    then x * x twice. So the tape accumulates them, after whatever other
    consumers of x gave first, bitwise as it did for the composed norm.
    """
    xd = x.data
    ms, scale, xn = _norm(xd)
    if not T.grad_enabled():
        return Tensor(xn)

    def backward(g: np.ndarray) -> list[np.ndarray]:
        g_sq_x = _norm_sq_grad(g, xd, ms)
        return [g * scale, g_sq_x, g_sq_x]

    return T._make(xn, [x, x, x], backward)


def _project(inp: np.ndarray, W: Tensor, pair: AdapterPair | None,
             out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """inp @ W plus the adapter term (adapted_forward) where pair is set,
    and inp @ A. With out, the sum is written into it."""
    out = np.matmul(inp, W.data, out=out)
    return out, None if pair is None else adapted_forward(inp, pair, out)


def _project_grads(g_out: np.ndarray, inp: np.ndarray, W: Tensor,
                   pair: AdapterPair | None, xa: np.ndarray | None, want_in: bool,
                   out: np.ndarray | None = None) -> tuple[list[np.ndarray], list]:
    """Backward of _project: (inp's gradient terms, the gradients of
    _params((W, pair))). The terms, only if want_in, are the base term
    first and the adapter term second, as the tape added them; with out,
    the base term is written into it. A tensor that does not require a
    gradient gets None; W's is summed over inp's batch axes, as matmul's,
    and A's and B's come from adapted_backward."""
    g_W = T._unbroadcast(inp.swapaxes(-1, -2) @ g_out, W.shape) if W.requires_grad else None
    terms = [np.matmul(g_out, W.data.swapaxes(-1, -2), out=out)] if want_in else []
    g_in, g_ab = (None, []) if pair is None else adapted_backward(g_out, inp, pair, xa, want_in)
    return terms if g_in is None else terms + [g_in], [g_W] + g_ab


# A projection: its weight and the weight's adapter or None.
Projection = tuple[Tensor, AdapterPair | None]
# An expert: its up and its down projection.
Expert = tuple[Projection, Projection]


def _params(proj: Projection) -> list[Tensor]:
    """[W] or [W, A, B]: a projection's tensors, as _project_grads orders them."""
    W, pair = proj
    return [W] if pair is None else [W, pair.A, pair.B]


def route(x: Tensor, router: Projection, k_route: int,
          balance: bool) -> tuple[Tensor, LayerTrace]:
    """Router projection, top-k selection and mixing softmax of one layer,
    as one tape node, and the layer's trace.

    For x (tokens, d), logits = x W_r, adapted as in adapted_forward when
    the gate has an adapter. route_topk picks each token's k experts and
    their mixing weights w, a softmax over the selected logits; w is the
    node's output. With balance, the trace also carries P, the mean
    full-softmax probability per expert, which the load-balancing loss
    reads: a child node of w whose backward hands its gradient to w's
    backward and contributes zeros to w's, so w's backward runs even when
    only P reaches the loss. Without balance, P and its node are not
    built. Every operation runs in the order of the composed tape graph
    this node replaces (projection, take_along_last, softmax, and softmax
    then tmean for P), and x is listed once per term that graph added into
    its gradient (the projection, then the gate adapter) before the
    router's _params, so outputs and gradients are bitwise equal to it.
    The bank that consumes w, shared experts included, is its own node
    (routed_experts): a routing pass runs the last layer's router alone.
    """
    W, gate = router
    xd = x.data
    logits, xa = _project(xd, W, gate)
    idx, mix = route_topk(logits, k_route)
    idx = idx.copy()
    trace = LayerTrace(indices=idx, weights=mix)
    n_tok = xd.shape[0]
    if balance:
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        soft = e / e.sum(axis=-1, keepdims=True)
        trace.p = Tensor(soft.sum(axis=0) * (1.0 / n_tok))
    if not T.grad_enabled():
        return Tensor(mix), trace
    g_p: list[np.ndarray] = []
    # x once per term _project_grads gives it: none, the projection's, and
    # with a gate adapter the adapter's
    n_x = 0 if not x.requires_grad else 1 if gate is None else 2

    def backward(g: np.ndarray) -> list[np.ndarray | None]:
        g_sel = mix * (g - (g * mix).sum(axis=-1, keepdims=True))
        # take_along_last's backward added g_sel into zeros, which turned
        # its -0.0s into +0.0
        g_logits = np.zeros_like(logits)
        np.put_along_axis(g_logits, idx, g_sel + 0.0, axis=-1)
        if g_p:
            gb = g_p[0] * (1.0 / n_tok)
            g_logits += soft * (gb - (gb * soft).sum(axis=-1, keepdims=True))
        terms, grads = _project_grads(g_logits, xd, W, gate, xa, x.requires_grad)
        return terms + grads

    w = T._make(mix, [x] * n_x + _params(router), backward)
    if balance:
        def hand_over(g: np.ndarray) -> list[np.ndarray]:
            g_p[:] = [g]
            return [np.zeros_like(mix)]

        trace.p = T._make(trace.p.data, [w], hand_over)
    return w, trace


def _slot_sum(out: np.ndarray, slot_rows: np.ndarray, cols: np.ndarray,
              ws: np.ndarray | None = None) -> np.ndarray:
    """Per token, the sum of its slots' rows (times ws) into out, in
    ascending expert order, as the per-expert index-adds summed them;
    cols[j] holds each token's j-th slot."""
    for col in cols:
        term = slot_rows[col]
        if ws is not None:
            term *= ws[col]
        out += term
    return out


def routed_experts(x: Tensor, mix_w: Tensor, idx: np.ndarray, experts: list[Expert],
                   shared: list[Expert] = ()) -> Tensor:
    """Grouped, dropless top-k expert bank with the shared experts, as one node.

    y[t] = sum over shared s of E_s(x[t]) + sum over j of mix_w[t, j] *
    E_{idx[t, j]}(x[t]) for x (tokens, d), with E(x) = gelu(x W_up) W_down
    and each projection adapted (adapted_forward) where it has an adapter:
    a shared expert is a slot of every token at weight 1.0, with no mixing
    gradient. Routed slots are sorted by expert once (stable, so an expert's
    rows keep ascending order), each shared expert's block of every token
    follows them, and each expert runs its 2-D matmuls and adapter terms on
    its contiguous block, writing into it; gelu runs once over all blocks.
    The forward's combine and the backward's input-gradient scatter add the
    shared experts' terms first (in x's gradient each one's projection term,
    then its adapter term, as x feeds them directly) and then, once per
    layer, each token's routed slots in ascending expert order (_slot_sum).
    Every operation and every accumulation runs in the order of the tape
    graph this node replaces (shared experts added first, then per routed
    expert: gather, adapted projections, gelu, weighted index-add), so
    outputs and gradients are bitwise equal to it, zero signs included.
    The backward returns every parent's gradient from one pass, in the
    order it computes them: x, mix_w, then every block's down projection's
    _params and every block's up projection's. A tensor that does not
    require grad gets None; a routed expert without tokens is no parent.
    """
    n_tok, k = idx.shape
    flat = idx.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sizes = np.bincount(flat, minlength=len(experts))
    rows = order // k
    # each token's sorted slot positions, ascending, so in expert order
    at = np.empty_like(order)
    at[order] = np.arange(order.size)
    cols = np.sort(at.reshape(n_tok, k), axis=1).T
    ws = mix_w.data.reshape(-1)[order][:, None]
    bank = experts + list(shared)
    if shared:   # one block of every token each, after the routed blocks
        sizes = np.append(sizes, [n_tok] * len(shared))
        rows = np.concatenate([rows, np.tile(np.arange(n_tok), len(shared))])
        ws = np.vstack([ws, np.ones((len(shared) * n_tok, 1))])
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    blocks = {e: slice(bounds[e], bounds[e + 1])
              for e in range(len(bank)) if bounds[e + 1] > bounds[e]}
    xs = x.data[rows]
    pre = np.empty((rows.size, experts[0][0][0].shape[1]))
    he = np.empty_like(xs)
    xa: dict[tuple[int, str], np.ndarray | None] = {}
    for e, b in blocks.items():
        _, xa[e, "up"] = _project(xs[b], *bank[e][0], out=pre[b])
    cdf = T.normal_cdf(pre)
    h = pre * cdf
    for e, b in blocks.items():
        _, xa[e, "down"] = _project(h[b], *bank[e][1], out=he[b])
    y = np.zeros(x.shape)
    for e in range(len(experts), len(bank)):   # the shared experts
        y += he[blocks[e]]
    _slot_sum(y, he, cols, ws)
    if not T.grad_enabled():
        return Tensor(y)

    def grad_into(out: np.ndarray, *args) -> list:
        """_project_grads, summing inp's gradient (base, then adapter term) in out."""
        terms, grads = _project_grads(*args, out=out)
        for term in terms[1:]:
            out += term
        return grads

    def backward(g: np.ndarray) -> list[np.ndarray | None]:
        gs = g[rows]
        g_mix = None
        if mix_w.requires_grad:
            gw = np.zeros(flat.size)
            gw[order] = (gs[:flat.size] * he[:flat.size]).sum(axis=1)
            g_mix = gw.reshape(n_tok, k)
        gs *= ws
        g_pre = np.empty_like(h)   # the gelu output's gradient, then pre's in place
        g_params = []   # every block's down projection's, then every up projection's
        for e, b in blocks.items():
            g_params += grad_into(g_pre[b], gs[b], h[b], *bank[e][1], xa[e, "down"], True)
        g_pre += 0.0   # as a zero-filled accumulator would: -0.0 to +0.0
        # g_h * (cdf + pre * pdf), with the gelu pdf computed only here
        slope = T.normal_pdf(pre)
        slope *= pre
        slope += cdf
        g_pre *= slope
        g_xs, g_x = (np.empty_like(xs), np.zeros(x.shape)) if x.requires_grad else (None, None)
        for e, b in blocks.items():
            args = (g_pre[b], xs[b], *bank[e][0], xa[e, "up"], g_x is not None)
            if e < len(experts) or g_x is None:
                g_params += grad_into(None if g_xs is None else g_xs[b], *args)
            else:   # a shared expert reads x: its terms go in one by one, as on the tape
                terms, grads = _project_grads(*args)
                for term in terms:
                    g_x += term
                g_params += grads
        if g_x is not None:
            g_x = _slot_sum(g_x, g_xs, cols)
        return [g_x, g_mix] + g_params

    downs = [t for e in blocks for t in _params(bank[e][1])]
    ups = [t for e in blocks for t in _params(bank[e][0])]
    return T._make(y, [x, mix_w] + downs + ups, backward)


def attention_sublayer(x: Tensor, projs: list[Projection], n_heads: int,
                       bias: np.ndarray, cache: KVCache | None, layer: int) -> Tensor:
    """x + causal multi-head attention of rmsnorm(x), as one tape node.

    projs holds wq, wk, wv and wo, each adapted as in adapted_forward
    where it has an adapter; bias is the (s, start + s) causal bias. With
    a cache (no-grad forwards only), the keys and values of the positions
    it holds come first and this layer's entry takes the new ones in.
    Every operation and every accumulation runs in the order of the tape
    graph this node replaces (rmsnorm, the q/k/v projections, split
    heads, softmax attention, merge heads, the output projection, residual
    add), on arrays of the same memory layout, so outputs and gradients
    are bitwise equal to it: the composed path in
    tests/test_attention_fused.py, whose adapted projections are
    tests/composed.py's project. The
    backward returns every parent's gradient from one pass: x's, then each
    projection's _params in projs order, None for a tensor that does not
    require grad.
    """
    bsz, s, d = x.shape
    hd = d // n_heads
    xd = x.data
    ms, scale, xn = _norm(xd)
    (wq, aq), (wk, ak), (wv, av), (wo, ao) = projs

    def heads(t: np.ndarray) -> np.ndarray:   # (B,S,D) -> (B,H,S,hd) view
        return t.reshape(bsz, s, n_heads, hd).swapaxes(1, 2)

    qp, xa_q = _project(xn, wq, aq)
    kp, xa_k = _project(xn, wk, ak)
    vp, xa_v = _project(xn, wv, av)
    q, k, v = heads(qp), heads(kp), heads(vp)
    if cache is not None:
        if cache.length:
            k_old, v_old = cache.kv[layer]
            k = np.concatenate([k_old, k], axis=2)
            v = np.concatenate([v_old, v], axis=2)
        cache.kv[layer] = (k, v)
    c_att = 1.0 / math.sqrt(hd)
    scores = (q @ k.swapaxes(-1, -2)) * c_att + bias
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    o = att @ v
    o_flat = o.swapaxes(1, 2).reshape(bsz, s, d)
    y_o, xa_o = _project(o_flat, wo, ao)
    out = xd + y_o
    if not T.grad_enabled():
        return Tensor(out)

    def merged(g_heads: np.ndarray) -> np.ndarray:
        """(B,H,S,hd) -> C-contiguous (B,S,D), the layout the tape gave it."""
        return np.ascontiguousarray(g_heads.swapaxes(1, 2)).reshape(bsz, s, d)

    def backward(g: np.ndarray) -> list[np.ndarray | None]:
        # on the tape, x or the attention's weights and adapters (trained all
        # together or not at all) need the q, k and v gradients; parameters
        # still skip their own gradients, and x's pre-norm is skipped below
        g_o_flat = np.zeros_like(o_flat)
        terms, g_wo = _project_grads(g, o_flat, wo, ao, xa_o, True)
        for term in terms:
            g_o_flat += term
        g_o = T.first_grad(g_o_flat.reshape(bsz, s, n_heads, hd).swapaxes(1, 2), o)
        g_att = g_o @ v.swapaxes(-1, -2)
        # softmax backward, then the 1/sqrt(hd) scale; the tape turned the
        # -0.0s of masked entries into +0.0 here, which only matmuls read,
        # and their sums do not keep a zero's sign
        g_s = att * (g_att - (g_att * att).sum(axis=-1, keepdims=True))
        g_s *= c_att
        g_heads = (g_s @ k, (q.swapaxes(-1, -2) @ g_s).swapaxes(-1, -2),
                   att.swapaxes(-1, -2) @ g_o)
        g_xn = np.zeros_like(xn) if x.requires_grad else None
        g_params = []   # wq's, wk's and wv's; wo's come last
        for (W, pair), xa, g_h in zip(projs, (xa_q, xa_k, xa_v), g_heads):
            terms, grads = _project_grads(merged(g_h), xn, W, pair, xa, g_xn is not None)
            for term in terms:
                g_xn += term
            g_params += grads
        g_x = None
        if g_xn is not None:
            # the residual, then rmsnorm's terms in the composed norm's order
            g_sq_x = _norm_sq_grad(g_xn, xd, ms)
            g_x = T.first_grad(g, xd)
            g_x += g_xn * scale
            g_x += g_sq_x
            g_x += g_sq_x
        return [g_x] + g_params + g_wo

    return T._make(out, [x] + [t for proj in projs for t in _params(proj)], backward)


class MoEModel:
    def __init__(self, config: ModelConfig, seed: int,
                 state: dict[str, np.ndarray] | None = None):
        """Weights drawn from the seed, or, with state, copies of its arrays
        (no draw), checked and loaded by ParamRegistry.load_state."""
        self.config = config
        self.registry = ParamRegistry()
        self.adapters: dict = {}
        if state is None:
            rng = np.random.default_rng(np.random.SeedSequence([seed]))

        def param(name: str, *shape: int) -> None:
            data = rng.normal(0.0, 0.02, size=shape) if state is None else np.empty(shape)
            self.registry.add(name, Tensor(data))

        c = config
        param("embed.tok", c.vocab, c.d_model)
        param("embed.pos", c.max_seq, c.d_model)
        # every weight of a layer, name -> (kind, layer, routed expert or None),
        # in registry order; and per layer, the names the layer loop reads:
        # (attention wq wk wv wo, router, routed (up, down)s, shared (up, down)s)
        self.sites: dict[str, tuple[str, int, int | None]] = {}
        self.layer_names: list[tuple] = []

        def site(name: str, kind: str, layer: int, expert: int | None, *shape: int) -> str:
            param(name, *shape)
            self.sites[name] = (kind, layer, expert)
            return name

        def expert(tag: str, kind: str, l: int, e: int, routed: int | None) -> tuple[str, str]:
            return (site(f"layer{l}.{tag}{e}.w_up", kind, l, routed, c.d_model, c.d_ff),
                    site(f"layer{l}.{tag}{e}.w_down", kind, l, routed, c.d_ff, c.d_model))

        for l in range(c.n_layers):
            self.layer_names.append((
                [site(f"layer{l}.attn.{p}", "attention", l, None, c.d_model, c.d_model)
                 for p in ("wq", "wk", "wv", "wo")],
                site(f"layer{l}.router.w", "gate", l, None, c.d_model, c.n_experts),
                [expert("expert", "experts", l, e, e) for e in range(c.n_experts)],
                [expert("shared", "shared", l, j, None) for j in range(c.n_shared)]))
        param("head.w", c.d_model, c.vocab)
        if state is not None:
            self.registry.load_state(state)

    # -- plumbing -----------------------------------------------------------

    def _causal_bias(self, s: int, start: int) -> np.ndarray:
        """(s, start + s) bias for queries at positions start..start+s-1."""
        return np.triu(np.full((s, start + s), -1e9), k=start + 1)

    def _projection(self, name: str) -> Projection:
        return self.registry[name].tensor, self.adapters.get(name)

    # -- public surface -----------------------------------------------------

    def _layers(self, tokens: np.ndarray, cache: KVCache | None, balance: bool,
                route_only: bool = False) -> tuple[Tensor | None, RoutingTrace]:
        """The embeddings and the layer loop over `tokens` (B, S): the
        residual stream after the last layer and the routing trace, whose
        layers carry P when balance. With route_only, the loop stops after
        the last layer's router and the stream is None."""
        c = self.config
        tokens = np.asarray(tokens)
        bsz, s = tokens.shape
        start = 0
        if cache is not None:
            if T.grad_enabled():
                raise InvariantViolation("a KV cache is outside the tape; "
                                         "forward with a cache needs no_grad")
            start = cache.length
        if start + s > c.max_seq:
            raise ConfigError(f"sequence length {start + s} > max_seq {c.max_seq}")
        tok = T.gather_rows(self.registry["embed.tok"].tensor, tokens.reshape(-1))
        pos = T.gather_rows(self.registry["embed.pos"].tensor,
                            np.arange(start, start + s))
        x = T.reshape(tok, (bsz, s, c.d_model)) + pos
        trace = RoutingTrace(c.n_experts, c.k_route, tokens=tokens.reshape(-1).copy())
        bias = self._causal_bias(s, start)
        proj = self._projection
        for layer, (attn, router, experts, shared) in enumerate(self.layer_names):
            x = attention_sublayer(x, [proj(n) for n in attn], c.n_heads, bias, cache, layer)
            xf = T.reshape(rmsnorm(x), (bsz * s, c.d_model))
            mix_w, lt = route(xf, proj(router), c.k_route, balance)
            trace.layers.append(lt)
            if route_only and layer == c.n_layers - 1:
                return None, trace
            yf = routed_experts(xf, mix_w, lt.indices,
                                *[[(proj(up), proj(down)) for up, down in bank]
                                  for bank in (experts, shared)])
            x = x + T.reshape(yf, (bsz, s, c.d_model))
        if cache is not None:
            cache.length = start + s
        return x, trace

    def forward(self, tokens: np.ndarray, want_trace: bool = False,
                cache: KVCache | None = None) -> ForwardResult:
        """Logits for `tokens` (B, S); with a cache, they are positions
        cache.length.. of sequences whose earlier positions the cache holds,
        and the cache takes them in. The trace covers `tokens` only; its
        layers carry P when lb_weight > 0. A forward without the trace
        builds no P."""
        balance = want_trace and self.config.lb_weight > 0.0
        x, trace = self._layers(tokens, cache, balance)
        logits = rmsnorm(x) @ self.registry["head.w"].tensor
        return ForwardResult(logits=logits, trace=trace if want_trace else None)

    def routing_trace(self, tokens: np.ndarray) -> RoutingTrace:
        """The routing trace of a gradient-free forward of `tokens`, without
        P. The layer loop stops at the last layer's router: that layer's
        bank, the final norm and the head do not run."""
        with T.no_grad():
            return self._layers(tokens, None, balance=False, route_only=True)[1]

    def loss(self, batch: Batch) -> LossResult:
        c = self.config
        out = self.forward(batch.tokens, want_trace=True)
        bsz, s = batch.tokens.shape
        flat_logits = T.reshape(out.logits, (bsz * s, c.vocab))
        mask = batch.loss_mask.reshape(-1)
        rows = np.where(mask)[0]
        if rows.size == 0:
            raise InvariantViolation("batch has no masked positions to score")
        logp = T.log_softmax(T.gather_rows(flat_logits, rows), axis=-1)
        picked = T.gather_pairs(logp, np.arange(rows.size),
                                batch.targets.reshape(-1)[rows])
        ce = -T.tmean(picked)
        loss, lb_value = ce, 0.0
        if c.lb_weight > 0.0:
            lb = load_balancing_loss(out.trace)
            loss, lb_value = ce + lb * c.lb_weight, lb.item()
        T.check_finite(loss, "loss")
        return LossResult(loss=loss, ce=ce.item(), lb=lb_value, trace=out.trace)

    def logits_fn(self):
        """Gradient-free (B,S)->(B,S,V) callable for greedy decoding.

        The callable keeps one KV cache. When `tokens` is a leading block
        of the rows it has consumed, equal to them in the consumed columns,
        plus new columns, it slices each layer's cached keys and values and
        its logits to that block (views) and forwards only the new columns;
        any other matrix starts a fresh cache. So a decode that grows a
        causal prefix one column at a time, dropping rows from the end as
        their answers complete, forwards each position of a row it keeps
        once. The callable is valid only while the weights do not change:
        cached keys, values and logits stay as the weights were when they
        were computed.
        """
        cache = seen = logits = None

        def fn(tokens: np.ndarray) -> np.ndarray:
            nonlocal cache, seen, logits
            tokens = np.asarray(tokens)
            n, width = tokens.shape
            # a forward that raises leaves the cache half-extended: drop it
            prev, seen = seen, None
            with T.no_grad():
                if (prev is not None and n <= prev.shape[0]
                        and width > prev.shape[1]
                        and np.array_equal(tokens[:, :prev.shape[1]], prev[:n])):
                    cache.kv = {l: (k[:n], v[:n]) for l, (k, v) in cache.kv.items()}
                    new = self.forward(tokens[:, prev.shape[1]:], cache=cache)
                    logits = np.concatenate([logits[:n], new.logits.data], axis=1)
                else:
                    cache = KVCache()
                    logits = self.forward(tokens, cache=cache).logits.data
            seen = tokens.copy()
            return logits
        return fn

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        save_checkpoint(path, self.registry.state_arrays())
        return path


def forward_backward(model: MoEModel, batch: Batch) -> LossResult:
    """The batch's loss and its backward into zeroed gradients. The
    backward consumes the step's tape, so the result pins its scalar loss
    and the trace's arrays, not the graph.

    The previous step's gradients are dropped after the forward, not
    before it: while the new tape is allocated they keep the top of the
    heap in use, so glibc does not return the consumed tape's pages to the
    OS only to fault them back in (about 20k minor faults per 10-step desk
    pretrain_base when they were dropped first)."""
    result = model.loss(batch)
    model.registry.zero_grads()
    result.loss.backward()
    return result


# -- pretraining ----------------------------------------------------------------


@dataclass
class PretrainResult:
    model: MoEModel
    losses: list[float]
    profiles: dict[str, "np.ndarray"]
    checkpoint_path: Path | None


def concat_datasets(datasets: list[Dataset]) -> Dataset:
    """Stack datasets, right-padding narrower ones to the widest row."""
    width = max(d.tokens.shape[1] for d in datasets)

    def widen(arr, fill):
        n, w = arr.shape
        if w == width:
            return arr
        pad = np.full((n, width - w), fill, dtype=arr.dtype)
        return np.concatenate([arr, pad], axis=1)

    return Dataset(
        tokens=np.concatenate([widen(d.tokens, PAD) for d in datasets]),
        targets=np.concatenate([widen(d.targets, PAD) for d in datasets]),
        loss_mask=np.concatenate([widen(d.loss_mask, False) for d in datasets]),
    )


def profile_counts(model: MoEModel, dataset: Dataset,
                   batch_size: int) -> ActivationProfile:
    """Activation profile of `dataset` from gradient-free routing passes
    (MoEModel.routing_trace).

    PAD positions are excluded by `record`: padding routes to whatever the
    balancer left room in, so counting it dilutes the task signal in
    proportion to how ragged the task's rows are. Rows run in batches of
    batch_size in order of content length (stable), each batch cut to its
    longest row: attention is causal, so no counted position reads a
    column that was cut, and the counts are those of full-width forwards.
    """
    c = model.config
    profile = ActivationProfile.empty(c.n_layers, c.n_experts)
    # a row's length: its last non-PAD position plus 1 (0 if all PAD)
    content = dataset.tokens != PAD
    lengths = np.where(content.any(axis=1),
                       content.shape[1] - content[:, ::-1].argmax(axis=1), 0)
    order = np.argsort(lengths, kind="stable")
    for lo in range(0, len(order), batch_size):
        rows = order[lo:lo + batch_size]
        width = lengths[rows[-1]]
        if width:
            record(profile, model.routing_trace(dataset.tokens[rows, :width]))
    return profile


def pretrain_base(config: ModelConfig, mixture: list[TaskSpec], steps: int,
                  seed: int, out_dir: str | Path | None = None,
                  batch_size: int = 16, lr: float = 1e-3,
                  competence_acc: float | None = None,
                  check_every: int = 500) -> PretrainResult:
    """Train a fresh model on the task mixture; emit checkpoint + per-task counts.

    With competence_acc set, steps is a cap: training stops at the first
    check_every multiple where every task's held-out accuracy beats the
    bar. Balanced training keeps redistributing tokens after the mixture
    is learned, eroding the per-task routing footprints, so the sharpest
    profiles come from stopping at competence rather than at a fixed
    step count.
    """
    if not mixture:
        raise ConfigError("pretraining mixture is empty")
    if check_every < 1:
        raise ConfigError(f"check_every must be >= 1, got {check_every}")
    trains, tests = {}, {}
    for spec in mixture:
        train, test = make_task(spec, config.max_seq)
        trains[spec.kind] = train
        tests[spec.kind] = test
    # narrow tasks are tiled by the width ratio so a short-sequence task is
    # not starved of gradient share in the mixture loss
    widths = {k: ds.tokens.shape[1] for k, ds in trains.items()}
    wmax = max(widths.values())
    parts = []
    for kind, ds in trains.items():
        parts.extend([ds] * max(1, round(wmax / widths[kind])))
    combined = concat_datasets(parts)
    model = MoEModel(config, seed)
    opt = Adam(model.registry, lr)
    epochs_needed = steps * batch_size // max(len(combined), 1) + 2
    stream = iter_batches(combined, batch_size, epochs_needed, seed)
    losses: list[float] = []
    for step in range(1, steps + 1):
        batch = next(stream)
        result = forward_backward(model, batch)
        opt.step()
        losses.append(result.loss.item())
        if (competence_acc is not None and step < steps
                and step % check_every == 0):
            fn = model.logits_fn()
            if all(evaluate(fn, te) > competence_acc for te in tests.values()):
                break
    profiles = {kind: profile_counts(model, ds, batch_size).counts
                for kind, ds in trains.items()}
    ckpt = None
    if out_dir is not None:
        ckpt = model.save(Path(out_dir) / "base.ckpt")
    return PretrainResult(model=model, losses=losses, profiles=profiles,
                          checkpoint_path=ckpt)
