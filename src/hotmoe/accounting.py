"""Trainable-parameter and adapter-FLOPs accounting.

Parameter counts have scheme-specific closed forms (lora r(d_in+d_out),
lori_d r*d_out, lori_s mask popcount) that must agree exactly with the
registry enumeration. FLOPs use 1 MAC = 2 FLOPs, so one adapter execution
on one token costs 2*r*(d_in+d_out); training costs exactly 3x forward.
Backbone FLOPs are excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, InvariantViolation


def closed_form_pair_params(pair) -> int:
    d_in, d_out = pair.A.shape[0], pair.B.shape[1]
    if pair.scheme == "lora":
        return pair.r * (d_in + d_out)
    if pair.scheme == "lori_d":
        return pair.r * d_out
    return int(pair.mask.sum())  # lori_s: ceil(rho*numel) by build_mask's contract


@dataclass
class ParamReport:
    base_total: int
    trainable: int
    fraction: float
    per_target: dict[str, int] = field(default_factory=dict)
    closed_form: int = 0

    def format(self) -> str:
        parts = [f"base={self.base_total}", f"trainable={self.trainable}",
                 f"fraction={self.fraction:.6f}"]
        parts += [f"{k}={v}" for k, v in sorted(self.per_target.items())]
        return " ".join(parts)


def count_params(model) -> ParamReport:
    """Adapter-trainable counts, cross-checked closed form vs registry. The
    adapter tensors are the ones the pairs own: A and B."""
    owned = {id(t) for pair in model.adapters.values() for t in (pair.A, pair.B)}
    base_total = 0
    registry_trainable = 0
    for _, entry in model.registry.items():
        if id(entry.tensor) in owned:
            registry_trainable += entry.n_trainable
        else:
            base_total += entry.tensor.size
    per_target: dict[str, int] = {}
    closed = 0
    for pair in model.adapters.values():
        n = closed_form_pair_params(pair)
        closed += n
        per_target[pair.kind] = per_target.get(pair.kind, 0) + n
    if model.adapters and registry_trainable and closed != registry_trainable:
        raise InvariantViolation(
            f"closed-form count {closed} != registry enumeration {registry_trainable}")
    return ParamReport(base_total=base_total, trainable=registry_trainable,
                       fraction=registry_trainable / base_total,
                       per_target=per_target, closed_form=closed)


@dataclass
class FlopsReport:
    forward_flops: int
    train_flops: int
    attention_gate_flops: int
    expert_flops: int          # routed experts under the attached placement
    shared_flops: int
    baseline_forward_flops: int    # same trace, experts=all
    baseline_expert_flops: int
    exec_per_layer: list[int]      # routed-expert adapter executions per layer
    reduction_pct: float           # vs the full-LoRA baseline, total
    expert_reduction_pct: float    # expert targets only
    tokens: int

    def format(self) -> str:
        return (f"forward={self.forward_flops} train={self.train_flops} "
                f"reduction={self.reduction_pct:.2f}% "
                f"expert_reduction={self.expert_reduction_pct:.2f}% "
                f"tokens={self.tokens}")


def _exec_cost(pair) -> int:
    return 2 * pair.r * (pair.A.shape[0] + pair.B.shape[1])


def adapter_flops(routing, model) -> FlopsReport:
    """Cost the adapter executions in `routing.counts` (one forward's trace, or
    a profile summed over many); re-cost under experts=all as baseline."""
    cfg = model.config
    counts = routing.counts
    if counts.shape != (cfg.n_layers, cfg.n_experts):
        raise ConfigError(f"routing counts have shape {counts.shape}, "
                          f"model ({cfg.n_layers}, {cfg.n_experts})")
    sums = counts.sum(axis=1)
    tokens, rest = divmod(int(sums[0]), cfg.k_route)
    if rest or (sums != sums[0]).any():
        raise InvariantViolation(f"count sums {sums.tolist()} != tokens*{cfg.k_route}")

    attn_gate = 0
    shared = 0
    routed = []
    for pair in model.adapters.values():
        if pair.kind in ("attention", "gate"):
            attn_gate += tokens * _exec_cost(pair)
        elif pair.kind == "shared":
            shared += tokens * _exec_cost(pair)
        else:
            routed.append(pair)
    expert = sum(int(counts[p.layer, p.expert]) * _exec_cost(p) for p in routed)
    exec_per_layer = [0] * cfg.n_layers
    for layer, e in {(p.layer, p.expert) for p in routed}:
        exec_per_layer[layer] += int(counts[layer, e])
    # baseline re-costs every routed selection as if adapted, at the cost of
    # one adapted expert's projections (all experts share dims). No expert
    # adapters at all -> baseline == actual.
    baseline_expert = 0
    if routed:
        site = (routed[0].layer, routed[0].expert)
        unit = sum(_exec_cost(p) for p in routed if (p.layer, p.expert) == site)
        baseline_expert = int(counts.sum()) * unit
    forward = attn_gate + expert + shared
    baseline_forward = attn_gate + baseline_expert + shared
    reduction = 0.0
    if baseline_forward > 0:
        reduction = 100.0 * (1.0 - forward / baseline_forward)
    expert_reduction = 0.0
    if baseline_expert > 0:
        expert_reduction = 100.0 * (1.0 - expert / baseline_expert)
    # 100 is reachable: no attention, gate or shared adapter, and no planned
    # expert ever selected
    if not 0.0 <= reduction <= 100.0:
        raise InvariantViolation(f"reduction out of [0,100]: {reduction}")
    return FlopsReport(
        forward_flops=forward, train_flops=3 * forward,
        attention_gate_flops=attn_gate, expert_flops=expert, shared_flops=shared,
        baseline_forward_flops=baseline_forward,
        baseline_expert_flops=baseline_expert,
        exec_per_layer=exec_per_layer,
        reduction_pct=reduction, expert_reduction_pct=expert_reduction,
        tokens=tokens)


@dataclass
class ExecCounters:
    per_layer: list[tuple[int, int]]   # (activated-and-hot, activated)

    @property
    def hit_rate(self) -> float:
        total = sum(a for _, a in self.per_layer)
        hits = sum(h for h, _ in self.per_layer)
        return hits / total if total else 0.0


def exec_counters(routing, plan) -> ExecCounters:
    """Per-layer routed-selection hit counts against the plan's hot sets."""
    return ExecCounters(per_layer=[(int(row[plan.hot[l]].sum()), int(row.sum()))
                                   for l, row in enumerate(routing.counts)])
