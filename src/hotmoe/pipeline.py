"""End-to-end adaptation runs: warm-up profiling, plan selection, fine-tuning.

The warm-up is a short fine-tune: an all-targets LoRA run on a small
seeded subset of the task, whose profile records which routed experts
fire over the whole trajectory. That profile drives hot expert selection;
the warm model itself is discarded. Fine-tuning then attaches fresh
zero-update adapters per the chosen scheme and plan on an unmodified base
copy. Frozen weights are hashed before and after every fine-tune, and a
lori_s B must stay zero off its mask, so drift in anything frozen is a
hard error, not a silent accuracy bug. run_end_to_end, ablate and
cross_task_matrix all run this warm-up -> plan -> fine-tune path on a Grid.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from .accounting import (FlopsReport, ParamReport, adapter_flops, count_params,
                         exec_counters)
from .adapters import Scheme, TargetSet, attach, build_mask, set_trainability
from .errors import ConfigError, InvariantViolation, write_file
from .model import ModelConfig, MoEModel, forward_backward, profile_counts
from .optim import Adam
from .profiler import (STRATEGIES, ActivationProfile, PlacementPlan, coverage,
                       jaccard, record, save_plan, select)
from .tasks import (Dataset, TaskSpec, evaluate, iter_batches, make_task,
                    n_steps, subset)


@dataclass(frozen=True)
class RunConfig:
    scheme: str = "lora"
    attention: bool = True
    gate: bool = True
    experts: str = "plan"          # all | plan | none
    rank: int = 4
    alpha: float = 8.0
    rho: float = 0.10
    strategy: str = "layer_hot"
    plan_k: int = 4                # <= n_experts is FullConfig's check
    warmup_pct: float = 25.0       # share of the train split used for warm-up
    warmup_forward_only: bool = False
    epochs: int = 3
    batch_size: int = 16
    lr: float = 4e-3
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"run seed must be >= 0: {self.seed}")
        if not 0.0 < self.warmup_pct <= 100.0:
            raise ConfigError(f"warmup_pct out of (0,100]: {self.warmup_pct}")
        if self.plan_k < 1:
            raise ConfigError(f"plan_k must be >= 1, got {self.plan_k}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy: {self.strategy}")
        if self.rank < 1:
            raise ConfigError(f"rank must be >= 1, got {self.rank}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # alpha = 0 zeroes every adapter gradient; nan and inf diverge
        for name, value in (("alpha", self.alpha), ("lr", self.lr)):
            if not 0.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        Scheme(self.scheme, self.rho)              # name/rho checks
        self.target_set()

    def target_set(self) -> TargetSet:
        return TargetSet(self.attention, self.gate, self.experts)


def target_splits(splits: dict[str, tuple[Dataset, Dataset]],
                  target_kind: str) -> tuple[Dataset, dict[str, Dataset]]:
    """The target task's train split, and every task's test split by kind."""
    if target_kind not in splits:
        raise ConfigError(f"target task {target_kind} not in mixture {sorted(splits)}")
    return splits[target_kind][0], {kind: test for kind, (_, test) in splits.items()}


def clone_model(cfg: ModelConfig, base_state: dict[str, np.ndarray]) -> MoEModel:
    return MoEModel(cfg, seed=0, state=base_state)


def frozen_param_hashes(model: MoEModel) -> dict[str, str]:
    """SHA-256 of every frozen tensor, a frozen adapter A included, keyed by name."""
    return {name: hashlib.sha256(entry.tensor.data.tobytes()).hexdigest()
            for name, entry in model.registry.items() if not entry.trainable}


def check_frozen_integrity(model: MoEModel, before: dict[str, str]) -> None:
    """Frozen tensors hash as before; a masked B is still zero off its mask."""
    after = frozen_param_hashes(model)
    for name, digest in before.items():
        if after.get(name) != digest:
            raise InvariantViolation(f"frozen parameter {name} changed during training")
    for target, pair in model.adapters.items():
        if pair.mask is not None and pair.B.data[~pair.mask].any():
            raise InvariantViolation(f"adapter B on {target} moved off its mask")


def masks_from_donor(model: MoEModel, rho: float) -> dict[str, np.ndarray]:
    """Sparsity masks for a second-phase run, from a dense-phase model's B tensors."""
    if not model.adapters:
        raise ConfigError("donor model has no adapters to derive masks from")
    return {name: build_mask(pair.B.data, rho)
            for name, pair in model.adapters.items()}


# -- warm-up -----------------------------------------------------------------


@dataclass
class WarmupResult:
    profile: ActivationProfile
    subset_size: int
    steps: int
    losses: list[float] = field(default_factory=list)


def warmup_run(run: RunConfig) -> RunConfig:
    """The one-epoch fine-tune that run's warm-up trains, with the fields it
    does not read (strategy, plan_k, rho) at their defaults: the warm-up
    memo's key. A forward-only warm-up trains nothing and reads only
    warmup_pct, seed and batch_size."""
    if run.warmup_forward_only:
        return RunConfig(warmup_pct=run.warmup_pct, seed=run.seed,
                         batch_size=run.batch_size, warmup_forward_only=True)
    return replace(run, scheme="lora", attention=True, gate=True, experts="all",
                   epochs=1, strategy=RunConfig.strategy,
                   plan_k=RunConfig.plan_k, rho=RunConfig.rho)


def run_warmup(cfg: ModelConfig, base_state: dict[str, np.ndarray],
               train: Dataset, run: RunConfig) -> WarmupResult:
    """Profile expert activations on a seeded task subset.

    The warm-up fine-tunes warmup_run(run), all-targets LoRA (all experts,
    attention, gate), and its profile counts every step of the trajectory,
    so it reflects adaptation dynamics, not just the frozen router. With
    warmup_forward_only it is one routing pass of the bare base instead
    (profile_counts): zero-init adapters would leave every forward
    bitwise unchanged.
    """
    run = warmup_run(run)
    sub = subset(train, run.warmup_pct, run.seed)
    if run.warmup_forward_only:
        profile = profile_counts(clone_model(cfg, base_state), sub, run.batch_size)
        steps, losses = n_steps(len(sub), run.batch_size, 1), []
    else:
        _, rep = finetune(cfg, base_state, sub, {}, None, run)
        profile, steps, losses = rep.profile, rep.steps, rep.losses
    profile.check_conservation(cfg.k_route)
    return WarmupResult(profile=profile, subset_size=len(sub), steps=steps,
                        losses=losses)


def build_plan(profile: ActivationProfile, k: int, strategy: str,
               seed: int | None = None) -> PlacementPlan:
    return select(profile, k, strategy, seed)


# -- fine-tuning ---------------------------------------------------------------


@dataclass
class TrainReport:
    scheme: str
    strategy: str
    plan: PlacementPlan | None
    acc_before: dict[str, float]
    acc_after: dict[str, float]
    losses: list[float]
    params: ParamReport
    flops: FlopsReport | None
    hit_rate: float | None
    steps: int
    profile: ActivationProfile     # routing of every training step, PAD skipped

    def format(self) -> str:
        lines = [f"scheme={self.scheme} strategy={self.strategy} steps={self.steps}"]
        for task in sorted(self.acc_before):
            lines.append(
                f"task={task} before={self.acc_before[task]!r} "
                f"after={self.acc_after[task]!r}")
        lines.append(self.params.format())
        if self.flops is not None:
            lines.append(self.flops.format())
        if self.hit_rate is not None:
            lines.append(f"hit_rate={self.hit_rate!r}")
        return "\n".join(lines)


def finetune(cfg: ModelConfig, base_state: dict[str, np.ndarray], train: Dataset,
             evals: dict[str, Dataset], plan: PlacementPlan | None,
             run: RunConfig, masks: dict[str, np.ndarray] | None = None,
             out_dir: str | Path | None = None) -> tuple[MoEModel, TrainReport]:
    """Adapt a fresh copy of the base model on one task, with full accounting.
    The copy has lb_weight 0, so its loss is the cross-entropy alone.

    A lori_s run without `masks` first fine-tunes a lori_d donor with the
    same run and plan, and trains under masks_from_donor of it. With
    run.epochs == 0 the donor is untrained, which is enough wherever only
    mask sizes matter.
    """
    if run.scheme == "lori_s" and masks is None:
        # the donor is not bound to a name, so it is freed before the clone
        masks = masks_from_donor(finetune(cfg, base_state, train, {}, plan,
                                          replace(run, scheme="lori_d"))[0],
                                 run.rho)
    model = clone_model(replace(cfg, lb_weight=0.0), base_state)
    # zero-init adapters leave every logit bitwise unchanged (ac09)
    acc_before = {k: evaluate(model.logits_fn(), ds) for k, ds in evals.items()}
    scheme = Scheme(run.scheme, run.rho)
    attach(model, run.target_set(), plan, scheme, r=run.rank, alpha=run.alpha,
           seed=run.seed, masks=masks)
    set_trainability(model, scheme)
    frozen_before = frozen_param_hashes(model)

    opt = Adam(model.registry, run.lr)
    losses: list[float] = []
    profile = ActivationProfile.empty(cfg.n_layers, cfg.n_experts)
    routing = ActivationProfile.empty(cfg.n_layers, cfg.n_experts)  # PAD included
    for batch in iter_batches(train, run.batch_size, run.epochs, run.seed):
        result = forward_backward(model, batch)
        opt.step()
        losses.append(result.loss.item())
        record(profile, result.trace)
        routing.counts += result.trace.counts
    steps = len(losses)
    expected = n_steps(len(train), run.batch_size, run.epochs)
    if steps != expected:
        raise InvariantViolation(f"fine-tune ran {steps} steps, expected {expected}")

    check_frozen_integrity(model, frozen_before)
    acc_after = {k: evaluate(model.logits_fn(), ds) for k, ds in evals.items()}

    flops = None
    hit_rate = None
    if steps:
        flops = adapter_flops(routing, model)
        if plan is not None:
            hit_rate = exec_counters(routing, plan).hit_rate
    report = TrainReport(scheme=run.scheme,
                         strategy=run.strategy if plan is None else plan.strategy,
                         plan=plan, acc_before=acc_before, acc_after=acc_after,
                         losses=losses, params=count_params(model),
                         flops=flops, hit_rate=hit_rate, steps=steps,
                         profile=profile)
    if out_dir is not None:
        model.save(Path(out_dir) / "adapted.ckpt")
        write_file(Path(out_dir) / "report.txt", report.format() + "\n")
    return model, report


# -- orchestration ---------------------------------------------------------------


@dataclass
class EndToEndResult:
    plan: PlacementPlan | None
    warmup: WarmupResult | None
    report: TrainReport
    model: MoEModel


class Grid:
    """Runs on one model, task mixture and base: every task's splits are built
    once, and runs with equal (target, warmup_run(run)) share one WarmupResult."""

    def __init__(self, cfg: ModelConfig, specs: list[TaskSpec],
                 base_state: dict[str, np.ndarray]):
        self.cfg, self.base_state = cfg, base_state
        self.splits = {s.kind: make_task(s, cfg.max_seq) for s in specs}
        self.warmups: dict[tuple[str, RunConfig], WarmupResult] = {}

    def plan(self, target_kind: str, run: RunConfig) -> tuple[
            WarmupResult | None, PlacementPlan | None]:
        """The run's warm-up and plan; (None, None) unless experts == "plan"."""
        if run.experts != "plan":
            return None, None
        key = (target_kind, warmup_run(run))
        if key not in self.warmups:
            train, _ = target_splits(self.splits, target_kind)
            self.warmups[key] = run_warmup(self.cfg, self.base_state, train, run)
        warmup = self.warmups[key]
        return warmup, build_plan(warmup.profile, run.plan_k, run.strategy, run.seed)

    def run(self, target_kind: str, run: RunConfig,
            out_dir: str | Path | None = None) -> EndToEndResult:
        """Warm-up, plan, adapt on one task; evaluate on every task's test split."""
        train, evals = target_splits(self.splits, target_kind)
        warmup, plan = self.plan(target_kind, run)
        model, report = finetune(self.cfg, self.base_state, train, evals, plan,
                                 run, out_dir=out_dir)
        if out_dir is not None and plan is not None:
            save_plan(plan, Path(out_dir) / "plan.csv")
        return EndToEndResult(plan=plan, warmup=warmup, report=report, model=model)


def run_end_to_end(cfg: ModelConfig, specs: list[TaskSpec], target_kind: str,
                   base_state: dict[str, np.ndarray], run: RunConfig,
                   out_dir: str | Path | None = None) -> EndToEndResult:
    """One Grid.run on a fresh grid."""
    return Grid(cfg, specs, base_state).run(target_kind, run, out_dir)


# -- ablations ---------------------------------------------------------------


def ablation_runs(run: RunConfig, arms: dict[str, dict],
                  seeds: list[int] | None = None) -> list[tuple[str, RunConfig]]:
    """(arm, replace(run, seed=seed, **arms[arm])) of each ablation row, in
    arm order, then seed order. An arm sets [run] fields other than seed."""
    if not arms:
        raise ConfigError("ablate needs at least one arm")
    settable = {f.name for f in fields(RunConfig)} - {"seed"}
    for name, overrides in arms.items():
        if not set(overrides) <= settable:
            raise ConfigError(f"arm {name} sets {sorted(set(overrides) - settable)}, "
                              f"not a [run] field other than seed")
    return [(name, replace(run, seed=seed, **overrides))
            for name, overrides in arms.items()
            for seed in ([run.seed] if seeds is None else seeds)]


def ablate(cfg: ModelConfig, specs: list[TaskSpec], target_kind: str,
           base_state: dict[str, np.ndarray], run: RunConfig,
           arms: dict[str, dict], seeds: list[int] | None = None,
           out_dir: str | Path | None = None) -> list[dict]:
    """Each arm (a name and the RunConfig fields it overrides) under every seed.

    The rows of ablation_runs run on one Grid, so rows with equal warmup_run
    share a warm-up. An arm that sets warmup_pct also reports plan agreement
    against the same row's plan at warmup_pct 100.
    """
    grid = Grid(cfg, specs, base_state)
    rows: list[dict] = []
    for name, r in ablation_runs(run, arms, seeds):
        rep = grid.run(target_kind, r).report
        row = {"arm": name, "seed": r.seed, "task": target_kind}
        if "warmup_pct" in arms[name] and rep.plan is not None:
            _, full = grid.plan(target_kind, replace(r, warmup_pct=100.0))
            row["jaccard_vs_full"] = jaccard(rep.plan, full)[1]
            row["coverage_pct"] = coverage(rep.plan, full)
        row.update(acc_before=rep.acc_before[target_kind],
                   acc_after=rep.acc_after[target_kind],
                   delta=rep.acc_after[target_kind] - rep.acc_before[target_kind],
                   trainable=rep.params.trainable,
                   fraction=rep.params.fraction)
        if rep.flops is not None:
            row["reduction_pct"] = rep.flops.reduction_pct
        if rep.hit_rate is not None:
            row["hit_rate"] = rep.hit_rate
        rows.append(row)

    summary = _summarize(rows)
    if out_dir is not None:
        write_rows_csv(Path(out_dir) / "ablation.csv", rows + summary)
        write_rows_markdown(Path(out_dir) / "ablation.md", rows + summary)
    return rows + summary


def _summarize(rows: list[dict]) -> list[dict]:
    """Mean/std of acc_after per arm, emitted as summary rows."""
    groups: dict[str, list[float]] = {}
    for row in rows:
        groups.setdefault(row["arm"], []).append(row["acc_after"])
    out = []
    for arm, accs in groups.items():
        out.append({"arm": arm, "seed": "summary", "task": rows[0]["task"],
                    "acc_after": float(np.mean(accs)),
                    "acc_std": float(np.std(accs)),
                    "n": len(accs)})
    return out


def _columns(rows: list[dict]) -> list[str]:
    """Every key of every row, in first-seen order."""
    if not rows:
        raise ConfigError("no rows to write")
    cols: list[str] = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def write_rows_csv(path: str | Path, rows: list[dict]) -> None:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=_columns(rows), restval="")
    w.writeheader()
    for row in rows:
        w.writerow({k: _fmt_cell(v) for k, v in row.items()})
    write_file(path, buf.getvalue())


def write_rows_markdown(path: str | Path, rows: list[dict]) -> None:
    cols = _columns(rows)
    lines = ["| " + " | ".join(cols) + " |",
             "| " + " | ".join("---" for _ in cols) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt_cell(row.get(k, "")) for k in cols) + " |")
    write_file(path, "\n".join(lines) + "\n")


def _fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


# -- cross-task transfer ---------------------------------------------------------


def cross_task_matrix(cfg: ModelConfig, specs: list[TaskSpec],
                      base_state: dict[str, np.ndarray], run: RunConfig,
                      out_dir: str | Path | None = None) -> dict:
    """Adapt per task on one Grid, evaluate on all tasks; compare plans.

    Returns {"acc": {adapt_task: {eval_task: acc}}, "plans": {task: plan},
    "plan_jaccard": {(a, b): mean}} with adapt tasks as columns.
    """
    grid = Grid(cfg, specs, base_state)
    acc: dict[str, dict[str, float]] = {}
    plans: dict[str, PlacementPlan] = {}
    for spec in specs:
        res = grid.run(spec.kind, run)
        acc[spec.kind] = res.report.acc_after
        if res.plan is not None:
            plans[spec.kind] = res.plan
    plan_j: dict[tuple[str, str], float] = {}
    kinds = [s.kind for s in specs]
    for a, b in combinations(kinds, 2):
        if a in plans and b in plans:
            plan_j[(a, b)] = jaccard(plans[a], plans[b])[1]
    if out_dir is not None:
        rows = []
        for ev in kinds:
            row = {"eval_task": ev}
            for ad in kinds:
                row[f"adapted_on_{ad}"] = acc[ad].get(ev, float("nan"))
            rows.append(row)
        write_rows_csv(Path(out_dir) / "cross_task.csv", rows)
    return {"acc": acc, "plans": plans, "plan_jaccard": plan_j}

