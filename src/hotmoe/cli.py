"""Command-line surface for the adaptation lab.

Every subcommand takes --config / --seed / --out-dir plus repeatable
--set section.key=value overrides. Artifacts written under --out-dir are
byte-deterministic for identical inputs; wall-clock metadata goes to a
separate meta.txt so report files stay comparable across runs. Failures
print one machine-parsable line to stderr:

    error category=<ErrorClass> message=<text>

with exit codes: IoError 1, ConfigError 2, InvariantViolation 3,
NumericalError 4. A stdout closed before the output is written is an
IoError.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .accounting import adapter_flops, exec_counters
from .checkpoint import load_checkpoint
from .config import FullConfig, apply_overrides, load_config, write_resolved
from .errors import (ConfigError, HotmoeError, InvariantViolation, IoError,
                     NumericalError, silence_stdout, write_file)
from .gradcheck import finite_diff_check
from .model import MoEModel, pretrain_base
from .pipeline import (ablate, ablation_runs, build_plan, cross_task_matrix,
                       finetune, run_end_to_end, run_warmup, target_splits,
                       write_rows_csv)
from .profiler import (STRATEGIES, ActivationProfile, PlacementPlan,
                       export_heatmap, load_heatmap, load_plan, save_plan)
from .tasks import Batch, make_task

EXIT_CODES = {
    "IoError": 1,
    "ConfigError": 2,
    "InvariantViolation": 3,
    "NumericalError": 4,
}

GRADCHECK_TOL = 1e-4


def _load_full(args) -> tuple[FullConfig, list[str], dict[str, np.ndarray] | None]:
    """The resolved config, the overrides applied, and the --base state if
    the command takes one and it was given, finite and checked against [model]."""
    full = load_config(args.config)
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        overrides[dotted.strip()] = raw
    if args.seed is not None:
        overrides["run.seed"] = str(args.seed)
        overrides["pretrain.seed"] = str(args.seed)
    full, applied = apply_overrides(full, overrides)
    path = getattr(args, "base", None)
    if path is None:
        return full, applied, None
    state = load_checkpoint(path)
    try:
        MoEModel(full.model, 0, state=state)
    except InvariantViolation as e:
        raise ConfigError(f"--base {path} does not fit [model]: {e}") from e
    for name, arr in state.items():
        if not np.isfinite(arr).all():
            raise ConfigError(f"--base {path} holds a non-finite value in {name}")
    return full, applied, state


def _prep_out(args, full, applied) -> Path | None:
    if args.out_dir is None:
        return None
    out = Path(args.out_dir)
    write_resolved(out / "resolved.cfg", full, applied)
    stamp = datetime.now(timezone.utc).isoformat()
    write_file(out / "meta.txt", f"timestamp={stamp}\nargv={' '.join(sys.argv[1:])}\n")
    return out


def _load_base(args) -> tuple[FullConfig, list[str], dict[str, np.ndarray]]:
    """_load_full for a command that needs --base."""
    if args.base is None:
        raise ConfigError("this command needs --base <checkpoint>")
    return _load_full(args)


def _target_splits(full):
    return target_splits({s.kind: make_task(s, full.model.max_seq)
                          for s in full.task.specs()}, full.task.target)


def _pretrain(full, out):
    p = full.pretrain
    return pretrain_base(full.model, full.task.specs(), p.steps, p.seed,
                         out_dir=out, batch_size=p.batch_size, lr=p.lr,
                         competence_acc=p.until_acc or None,
                         check_every=p.check_every)


# -- subcommands -------------------------------------------------------------


def cmd_pretrain(args) -> int:
    full, applied, _ = _load_full(args)
    if args.out_dir is None:
        raise ConfigError("pretrain needs --out-dir for the checkpoint")
    out = _prep_out(args, full, applied)
    result = _pretrain(full, out)
    rows = [{"step": i, "loss": loss} for i, loss in enumerate(result.losses)]
    if rows:
        write_rows_csv(out / "losses.csv", rows)
    for kind, counts in result.profiles.items():
        export_heatmap(ActivationProfile(counts), out / f"profile_{kind}.csv")
    final = result.losses[-1] if result.losses else float("nan")
    print(f"pretrain steps={len(result.losses)} final_loss={final!r} "
          f"ckpt={result.checkpoint_path}")
    return 0


def cmd_profile(args) -> int:
    full, applied, state = _load_base(args)
    out = _prep_out(args, full, applied)
    train, _ = _target_splits(full)
    res = run_warmup(full.model, state, train, full.run)
    if out is not None:
        export_heatmap(res.profile, out / "heatmap.csv")
    print(f"profile task={full.task.target} subset={res.subset_size} "
          f"steps={res.steps} tokens={res.profile.tokens_seen}")
    return 0


def cmd_plan(args) -> int:
    full, applied, _ = _load_full(args)
    if args.profile is None:
        raise ConfigError("plan needs --profile <heatmap.csv>")
    profile = load_heatmap(args.profile)
    got, want = profile.counts.shape, (full.model.n_layers, full.model.n_experts)
    if got != want:
        raise ConfigError(f"heatmap {args.profile} is {got[0]} layers x {got[1]} "
                          f"experts, [model] has {want[0]} x {want[1]}")
    out = _prep_out(args, full, applied)
    plan = build_plan(profile, full.run.plan_k, full.run.strategy, full.run.seed)
    if out is not None:
        save_plan(plan, out / "plan.csv")
    hot = ";".join(",".join(str(e) for e in layer) for layer in plan.hot)
    print(f"plan strategy={plan.strategy} k={plan.k} hot={hot}")
    return 0


def _plan_from_args(args, full) -> PlacementPlan | None:
    if full.run.experts != "plan":
        return None
    if args.plan is None:
        raise ConfigError("experts=plan needs --plan <plan.csv>")
    plan = load_plan(args.plan)
    plan.check_fits(full.model.n_layers, full.model.n_experts)
    return plan


def cmd_finetune(args) -> int:
    full, applied, state = _load_base(args)
    plan = _plan_from_args(args, full)
    out = _prep_out(args, full, applied)
    train, evals = _target_splits(full)
    _, report = finetune(full.model, state, train, evals, plan, full.run,
                         out_dir=out)
    print(report.format())
    return 0


def cmd_run(args) -> int:
    full, applied, state = _load_full(args)
    out = _prep_out(args, full, applied)
    if state is None:
        state = _pretrain(full, out).model.registry.state_arrays()
    res = run_end_to_end(full.model, full.task.specs(), full.task.target,
                         state, full.run, out_dir=out)
    if out is not None and res.warmup is not None:
        export_heatmap(res.warmup.profile, out / "heatmap.csv")
    print(res.report.format())
    return 0


TARGET_CHOICES = {
    "attention_only": dict(attention=True, gate=False, experts="none"),
    "gate_only": dict(attention=False, gate=True, experts="none"),
    "experts_only": dict(attention=False, gate=False, experts="plan"),
    "all_kinds": dict(attention=True, gate=True, experts="plan"),
}

# axis -> its values for a model config
ABLATION_AXES = {
    "strategy": lambda cfg: list(STRATEGIES),
    "plan_k": lambda cfg: [1 << i for i in range(cfg.n_experts.bit_length())],
    "warmup_pct": lambda cfg: [5.0, 10.0, 25.0, 50.0, 100.0],
    "targets": lambda cfg: list(TARGET_CHOICES),
}


def axis_arms(cfg, axes: list[str]) -> dict[str, dict]:
    """Arms named axis=value, one per value of each axis, in axis order."""
    return {f"{axis}={value}": TARGET_CHOICES[value] if axis == "targets"
            else {axis: value}
            for axis in axes for value in ABLATION_AXES[axis](cfg)}


def cmd_ablate(args) -> int:
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as e:
            raise ConfigError(f"--seeds expects a comma list of integers, "
                              f"got {args.seeds!r}") from e
        if any(s < 0 for s in seeds) or len(set(seeds)) < len(seeds):
            raise ConfigError(f"--seeds must be distinct and >= 0, got {args.seeds!r}")
    names = [a.strip() for a in args.axes.split(",") if a.strip()]
    if not names:
        raise ConfigError("ablate needs --axes with at least one axis")
    for i, axis in enumerate(names):
        if axis not in ABLATION_AXES or axis in names[:i]:
            raise ConfigError(f"unknown or repeated ablation axis: {axis}")
    full, applied, state = _load_base(args)
    arms = axis_arms(full.model, names)
    for _, run in ablation_runs(full.run, arms, seeds):
        replace(full, run=run)          # FullConfig checks every row
    out = _prep_out(args, full, applied)
    rows = ablate(full.model, full.task.specs(), full.task.target, state,
                  full.run, arms, seeds, out_dir=out)
    n_summary = sum(1 for r in rows if r["seed"] == "summary")
    print(f"ablate axes={','.join(names)} rows={len(rows) - n_summary} "
          f"summaries={n_summary}")
    return 0


def cmd_crosstask(args) -> int:
    full, applied, state = _load_base(args)
    out = _prep_out(args, full, applied)
    res = cross_task_matrix(full.model, full.task.specs(), state, full.run,
                            out_dir=out)
    kinds = sorted(res["acc"])
    for ev in kinds:
        cells = " ".join(f"{ad}={res['acc'][ad].get(ev, float('nan'))!r}"
                         for ad in kinds)
        print(f"crosstask eval={ev} {cells}")
    for (a, b), j in sorted(res["plan_jaccard"].items()):
        print(f"crosstask plan_jaccard {a}/{b}={j!r}")
    return 0


def cmd_flops(args) -> int:
    full, applied, state = _load_base(args)
    plan = _plan_from_args(args, full)
    out = _prep_out(args, full, applied)
    train, evals = _target_splits(full)
    model, _ = finetune(full.model, state, train, {}, plan,
                        replace(full.run, epochs=0))
    # full-width rows: adapter FLOPs are spent on PAD positions too
    routing = ActivationProfile.empty(full.model.n_layers, full.model.n_experts)
    tokens, bsz = evals[full.task.target].tokens, full.run.batch_size
    for lo in range(0, len(tokens), bsz):
        routing.counts += model.routing_trace(tokens[lo:lo + bsz]).counts
    rep = adapter_flops(routing, model)
    print(rep.format())
    if plan is not None:
        ctr = exec_counters(routing, plan)
        print(f"flops hit_rate={ctr.hit_rate!r}")
    if out is not None:
        rows = [{"forward": rep.forward_flops, "train": rep.train_flops,
                 "reduction_pct": rep.reduction_pct,
                 "expert_reduction_pct": rep.expert_reduction_pct,
                 "tokens": rep.tokens}]
        write_rows_csv(out / "flops.csv", rows)
    return 0


def cmd_gradcheck(args) -> int:
    full, applied, _ = _load_full(args)
    if args.coords < 1:
        raise ConfigError(f"--coords must be >= 1, got {args.coords}")
    _prep_out(args, full, applied)
    model = MoEModel(full.model, seed=full.run.seed)
    train, _ = _target_splits(full)
    take = min(len(train), 8)
    batch = Batch(tokens=train.tokens[:take], targets=train.targets[:take],
                  loss_mask=train.loss_mask[:take])

    def loss_fn():
        return model.loss(batch).loss

    report = finite_diff_check(loss_fn, model.registry,
                               max_coords_per_param=args.coords,
                               seed=full.run.seed)
    print(report.format())
    if not report.passes(GRADCHECK_TOL):
        raise NumericalError(
            f"max_rel_err {report.max_rel_err:.3e} >= {GRADCHECK_TOL:g}")
    return 0


def cmd_report(args) -> int:
    """Closed-form parameter table for every scheme x placement combination."""
    full, applied, _ = _load_full(args)
    out = _prep_out(args, full, applied)
    cfg = full.model
    k = full.run.plan_k
    plan = PlacementPlan(hot=[list(range(k))] * cfg.n_layers, k=k,
                         strategy="layer_hot")
    base = MoEModel(cfg, seed=0).registry.state_arrays()
    train, _ = _target_splits(full)
    rows = []
    for scheme_name in ("lora", "lori_d", "lori_s"):
        for placement, experts, p in (("all", "all", None), (f"plan_k{k}", "plan", plan)):
            run = replace(full.run, scheme=scheme_name, experts=experts, epochs=0)
            _, ft = finetune(cfg, base, train, {}, p, run)
            rep = ft.params
            rows.append({"scheme": scheme_name, "placement": placement,
                         "trainable": rep.trainable, "fraction": rep.fraction,
                         **{f"target_{t}": n for t, n in sorted(rep.per_target.items())}})
            print(f"report scheme={scheme_name} placement={placement} "
                  f"trainable={rep.trainable} fraction={rep.fraction!r}")
    if out is not None:
        write_rows_csv(out / "params.csv", rows)
    return 0


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hotmoe",
        description="activation-profiled adapter placement for a toy MoE")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, base=False, plan=False):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override run and pretrain seeds")
        p.add_argument("--out-dir", default=None, help="artifact directory")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        if base:
            p.add_argument("--base", default=None, help="base model checkpoint")
        if plan:
            p.add_argument("--plan", default=None, help="plan csv file")

    p = sub.add_parser("pretrain", help="train a base model on the task mixture")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("profile", help="warm-up activation profile for the target task")
    common(p, base=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("plan", help="select hot experts from a saved profile")
    common(p)
    p.add_argument("--profile", default=None, help="heatmap csv from profiling")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("finetune", help="adapt a base checkpoint on the target task")
    common(p, base=True, plan=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("run", help="pretrain (or load), profile, plan, adapt")
    common(p, base=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("ablate", help="axis=value arms around the configured run")
    common(p, base=True)
    p.add_argument("--axes", default="strategy",
                   help=f"comma list: {','.join(ABLATION_AXES)}")
    p.add_argument("--seeds", default=None, help="comma list of seeds")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("crosstask", help="adapt per task, evaluate on all tasks")
    common(p, base=True)
    p.set_defaults(func=cmd_crosstask)

    p = sub.add_parser("flops", help="adapter FLOPs accounting on the test split")
    common(p, base=True, plan=True)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    common(p)
    p.add_argument("--coords", type=int, default=3,
                   help="coordinates sampled per parameter")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="parameter accounting for all schemes")
    common(p)
    p.set_defaults(func=cmd_report)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):    # divergence is the loss's NumericalError
            code = args.func(args)
        sys.stdout.flush()      # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError as e:
        error = IoError(f"cannot write to stdout: {e}")
    except HotmoeError as e:
        error = e
    message = " ".join(str(error).splitlines())
    print(f"error category={type(error).__name__} message={message}",
          file=sys.stderr)
    return EXIT_CODES.get(type(error).__name__, 1)


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        silence_stdout()
    sys.exit(code)


if __name__ == "__main__":
    entry()
