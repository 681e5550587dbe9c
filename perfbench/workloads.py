"""The benchmark's workloads: set-up, one timed pass, and the pass's outputs.

Every workload uses the model of configs/default.cfg (configs/tiny.cfg at
the tiny scale the benchmark's own tests use). One --seed value becomes
the task seed, the pretrain seed and the run seed.

  pretrain                pretrain_base on the task mixture for a fixed
                          step count, writing base.ckpt.
  adapt_mod_add           run_end_to_end with the default [run] (lora,
                          layer_hot, plan_k 4) on target mod_add.
  adapt_transduce_lori_s  the same call on target transduce with scheme
                          lori_s: a lori_d donor fine-tune, then a masked
                          lori_s fine-tune.

Set-up generates the tasks and, for the two adapt workloads, builds a base
with a short fixed-step pretrain_base, saves it and loads it back.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

# Steps of one pretrain pass, and of the pretrain_base call that builds the
# adapt workloads' base during set-up.
PRETRAIN_PASS_STEPS = {"desk": 100, "tiny": 6}
BASE_STEPS = {"desk": 10, "tiny": 3}
CONFIGS = {"desk": "default.cfg", "tiny": "tiny.cfg"}


@dataclass(frozen=True)
class Workload:
    name: str
    target: str | None = None      # None: the pretrain workload
    scheme: str | None = None      # None: the config's [run] scheme


WORKLOADS = {w.name: w for w in (
    Workload("pretrain"),
    Workload("adapt_mod_add", target="mod_add"),
    Workload("adapt_transduce_lori_s", target="transduce", scheme="lori_s"),
)}


@dataclass
class Setup:
    full: object                   # hotmoe.config.FullConfig
    specs: list
    base_state: dict | None        # None for the pretrain workload
    base_digest: str | None


def load_config(hm, root: Path, scale: str, workload: Workload, seed: int):
    full = hm.config.load_config(root / "configs" / CONFIGS[scale])
    overrides = {"task.seed": str(seed), "pretrain.seed": str(seed),
                 "run.seed": str(seed)}
    if workload.target is not None:
        overrides["task.target"] = workload.target
    if workload.scheme is not None:
        overrides["run.scheme"] = workload.scheme
    full, _ = hm.config.apply_overrides(full, overrides)
    return full


def setup(hm, workload: Workload, full, scale: str, work_dir: Path) -> Setup:
    """Generate the tasks; for an adapt workload, build, save and load its base."""
    specs = full.task.specs()
    for spec in specs:
        hm.tasks.make_task(spec, full.model.max_seq)
    if workload.target is None:
        return Setup(full, specs, None, None)
    p = full.pretrain
    result = hm.model.pretrain_base(full.model, specs, BASE_STEPS[scale], p.seed,
                                    out_dir=work_dir, batch_size=p.batch_size,
                                    lr=p.lr)
    state = hm.checkpoint.load_checkpoint(result.checkpoint_path)
    return Setup(full, specs, state, digest(result.checkpoint_path))


def run_pass(hm, workload: Workload, st: Setup, scale: str, out_dir: Path):
    """The timed call: one pretrain_base or one run_end_to_end."""
    full = st.full
    if workload.target is None:
        p = full.pretrain
        return hm.model.pretrain_base(full.model, st.specs,
                                      PRETRAIN_PASS_STEPS[scale], p.seed,
                                      out_dir=out_dir, batch_size=p.batch_size,
                                      lr=p.lr)
    return hm.pipeline.run_end_to_end(full.model, st.specs, workload.target,
                                      st.base_state, full.run, out_dir=out_dir)


def outputs(hm, workload: Workload, result, out_dir: Path):
    """(outputs, artifact digests, problems) of one finished pass.

    Outputs are JSON-normal so they compare equal to a stored reference.
    Problems are checks that need no reference.
    """
    problems: list[str] = []
    if workload.target is None:
        model, ckpt = result.model, "base.ckpt"
        out = {
            "steps": len(result.losses),
            "n_params": model.registry.n_params(),
            "profiles": {k: v.tolist() for k, v in result.profiles.items()},
            "losses": {"pretrain": result.losses},
        }
        names = [ckpt]
    else:
        model, ckpt, rep = result.model, "adapted.ckpt", result.report
        out = {
            "plan": result.plan.hot,
            "acc_before": rep.acc_before,
            "acc_after": rep.acc_after,
            "steps": rep.steps,
            "params": asdict(rep.params),
            "flops": asdict(rep.flops),
            "hit_rate": rep.hit_rate,
            "losses": {"warmup": result.warmup.losses, "finetune": rep.losses},
        }
        names = ["plan.csv", "report.txt", ckpt]
        if hm.profiler.load_plan(out_dir / "plan.csv").hot != result.plan.hot:
            problems.append("plan.csv does not hold the returned plan")
    loaded = hm.checkpoint.load_checkpoint(out_dir / ckpt)
    state = model.registry.state_arrays()
    if list(loaded) != list(state) or any(
            loaded[k].tobytes() != state[k].tobytes() for k in state):
        problems.append(f"{ckpt} does not load back to the model's weights")
    artifacts = {name: digest(out_dir / name) for name in names}
    return json.loads(json.dumps(out)), artifacts, problems


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
