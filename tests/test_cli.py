"""Command-line behavior: artifacts, determinism, error lines, exit codes."""

import csv
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hotmoe import tensor as T
from hotmoe.checkpoint import load_checkpoint, save_checkpoint
from hotmoe.adapters import EXPERT_MODES
from hotmoe.cli import ABLATION_AXES, TARGET_CHOICES, axis_arms, main
from hotmoe.config import load_config
from hotmoe.model import MoEModel, RoutingTrace
from hotmoe.profiler import load_heatmap, load_plan

CFG = "configs/tiny.cfg"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def base_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_base")
    code = main(["pretrain", "--config", CFG, "--set", "pretrain.steps=12",
                 "--out-dir", str(out)])
    assert code == 0
    return out


def test_pretrain_artifacts(base_dir):
    assert (base_dir / "base.ckpt").exists()
    losses = (base_dir / "losses.csv").read_text().splitlines()
    assert losses[0] == "step,loss"
    assert len(losses) == 13
    assert (base_dir / "profile_mod_add.csv").exists()
    assert (base_dir / "meta.txt").read_text().startswith("timestamp=")


def test_pretrain_requires_out_dir(capsys):
    code = main(["pretrain", "--config", CFG])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error category=ConfigError message=")


def test_resolved_config_records_overrides(base_dir):
    text = (base_dir / "resolved.cfg").read_text()
    assert "# override: pretrain.steps=12" in text
    assert "steps = 12" in text


def test_resolved_config_loads_back(base_dir, tmp_path):
    # the resolved file is itself a valid config
    full = load_config(base_dir / "resolved.cfg")
    assert full.pretrain.steps == 12
    assert full.model.n_experts == 4


def test_profile_writes_conserving_heatmap(base_dir, tmp_path):
    code = main(["profile", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--out-dir", str(tmp_path)])
    assert code == 0
    prof = load_heatmap(tmp_path / "heatmap.csv", k_route=2)
    prof.check_conservation(2)


def test_profile_forward_only(base_dir, tmp_path, capsys):
    base = ["profile", "--config", CFG, "--base", str(base_dir / "base.ckpt")]
    heatmaps = []
    for tag in ("a", "b"):
        capsys.readouterr()
        assert main([*base, "--set", "run.warmup_forward_only=true",
                     "--out-dir", str(tmp_path / tag)]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("profile task=mod_add ")
        printed = dict(field.split("=") for field in line.split()[1:])
        heatmaps.append((tmp_path / tag / "heatmap.csv").read_bytes())
    full = load_config(CFG)
    # one epoch over the warm-up subset, PAD positions skipped
    assert int(printed["steps"]) == -(-int(printed["subset"]) // full.run.batch_size)
    counts = load_heatmap(tmp_path / "a" / "heatmap.csv").counts
    assert (counts.sum(axis=1) == int(printed["tokens"]) * full.model.k_route).all()
    assert heatmaps[0] == heatmaps[1]
    # the resolved config records the forward-only warm-up it ran
    resolved = (tmp_path / "a" / "resolved.cfg").read_text().splitlines()
    assert "warmup_forward_only = true" in resolved


def test_plan_needs_profile_flag(capsys):
    assert main(["plan", "--config", CFG]) == 2
    assert "category=ConfigError" in capsys.readouterr().err


def test_plan_round_trip(base_dir, tmp_path):
    main(["profile", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
          "--out-dir", str(tmp_path)])
    code = main(["plan", "--config", CFG, "--profile",
                 str(tmp_path / "heatmap.csv"), "--out-dir", str(tmp_path)])
    assert code == 0
    plan = load_plan(tmp_path / "plan.csv")
    assert plan.k == 2 and plan.strategy == "layer_hot"


def _plan(base_dir, prof):
    """Profile the base and select a plan into prof; returns the plan path."""
    main(["profile", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
          "--out-dir", str(prof)])
    main(["plan", "--config", CFG, "--profile", str(prof / "heatmap.csv"),
          "--out-dir", str(prof)])
    return prof / "plan.csv"


def _finetune(base_dir, tmp_path, tag, extra=()):
    plan = _plan(base_dir, tmp_path / f"prof_{tag}")
    out = tmp_path / f"ft_{tag}"
    code = main(["finetune", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--plan", str(plan),
                 "--out-dir", str(out), *extra])
    assert code == 0
    return out


def test_finetune_report_bytes_reproducible(base_dir, tmp_path):
    a = _finetune(base_dir, tmp_path, "a")
    b = _finetune(base_dir, tmp_path, "b")
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
    assert (a / "adapted.ckpt").read_bytes() == (b / "adapted.ckpt").read_bytes()
    assert (a / "resolved.cfg").read_bytes() == (b / "resolved.cfg").read_bytes()


def test_seed_flag_changes_adapters(base_dir, tmp_path):
    a = _finetune(base_dir, tmp_path, "s0", extra=["--seed", "0"])
    b = _finetune(base_dir, tmp_path, "s1", extra=["--seed", "1"])
    assert (a / "adapted.ckpt").read_bytes() != (b / "adapted.ckpt").read_bytes()


def test_finetune_lori_s_via_flag(base_dir, tmp_path):
    out = _finetune(base_dir, tmp_path, "ls", extra=["--set", "run.scheme=lori_s"])
    assert "scheme=lori_s" in (out / "report.txt").read_text()


def test_finetune_report_names_the_plan_strategy(base_dir, tmp_path):
    prof = tmp_path / "prof"
    _plan(base_dir, prof)
    assert main(["plan", "--config", CFG, "--profile", str(prof / "heatmap.csv"),
                 "--set", "run.strategy=cold", "--set", "run.plan_k=1",
                 "--out-dir", str(prof)]) == 0
    out = tmp_path / "ft"
    assert main(["finetune", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
                 "--plan", str(prof / "plan.csv"), "--out-dir", str(out)]) == 0
    head = (out / "report.txt").read_text().splitlines()[0]
    assert head.startswith("scheme=lora strategy=cold ")


def test_run_pretrains_when_no_base(tmp_path, capsys):
    code = main(["run", "--config", CFG, "--set", "pretrain.steps=6",
                 "--set", "run.epochs=1", "--out-dir", str(tmp_path)])
    assert code == 0
    for name in ("base.ckpt", "adapted.ckpt", "plan.csv", "heatmap.csv",
                 "report.txt", "resolved.cfg"):
        assert (tmp_path / name).exists(), name
    outl = capsys.readouterr().out
    assert "task=mod_add" in outl


def test_run_pretrains_like_pretrain(tmp_path):
    # run without --base must honour the competence stop exactly as
    # pretrain does; at these settings training stops at step 5 of 60
    stop = ["--set", "pretrain.until_acc=0.01", "--set", "pretrain.check_every=5"]
    assert main(["pretrain", "--config", CFG, *stop,
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", CFG, *stop, "--set", "run.epochs=1",
                 "--out-dir", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "base.ckpt").read_bytes()
            == (tmp_path / "b" / "base.ckpt").read_bytes())


@pytest.mark.parametrize("args", [
    ["profile", "--set", "run.warmup_forward_only=true"],
    ["flops", "--set", "run.experts=all"],
    ["run", "--set", "run.epochs=1"],
], ids=["profile", "flops", "run"])
def test_base_commands_draw_no_random_init(args, base_dir, monkeypatch):
    # --base is checked against [model] by loading it into a model built
    # from the state, and every later copy is built from the state too
    init = MoEModel.__init__
    draws = []

    def counting(self, config, seed, state=None):
        if state is None:
            draws.append(seed)
        init(self, config, seed, state)

    monkeypatch.setattr(MoEModel, "__init__", counting)
    assert main(args[:1] + ["--config", CFG, "--base", str(base_dir / "base.ckpt")]
                + args[1:]) == 0
    assert draws == []


def test_ablate_rejects_unknown_axis(base_dir, capsys):
    code = main(["ablate", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--axes", "dropout"])
    assert code == 2
    assert "category=ConfigError" in capsys.readouterr().err


def test_ablate_plan_k_axis(base_dir, tmp_path):
    code = main(["ablate", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--axes", "plan_k",
                 "--set", "run.epochs=1", "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "ablation.csv").read_text().splitlines()
    # k grid is 1,2,4 at n_experts=4: three value rows plus three summaries
    assert len(lines) == 7
    assert (tmp_path / "ablation.md").exists()


def test_ablate_random_strategy_plan_k_axis(base_dir, tmp_path):
    code = main(["ablate", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--axes", "plan_k",
                 "--set", "run.strategy=random", "--set", "run.epochs=1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "ablation.csv").read_text().splitlines()) == 7


def test_ablate_lori_s_reproducible(base_dir, tmp_path):
    # each lori_s row fine-tunes its own lori_d donor first
    for tag in ("a", "b"):
        assert main(["ablate", "--config", CFG, "--base",
                     str(base_dir / "base.ckpt"), "--axes", "strategy,targets",
                     "--seeds", "0,1", "--set", "run.scheme=lori_s",
                     "--set", "run.epochs=1", "--out-dir", str(tmp_path / tag)]) == 0
    for name in ("ablation.csv", "ablation.md"):
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
    lines = (tmp_path / "a" / "ablation.csv").read_text().splitlines()
    # four strategies and four target choices at two seeds, plus summaries
    assert len(lines) == 1 + 16 + 8


@pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg")),
                         ids=lambda p: p.name)
def test_axis_arm_names_are_unique(path):
    model = load_config(path).model
    names = [f"{axis}={value}" for axis, values in ABLATION_AXES.items()
             for value in values(model)]
    assert len(set(names)) == len(names)
    assert list(axis_arms(model, list(ABLATION_AXES))) == names


def test_target_choice_names_are_not_expert_modes():
    # targets=all would read as experts=all
    assert not set(TARGET_CHOICES) & set(EXPERT_MODES)


def test_crosstask_reproducible(base_dir, tmp_path, capsys):
    stdouts = []
    for tag in ("a", "b"):
        capsys.readouterr()
        assert main(["crosstask", "--config", CFG, "--base",
                     str(base_dir / "base.ckpt"), "--out-dir", str(tmp_path / tag)]) == 0
        stdouts.append(capsys.readouterr().out)
    assert stdouts[0] == stdouts[1]
    assert ((tmp_path / "a" / "cross_task.csv").read_bytes()
            == (tmp_path / "b" / "cross_task.csv").read_bytes())
    kinds = sorted(spec.kind for spec in load_config(CFG).task.specs())
    lines = stdouts[0].splitlines()
    evals = [line.split()[1] for line in lines if line.startswith("crosstask eval=")]
    assert evals == [f"eval={kind}" for kind in kinds]
    pairs = [line for line in lines if line.startswith("crosstask plan_jaccard ")]
    assert len(pairs) == len(kinds) * (len(kinds) - 1) // 2 >= 1


def test_flops_line_and_csv(base_dir, tmp_path, capsys):
    plan = _plan(base_dir, tmp_path / "prof")
    capsys.readouterr()
    code = main(["flops", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--plan", str(plan),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    outl = capsys.readouterr().out
    assert "forward=" in outl and "hit_rate=" in outl
    head = (tmp_path / "flops.csv").read_text().splitlines()[0]
    assert head == "forward,train,reduction_pct,expert_reduction_pct,tokens"


def test_flops_lori_s_matches_lora(base_dir, tmp_path, capsys):
    # adapter FLOPs do not depend on lori_s's mask
    plan = _plan(base_dir, tmp_path / "prof")
    printed = {}
    for scheme in ("lora", "lori_s"):
        capsys.readouterr()
        assert main(["flops", "--config", CFG, "--base",
                     str(base_dir / "base.ckpt"), "--plan", str(plan),
                     "--set", f"run.scheme={scheme}"]) == 0
        printed[scheme] = capsys.readouterr().out
    assert "forward=" in printed["lora"]
    assert printed["lori_s"] == printed["lora"]


def test_flops_merges_no_traces(base_dir, tmp_path, monkeypatch, capsys):
    plan = _plan(base_dir, tmp_path / "prof")

    def forbidden(traces):
        raise AssertionError("RoutingTrace.merge called")

    monkeypatch.setattr(RoutingTrace, "merge", staticmethod(forbidden))
    capsys.readouterr()
    assert main(["flops", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
                 "--plan", str(plan)]) == 0
    out = capsys.readouterr().out
    assert "forward=" in out and "hit_rate=" in out


@pytest.mark.parametrize("scheme", ["lora", "lori_d", "lori_s"])
def test_flops_equals_full_forward_oracle(base_dir, tmp_path, monkeypatch, capsys,
                                          scheme):
    # flops costs PAD too: its routing passes keep full width, and stopping
    # at the last router leaves the counts of full forwards
    plan = _plan(base_dir, tmp_path / "prof")
    args = ["flops", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
            "--plan", str(plan), "--set", f"run.scheme={scheme}",
            "--set", "task.target=transduce"]

    def full_forward(model, tokens):
        with T.no_grad():
            return model.forward(tokens, want_trace=True).trace

    printed = {}
    for tag in ("routing", "oracle"):
        if tag == "oracle":
            monkeypatch.setattr(MoEModel, "routing_trace", full_forward)
        capsys.readouterr()
        assert main(args + ["--out-dir", str(tmp_path / tag)]) == 0
        printed[tag] = capsys.readouterr().out
    assert "forward=" in printed["routing"]
    assert printed["routing"] == printed["oracle"]
    assert ((tmp_path / "routing" / "flops.csv").read_bytes()
            == (tmp_path / "oracle" / "flops.csv").read_bytes())


def test_gradcheck_passes_and_prints(capsys):
    code = main(["gradcheck", "--config", CFG, "--coords", "2"])
    assert code == 0
    assert "max_rel_err=" in capsys.readouterr().out


def test_report_param_table(capsys):
    code = main(["report", "--config", CFG])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("report ")]
    assert len(lines) == 6


def test_report_desk_scale_closed_forms(capsys):
    code = main(["report"])  # stock desk-scale defaults
    assert code == 0
    out = capsys.readouterr().out
    assert "scheme=lora placement=all trainable=54016" in out
    assert "scheme=lora placement=plan_k4 trainable=17152" in out


def test_report_params_csv_rows_are_the_printed_lines(tmp_path, capsys):
    assert main(["report", "--config", CFG, "--out-dir", str(tmp_path)]) == 0
    printed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("report ")]
    with (tmp_path / "params.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [f"report scheme={r['scheme']} placement={r['placement']} "
            f"trainable={r['trainable']} fraction={r['fraction']}"
            for r in rows] == printed
    for r in rows:     # the per-kind columns split the trainable count
        assert sum(int(v) for k, v in r.items() if k.startswith("target_") and v) \
            == int(r["trainable"])


def test_bad_set_syntax(capsys):
    assert main(["report", "--set", "noequals"]) == 2
    assert "category=ConfigError" in capsys.readouterr().err


def test_missing_checkpoint_is_io_error(capsys):
    code = main(["profile", "--config", CFG, "--base", "/does/not/exist.ckpt"])
    assert code == 1
    assert "category=IoError" in capsys.readouterr().err


def _one_error_line(err: str, category: str) -> None:
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error category={category} message=")


def test_truncated_checkpoint_exits_1(base_dir, tmp_path, capsys):
    bad = tmp_path / "cut.ckpt"
    bad.write_bytes((base_dir / "base.ckpt").read_bytes()[:-100])
    assert main(["profile", "--config", CFG, "--base", str(bad)]) == 1
    _one_error_line(capsys.readouterr().err, "IoError")


def test_malformed_heatmap_exits_2(tmp_path, capsys):
    bad = tmp_path / "heatmap.csv"
    bad.write_text("layer,expert,count,ratio\n0,0,many,0.5\n")
    assert main(["plan", "--config", CFG, "--profile", str(bad)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


@pytest.mark.parametrize("counts", ["2,2,2,2 2,2,2,3", "2,2,2,2 4,2,2,2"],
                         ids=["not-a-multiple-of-k", "uneven-layers"])
def test_heatmap_breaking_count_conservation_exits_2(counts, tmp_path, capsys):
    # tiny.cfg: 2 layers x 4 experts, k_route 2; layer 1 sums to 9, or to
    # 10 against layer 0's 8. plan used to print a plan from it and exit 0
    bad = tmp_path / "heatmap.csv"
    rows = [f"{l},{e},{c},0.0" for l, layer in enumerate(counts.split())
            for e, c in enumerate(layer.split(","))]
    bad.write_text("\n".join(["layer,expert,count,ratio", *rows]) + "\n")
    out = tmp_path / "out"
    assert main(["plan", "--config", CFG, "--profile", str(bad),
                 "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    _one_error_line(captured.err, "ConfigError")
    assert captured.out == ""
    assert not (out / "plan.csv").exists()


def test_profile_given_as_plan_exits_2(base_dir, capsys):
    # a heatmap CSV is no plan: the error names the file and the line,
    # not a Python exception repr
    prof = base_dir / "profile_mod_add.csv"
    code = main(["finetune", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
                 "--plan", str(prof)])
    assert code == 2
    err = capsys.readouterr().err
    _one_error_line(err, "ConfigError")
    assert "Error(" not in err
    assert str(prof) in err and "line 1 does not parse: 'layer,expert,count,ratio'" in err


def test_ablate_bad_seeds_exits_2(base_dir, capsys):
    code = main(["ablate", "--config", CFG, "--base",
                 str(base_dir / "base.ckpt"), "--axes", "strategy",
                 "--seeds", "1,x"])
    assert code == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


def test_empty_train_split_exits_2(capsys):
    code = main(["report", "--config", CFG, "--set", "task.train_size=0"])
    assert code == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


def test_multiline_error_message_folds_to_one_line(tmp_path, capsys):
    # configparser's "no section headers" text spans several lines
    plan = tmp_path / "plan.csv"
    plan.write_text("layer,experts\n0,1\n")
    assert main(["report", "--config", str(plan)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


def test_zero_heads_exits_2(capsys):
    code = main(["report", "--config", CFG, "--set", "model.n_heads=0"])
    assert code == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


def test_diverging_pretrain_prints_one_error_line(tmp_path, capsys):
    # the loss's finite check turns the overflow into exit 4; numpy's
    # RuntimeWarnings would otherwise print ahead of the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pretrain", "--config", CFG, "--set", "pretrain.lr=1e300",
                     "--out-dir", str(tmp_path)])
    assert code == 4
    assert [str(w.message) for w in caught] == []
    _one_error_line(capsys.readouterr().err, "NumericalError")


# keys that held one value in every config: vocab and max_seq are now
# ModelConfig constants, the prompt lengths TaskSpec defaults, and the
# warm-up always trains one epoch
REMOVED_KEYS = {"model.vocab": "32", "model.max_seq": "16", "task.min_len": "3",
                "task.max_len": "6", "run.warmup_epochs": "1"}


@pytest.mark.parametrize("via", ["file", "set"])
@pytest.mark.parametrize("key", list(REMOVED_KEYS))
def test_removed_key_exits_2_as_unknown(key, via, tmp_path, capsys):
    section, name = key.split(".")
    if via == "file":
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"[{section}]\n{name} = {REMOVED_KEYS[key]}\n")
        args = ["report", "--config", str(cfg)]
    else:
        args = ["report", "--config", CFG, "--set", f"{key}={REMOVED_KEYS[key]}"]
    out = tmp_path / "out"
    assert main(args + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    _one_error_line(err, "ConfigError")
    assert f"unknown key in [{section}]: {name}" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["report", "--seed", "-1"],
    ["pretrain", "--set", "task.seed=-3"],
    ["run", "--set", "run.seed=-2"],
    ["ablate", "--axes", "strategy", "--seeds", "1,-1"],
], ids=["report-seed", "pretrain-task-seed", "run-seed", "ablate-seeds"])
def test_negative_seed_exits_2(args, base_dir, tmp_path, capsys):
    # each command gets what it needs besides the seed; ablate's base does
    # not exist, because its seeds are rejected before the base is read
    extra = {"pretrain": ["--out-dir", str(tmp_path)],
             "run": ["--base", str(base_dir / "base.ckpt")],
             "ablate": ["--base", "/does/not/exist.ckpt"]}.get(args[0], [])
    assert main(args[:1] + ["--config", CFG] + args[1:] + extra) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


@pytest.mark.parametrize("cmd,k", [("run", "0"), ("plan", "0"), ("report", "-1")])
def test_plan_k_below_one_exits_2(cmd, k, base_dir, capsys):
    extra = {"run": ["--base", str(base_dir / "base.ckpt")],
             "plan": ["--profile", str(base_dir / "profile_mod_add.csv")]}.get(cmd, [])
    assert main([cmd, "--config", CFG, "--set", f"run.plan_k={k}"] + extra) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


@pytest.mark.parametrize("cmd,key,value", [
    ("run", "run.alpha", "0"), ("run", "run.alpha", "-8"),
    ("run", "run.alpha", "nan"), ("run", "run.lr", "nan"),
    ("run", "run.lr", "inf"), ("pretrain", "pretrain.lr", "nan"),
    ("report", "model.lb_weight", "nan"), ("report", "model.lb_weight", "-1"),
])
def test_rate_that_cannot_train_exits_2(cmd, key, value, base_dir, tmp_path, capsys):
    extra = {"run": ["--base", str(base_dir / "base.ckpt")],
             "pretrain": ["--out-dir", str(tmp_path)]}.get(cmd, [])
    assert main([cmd, "--config", CFG, "--set", f"{key}={value}"] + extra) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")


def test_run_unknown_strategy_without_plan_exits_2(base_dir, tmp_path, capsys):
    # with experts = all no plan is built, so nothing downstream reads strategy
    assert main(["run", "--config", CFG, "--base", str(base_dir / "base.ckpt"),
                 "--set", "run.strategy=bogus", "--set", "run.experts=all",
                 "--out-dir", str(tmp_path)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")
    assert not (tmp_path / "resolved.cfg").exists()


@pytest.mark.parametrize("setting", ["run.strategy=bogus", "run.plan_k=5"])
def test_run_rejects_bad_run_value_before_pretrain(setting, tmp_path, capsys):
    assert main(["run", "--config", CFG, "--set", setting,
                 "--out-dir", str(tmp_path)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")
    assert not (tmp_path / "base.ckpt").exists()


@pytest.mark.parametrize("setting", ["task.test_size=0",
                                     "task.mixture=mod_add,mod_add"])
def test_bad_task_value_exits_2_before_artifacts(setting, tmp_path, capsys):
    assert main(["run", "--config", CFG, "--set", setting,
                 "--out-dir", str(tmp_path)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["run", "--set", "task.train_size=200000"],
    ["plan"],
    ["profile"],
    ["finetune"],
    ["ablate"],
    ["crosstask"],
    ["flops"],
    ["finetune", "--base", "BASE", "--set", "run.experts=plan"],
    ["flops", "--base", "BASE", "--set", "run.experts=plan"],
    ["finetune", "--base", "BASE", "--plan", "PLAN1"],
    ["flops", "--base", "BASE", "--plan", "PLAN1"],
    ["ablate", "--base", "BASE", "--axes", " , "],
    ["ablate", "--base", "BASE", "--axes", "strategy,dropout"],
    ["ablate", "--base", "BASE", "--axes", "strategy,strategy"],
    ["ablate", "--base", "BASE", "--seeds", "1,1"],
    ["gradcheck", "--coords", "0"],
    ["gradcheck", "--coords", "-2"],
    ["finetune", "--base", "BASE", "--set", "model.n_experts=8",
     "--set", "run.experts=all"],
    ["run", "--base", "BASE", "--set", "model.n_experts=8"],
    ["run", "--base", "BASE", "--set", "model.d_ff=16"],
    ["crosstask", "--base", "BASE", "--set", "model.d_ff=16"],
    ["plan", "--profile", "HEAT1"],
    ["run", "--set", "run.warmup_pct=1"],
    ["report", "--set", "run.rank=5"],
    ["report", "--set", "run.rank=9", "--set", "run.gate=false"],
    ["report", "--set", "run.rank=9", "--set", "run.gate=false",
     "--set", "run.warmup_forward_only=true"],
    ["ablate", "--base", "BASE", "--set", "task.train_size=8", "--axes", "warmup_pct"],
    ["ablate", "--base", "BASE", "--axes", "targets", "--set", "run.gate=false",
     "--set", "run.warmup_forward_only=true", "--set", "run.rank=5"],
    ["report", "--set", "model.lb_mode=global"],
    ["report", "--set", "run.lb_during_finetune=true"],
    ["profile", "--base", "BASENAN", "--set", "run.warmup_forward_only=true"],
    ["flops", "--base", "BASENAN", "--set", "run.experts=all"],
    ["run", "--base", "BASENAN"],
    ["plan", "--profile", "HEATNEG"],
    ["plan", "--profile", "HEATBIG"],
    ["plan", "--profile", "HEATREP"],
    ["finetune", "--base", "BASE", "--plan", "PLANBOGUS"],
    ["pretrain", "--set", "pretrain.batch_size=0"],
    ["pretrain", "--set", "pretrain.until_acc=1.0"],
    ["pretrain", "--set", "pretrain.check_every=0"],
    ["pretrain", "--set", "task.mixture="],
    ["pretrain", "--set", "foo.bar=1"],
], ids=["prompt-space", "plan-no-profile", "profile-no-base",
        "finetune-no-base", "ablate-no-base", "crosstask-no-base", "flops-no-base",
        "finetune-no-plan", "flops-no-plan", "finetune-plan-misfit",
        "flops-plan-misfit", "ablate-empty-axes",
        "ablate-unknown-axis", "ablate-repeated-axis", "ablate-repeated-seed",
        "gradcheck-coords-0", "gradcheck-coords-neg",
        "finetune-base-n-experts", "run-base-n-experts", "run-base-d-ff",
        "crosstask-base-d-ff", "plan-heatmap-misfit", "warmup-subset-empty",
        "rank-above-gate", "rank-above-trained-warmup-gate", "rank-above-d-model",
        "ablate-row-warmup-subset", "ablate-arm-rank-above-gate",
        "lb-mode-unknown", "lb-during-finetune-unknown",
        "profile-base-nan", "flops-base-nan", "run-base-nan", "plan-heatmap-negative",
        "plan-heatmap-beyond-int64", "plan-heatmap-repeated-cell",
        "finetune-plan-bogus-strategy", "pretrain-batch-size-0",
        "pretrain-until-acc-1", "pretrain-check-every-0", "pretrain-empty-mixture",
        "pretrain-unknown-section"])
def test_failed_check_writes_no_file(args, base_dir, tmp_path, capsys):
    # BASE stands for a real base checkpoint of configs/tiny.cfg, so only the
    # named check fails, and BASENAN for it with one router weight NaN;
    # PLAN1 and HEAT1 are a well-formed plan and heatmap for a one-layer
    # model, HEATNEG and HEATBIG are heatmaps of tiny's shape with a negative
    # count and one beyond int64, HEATREP one that lists cell 0,3 twice, and
    # PLANBOGUS a plan of tiny's shape with an unknown strategy
    plan1 = tmp_path / "plan1.csv"
    plan1.write_text("strategy=layer_hot k=2 seed=none\n0,1\n")
    heat1 = tmp_path / "heat1.csv"
    heat1.write_text("layer,expert,count,ratio\n"
                     + "".join(f"0,{e},3,0.25\n" for e in range(4)))
    state = load_checkpoint(base_dir / "base.ckpt")
    state["layer0.router.w"][0, 0] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", state)
    for name, count in (("heatneg", -999), ("heatbig", 10 ** 20 - 1)):
        (tmp_path / f"{name}.csv").write_text("layer,expert,count,ratio\n" + "".join(
            f"{l},{e},{count if (l, e) == (0, 2) else 3},0.25\n"
            for l in range(2) for e in range(4)))
    (tmp_path / "heatrep.csv").write_text("layer,expert,count,ratio\n" + "".join(
        f"{l},{e},{5 if (l, e) == (0, 3) else 3},0.25\n"
        for l in range(2) for e in range(4)) + "0,3,999,0.25\n")
    planbogus = tmp_path / "planbogus.csv"
    planbogus.write_text("strategy=bogus k=1 seed=none\n2\n3\n")
    args = [{"BASE": str(base_dir / "base.ckpt"), "PLAN1": str(plan1),
             "HEAT1": str(heat1), "BASENAN": str(tmp_path / "nan.ckpt"),
             "HEATNEG": str(tmp_path / "heatneg.csv"),
             "HEATBIG": str(tmp_path / "heatbig.csv"),
             "HEATREP": str(tmp_path / "heatrep.csv"), "PLANBOGUS": str(planbogus)}.get(a, a)
            for a in args]
    out = tmp_path / "out"
    assert main(args[:1] + ["--config", CFG, "--out-dir", str(out)] + args[1:]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("text", ["[DEFAULT]\nrank = 99\n",
                                  "[DEFAULT]\nseed = 3\n\n[run]\nrank = 2\n"],
                         ids=["alone", "next-to-run"])
def test_default_section_exits_2_and_writes_no_file(text, tmp_path, capsys):
    cfg = tmp_path / "default.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["report", "--config", str(cfg), "--out-dir", str(out)]) == 2
    _one_error_line(capsys.readouterr().err, "ConfigError")
    assert not out.exists()


@pytest.mark.parametrize("case", ["out-dir-is-file", "out-dir-under-file",
                                  "base-is-dir", "plan-is-dir", "profile-is-dir",
                                  "config-is-dir", "config-not-utf8"])
def test_unreadable_input_or_unwritable_out_dir(case, base_dir, tmp_path, capsys):
    # any OSError is an IoError; bytes that read but do not decode are the
    # loader's own error
    afile = tmp_path / "afile"
    afile.write_text("x\n")
    not_utf8 = tmp_path / "bad.cfg"
    not_utf8.write_bytes(b"[run]\nseed = 1\xff\n")
    base = str(base_dir / "base.ckpt")
    args = {
        "out-dir-is-file": ["report", "--config", CFG, "--out-dir", str(afile)],
        "out-dir-under-file": ["report", "--config", CFG,
                               "--out-dir", str(afile / "out")],
        "base-is-dir": ["profile", "--config", CFG, "--base", str(tmp_path)],
        "plan-is-dir": ["finetune", "--config", CFG, "--base", base,
                        "--plan", str(tmp_path)],
        "profile-is-dir": ["plan", "--config", CFG, "--profile", str(tmp_path)],
        "config-is-dir": ["report", "--config", str(tmp_path)],
        "config-not-utf8": ["report", "--config", str(not_utf8)],
    }[case]
    code, category = (2, "ConfigError") if case == "config-not-utf8" else (1, "IoError")
    assert main(args) == code
    _one_error_line(capsys.readouterr().err, category)


def _python_m(module, *args):
    """`python -m module args` with unbuffered output, so each line is
    written to the pipe when it is printed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    return subprocess.Popen([sys.executable, "-m", module, *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("module", ["hotmoe", "hotmoe.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _python_m(module, "report", "--config", CFG)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "report scheme=lora " in out


@pytest.mark.parametrize("module", ["hotmoe", "hotmoe.cli"])
def test_python_dash_m_rejects_a_bogus_command(module):
    proc = _python_m(module, "bogus")
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert "invalid choice: 'bogus'" in err


class _ClosedStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_is_one_io_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["report", "--config", CFG]) == 1
    _one_error_line(capsys.readouterr().err, "IoError")


def test_pipe_closed_after_first_line_prints_no_traceback():
    proc = _python_m("hotmoe", "report", "--config", CFG)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.startswith("report scheme=lora ")
    assert "Traceback" not in err and "Exception ignored" not in err
    # the remaining lines can still fit in the pipe before it is closed
    if proc.returncode != 0:
        assert proc.returncode == 1
        _one_error_line(err, "IoError")
