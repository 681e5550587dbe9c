"""Warm-up / plan / fine-tune orchestration tests at miniature scale.

Base models here are untrained random inits: the mechanics under test
(subset selection, profile conservation, frozen-weight integrity, scheme
plumbing, determinism) do not need a pretrained backbone.
"""

from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from hotmoe import pipeline
from hotmoe.adapters import build_mask
from hotmoe.cli import TARGET_CHOICES, axis_arms
from hotmoe.errors import ConfigError, InvariantViolation, NumericalError
from hotmoe.accounting import adapter_flops, exec_counters
from hotmoe.model import ModelConfig, MoEModel, RoutingTrace
from hotmoe.optim import Adam
from hotmoe.pipeline import (RunConfig, WarmupResult, ablate, build_plan,
                             check_frozen_integrity, clone_model,
                             cross_task_matrix, finetune, frozen_param_hashes,
                             masks_from_donor, run_end_to_end, run_warmup,
                             write_rows_csv, write_rows_markdown)
from hotmoe.profiler import PlacementPlan
from hotmoe.tasks import PAD, TaskSpec, evaluate, make_task


def tiny_config(**kw):
    base = dict(d_model=8, n_heads=2, d_ff=12, n_layers=2, n_experts=4,
                k_route=2)
    base.update(kw)
    return ModelConfig(**base)


def tiny_run(**kw):
    base = dict(rank=2, alpha=4.0, plan_k=2, warmup_pct=50.0,
                epochs=2, batch_size=8, lr=4e-3, seed=0)
    base.update(kw)
    return RunConfig(**base)


def tiny_specs():
    return [TaskSpec(kind="mod_add", modulus=5, train_size=20, test_size=5, seed=3),
            TaskSpec(kind="transduce", train_size=24, test_size=6, seed=3)]


@pytest.fixture(scope="module")
def base():
    cfg = tiny_config()
    state = MoEModel(cfg, seed=0).registry.state_arrays()
    return cfg, state


@pytest.fixture(scope="module")
def modadd():
    spec = tiny_specs()[0]
    return make_task(spec, 16)


# ------------------------------------------------------------------ config

def test_runconfig_rejects_bad_values():
    # plan_k > n_experts needs the model too: tests/test_config.py checks it
    for kw in (dict(warmup_pct=0.0), dict(warmup_pct=101.0), dict(plan_k=0),
               dict(plan_k=-1), dict(lr=0.0), dict(lr=float("nan")),
               dict(alpha=0.0), dict(alpha=-8.0), dict(alpha=float("inf")),
               dict(rank=0), dict(batch_size=0), dict(epochs=-1),
               dict(scheme="dora"), dict(experts="some"),
               dict(strategy="bogus"), dict(rho=0.0),
               dict(attention=False, gate=False, experts="none")):
        with pytest.raises(ConfigError):
            tiny_run(**kw)
        with pytest.raises(ConfigError):
            replace(tiny_run(), **kw)


def test_runconfig_is_frozen():
    run = tiny_run()
    with pytest.raises(FrozenInstanceError):
        run.strategy = "bogus"


# ------------------------------------------------------------------ warm-up

def test_warmup_profile_conserves_and_sizes(base, modadd):
    cfg, state = base
    train, _ = modadd
    res = run_warmup(cfg, state, train, tiny_run())
    assert res.subset_size == round(len(train) * 0.5)
    res.profile.check_conservation(cfg.k_route)
    assert res.profile.tokens_seen > 0
    assert res.steps == len(res.losses) > 0


def test_warmup_leaves_base_state_untouched(base, modadd):
    cfg, state = base
    train, _ = modadd
    before = {k: v.tobytes() for k, v in state.items()}
    run_warmup(cfg, state, train, tiny_run())
    after = {k: v.tobytes() for k, v in state.items()}
    assert before == after


def test_warmup_forward_only_trains_nothing(base, modadd):
    cfg, state = base
    train, _ = modadd
    res = run_warmup(cfg, state, train, tiny_run(warmup_forward_only=True))
    assert res.losses == []
    res.profile.check_conservation(cfg.k_route)
    # forward-only profiling is a pure function of base + subset
    res2 = run_warmup(cfg, state, train, tiny_run(warmup_forward_only=True))
    assert np.array_equal(res.profile.counts, res2.profile.counts)


def test_warmup_checks_frozen_base(base, modadd, monkeypatch):
    # the warm-up is a fine-tune, so a step that moves a frozen base
    # tensor is caught by the same hash check
    cfg, state = base
    train, _ = modadd
    step = Adam.step

    def leaky_step(self):
        step(self)
        self.registry["embed.tok"].tensor.data[0, 0] += 1.0

    monkeypatch.setattr(Adam, "step", leaky_step)
    with pytest.raises(InvariantViolation, match="embed.tok"):
        run_warmup(cfg, state, train, tiny_run())


def test_warmup_full_fraction_uses_whole_split(base, modadd):
    cfg, state = base
    train, _ = modadd
    res = run_warmup(cfg, state, train, tiny_run(warmup_pct=100.0))
    assert res.subset_size == len(train)


def test_build_plan_delegates(base, modadd):
    cfg, state = base
    train, _ = modadd
    res = run_warmup(cfg, state, train, tiny_run())
    plan = build_plan(res.profile, 2, "layer_hot")
    assert plan.k == 2 and len(plan.hot) == cfg.n_layers


# ---------------------------------------------------------------- fine-tune

def full_plan(cfg):
    return PlacementPlan(hot=[list(range(cfg.n_experts))] * cfg.n_layers,
                         k=cfg.n_experts, strategy="layer_hot")


def plan_for(cfg, state, train, run=None):
    res = run_warmup(cfg, state, train, run or tiny_run())
    return build_plan(res.profile, (run or tiny_run()).plan_k, "layer_hot")


def test_finetune_zero_epochs_is_identity(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    model, rep = finetune(cfg, state, train, {"mod_add": test}, plan,
                          tiny_run(epochs=0))
    assert rep.steps == 0
    assert rep.acc_before == rep.acc_after
    assert rep.flops is None
    base_acc = evaluate(clone_model(cfg, state).logits_fn(), test)
    assert rep.acc_before["mod_add"] == base_acc


@pytest.mark.parametrize("scheme", ["lora", "lori_s"])
def test_acc_before_evaluates_the_bare_base(base, modadd, scheme, monkeypatch):
    # every acc_before decode runs on a model with no adapters attached
    cfg, state = base
    train, test = modadd
    seen = []
    logits_fn = MoEModel.logits_fn

    def recording(self):
        seen.append(len(self.adapters))
        return logits_fn(self)

    monkeypatch.setattr(MoEModel, "logits_fn", recording)
    evals = {"mod_add": test, "again": test}
    finetune(cfg, state, train, evals, None,
             tiny_run(epochs=1, scheme=scheme, experts="all"))
    assert seen[:2] == [0, 0]
    assert len(seen) == 4 and all(seen[2:])


def test_finetune_nan_base_raises_numerical(base, modadd):
    cfg, state = base
    train, test = modadd
    bad = dict(state, **{"head.w": np.full_like(state["head.w"], np.nan)})
    with pytest.raises(NumericalError):
        finetune(cfg, bad, train, {"mod_add": test}, None,
                 tiny_run(experts="all"))


def test_finetune_reduces_training_loss(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    _, rep = finetune(cfg, state, train, {"mod_add": test}, plan,
                      tiny_run(epochs=12))
    k = max(1, len(rep.losses) // 6)
    assert np.mean(rep.losses[-k:]) < np.mean(rep.losses[:k])


def test_finetune_is_deterministic(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    m1, r1 = finetune(cfg, state, train, {"mod_add": test}, plan, tiny_run())
    m2, r2 = finetune(cfg, state, train, {"mod_add": test}, plan, tiny_run())
    s1, s2 = m1.registry.state_arrays(), m2.registry.state_arrays()
    assert sorted(s1) == sorted(s2)
    for k in s1:
        assert s1[k].tobytes() == s2[k].tobytes(), k
    assert r1.losses == r2.losses
    assert r1.acc_after == r2.acc_after


def test_finetune_never_balances(base, modadd):
    # the fine-tune's loss is the cross-entropy whatever the base's lb_weight
    cfg, state = base
    train, _ = modadd
    plan = plan_for(cfg, state, train)
    ref_model, ref = finetune(cfg, state, train, {}, plan, tiny_run())
    assert cfg.lb_weight > 0.0 and ref_model.config.lb_weight == 0.0
    for weight in (0.0, 5.0):
        model, rep = finetune(replace(cfg, lb_weight=weight), state, train, {},
                              plan, tiny_run())
        assert np.array(rep.losses).tobytes() == np.array(ref.losses).tobytes()
        for name, arr in ref_model.registry.state_arrays().items():
            assert model.registry[name].tensor.data.tobytes() == arr.tobytes(), name


def test_finetune_never_touches_frozen_base(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    model, _ = finetune(cfg, state, train, {"mod_add": test}, plan,
                        tiny_run(epochs=4))
    for name, arr in state.items():
        assert model.registry[name].tensor.data.tobytes() == arr.tobytes(), name


def test_cold_expert_weights_bitwise_stable(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    model, _ = finetune(cfg, state, train, {"mod_add": test}, plan,
                        tiny_run(epochs=4))
    hot = plan.sets()
    checked = 0
    for l in range(cfg.n_layers):
        for e in range(cfg.n_experts):
            if e in hot[l]:
                continue
            for proj in ("w_up", "w_down"):
                name = f"layer{l}.expert{e}.{proj}"
                assert (model.registry[name].tensor.data.tobytes()
                        == state[name].tobytes())
                assert f"{name}.adapter.B" not in model.registry
                checked += 1
    assert checked > 0


def test_clone_model_copies_the_state_without_a_draw(base, monkeypatch):
    cfg, state = base
    names = [name for name, _ in MoEModel(cfg, seed=5).registry.items()]

    def forbidden(*args, **kwargs):
        raise AssertionError("clone_model drew a random init")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    model = clone_model(cfg, state)
    assert [name for name, _ in model.registry.items()] == names
    for name, entry in model.registry.items():
        data = entry.tensor.data
        assert data.dtype == np.float64 and data.tobytes() == state[name].tobytes()
        assert not np.shares_memory(data, state[name])


@pytest.mark.parametrize("edit, message", [
    (lambda st: st.pop("head.w"), "state missing parameters: ['head.w']"),
    (lambda st: st.update(ghost=np.zeros(1)), "unknown parameter in state: ghost"),
    (lambda st: st.update({"embed.pos": np.zeros((3, 8))}),
     "state shape (3, 8) != param shape (16, 8) for embed.pos"),
], ids=["missing", "unknown", "shape"])
def test_clone_model_keeps_load_state_mismatch_errors(base, edit, message):
    cfg, state = base
    bad = dict(state)
    edit(bad)
    with pytest.raises(InvariantViolation) as err:
        clone_model(cfg, bad)
    assert str(err.value) == message


def test_integrity_check_catches_mutation(base):
    cfg, state = base
    model = clone_model(cfg, state)
    for name, _ in model.registry.items():
        model.registry.set_trainable(name, False)
    before = frozen_param_hashes(model)
    assert before  # hashes only exist for frozen params
    model.registry["layer0.expert1.w_up"].tensor.data[0, 0] += 1.0
    with pytest.raises(InvariantViolation):
        check_frozen_integrity(model, before)


@pytest.mark.parametrize("scheme, entry", [("lori_d", "A"), ("lori_s", "A")])
def test_finetune_checks_frozen_adapter_tensors(base, modadd, monkeypatch,
                                                scheme, entry):
    # a frozen A is a frozen registry tensor like the base, so a step that
    # moves one is caught by the same hash check
    cfg, state = base
    train, _ = modadd
    plan = plan_for(cfg, state, train)
    run = tiny_run(scheme=scheme, rho=0.25)
    donor, _ = finetune(cfg, state, train, {}, plan,
                        replace(run, scheme="lori_d", epochs=0))
    masks = masks_from_donor(donor, run.rho) if scheme == "lori_s" else None
    target = f"layer0.router.w.adapter.{entry}"
    step = Adam.step

    def leaky_step(self):
        step(self)
        self.registry[target].tensor.data[0, 0] += 1.0

    monkeypatch.setattr(Adam, "step", leaky_step)
    with pytest.raises(InvariantViolation, match=f"frozen parameter {target} changed"):
        finetune(cfg, state, train, {}, plan, run, masks=masks)


def test_finetune_refuses_b_off_its_mask(base, modadd, monkeypatch):
    # a lori_s B is trainable, so no hash covers it: off its mask it must
    # still be the zero it started as, which a step that writes there breaks
    cfg, state = base
    train, _ = modadd
    plan = plan_for(cfg, state, train)
    run = tiny_run(scheme="lori_s", rho=0.25)
    name = "layer0.router.w.adapter.B"
    step = Adam.step

    def leaky_step(self):
        step(self)
        entry = self.registry[name]
        if entry.mask is not None:      # not the lori_d donor's step
            entry.tensor.data[~entry.mask] += 1e-3

    monkeypatch.setattr(Adam, "step", leaky_step)
    with pytest.raises(InvariantViolation,
                       match="adapter B on layer0.router.w moved off its mask"):
        finetune(cfg, state, train, {}, plan, run)


def test_finetune_lori_s_trains_donor_masks(base, modadd):
    # without masks, lori_s trains under masks_from_donor of a lori_d
    # fine-tune with the same run and plan
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    run = tiny_run(scheme="lori_s", rho=0.25)
    donor, _ = finetune(cfg, state, train, {}, plan, replace(run, scheme="lori_d"))
    given, r1 = finetune(cfg, state, train, {"mod_add": test}, plan, run,
                         masks=masks_from_donor(donor, run.rho))
    derived, r2 = finetune(cfg, state, train, {"mod_add": test}, plan, run)
    s1, s2 = given.registry.state_arrays(), derived.registry.state_arrays()
    assert list(s1) == list(s2)
    for k in s1:
        assert s1[k].tobytes() == s2[k].tobytes(), k
    for name, pair in derived.adapters.items():
        assert np.array_equal(pair.mask, given.adapters[name].mask), name
    assert r1.losses == r2.losses
    assert r1.format() == r2.format()


def test_masks_from_donor_matches_build_mask(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    donor, _ = finetune(cfg, state, train, {}, plan, tiny_run(scheme="lori_d"))
    masks = masks_from_donor(donor, 0.25)
    assert set(masks) == set(donor.adapters)
    for name, mask in masks.items():
        want = build_mask(donor.adapters[name].B.data, 0.25)
        assert np.array_equal(mask, want)
    with pytest.raises(ConfigError):
        masks_from_donor(clone_model(cfg, state), 0.25)


def test_finetune_lori_s_round_trip(base, modadd):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    donor, _ = finetune(cfg, state, train, {}, plan, tiny_run(scheme="lori_d"))
    masks = masks_from_donor(donor, 0.25)
    model, rep = finetune(cfg, state, train, {"mod_add": test}, plan,
                          tiny_run(scheme="lori_s", rho=0.25), masks=masks)
    assert rep.params.trainable == sum(int(m.sum()) for m in masks.values())
    for name, pair in model.adapters.items():
        off = ~masks[name]
        assert np.all(pair.B.data[off] == 0.0)


@pytest.mark.parametrize("scheme", ["lora", "lori_d", "lori_s"])
def test_finetune_profile_conserves_counts(base, modadd, scheme):
    cfg, state = base
    train, _ = modadd
    run = tiny_run(scheme=scheme)
    _, rep = finetune(cfg, state, train, {}, plan_for(cfg, state, train), run)
    # mod_add rows hold no PAD, so every position of every step is counted
    assert rep.profile.tokens_seen == run.epochs * train.tokens.size
    rep.profile.check_conservation(cfg.k_route)


def test_finetune_report_names_the_plan_strategy(base, modadd):
    cfg, state = base
    train, _ = modadd
    plan = build_plan(run_warmup(cfg, state, train, tiny_run()).profile, 2, "cold")
    _, rep = finetune(cfg, state, train, {}, plan, tiny_run(strategy="layer_hot"))
    assert rep.strategy == "cold"
    assert rep.format().startswith("scheme=lora strategy=cold ")


def test_finetune_writes_artifacts(base, modadd, tmp_path):
    cfg, state = base
    train, test = modadd
    plan = plan_for(cfg, state, train)
    _, rep = finetune(cfg, state, train, {"mod_add": test}, plan, tiny_run(),
                      out_dir=tmp_path)
    assert (tmp_path / "adapted.ckpt").exists()
    text = (tmp_path / "report.txt").read_text()
    assert "scheme=lora" in text and "task=mod_add" in text


@pytest.mark.parametrize("experts", ["plan", "all"])
def test_finetune_accounting_matches_merged_step_traces(base, experts, monkeypatch):
    # oracle: the per-step counts give what costing one merged trace of
    # every step gave; transduce rows are ragged, so PAD positions count
    cfg, state = base
    train, _ = make_task(tiny_specs()[1], 16)
    assert (train.tokens == PAD).any()
    plan = plan_for(cfg, state, train) if experts == "plan" else None
    traces = []
    original = pipeline.forward_backward

    def capturing(*args, **kwargs):
        result = original(*args, **kwargs)
        traces.append(result.trace)
        return result

    monkeypatch.setattr(pipeline, "forward_backward", capturing)
    model, rep = finetune(cfg, state, train, {}, plan, tiny_run(experts=experts))
    assert len(traces) == rep.steps > 0
    merged = RoutingTrace.merge(traces)
    assert rep.flops == adapter_flops(merged, model)
    if plan is None:
        assert rep.hit_rate is None
    else:
        assert rep.hit_rate == exec_counters(merged, plan).hit_rate


def _merge_forbidden(traces):
    raise AssertionError("RoutingTrace.merge called")


def test_end_to_end_merges_no_traces(base, monkeypatch):
    cfg, state = base
    monkeypatch.setattr(RoutingTrace, "merge", staticmethod(_merge_forbidden))
    res = run_end_to_end(cfg, tiny_specs(), "transduce", state, tiny_run())
    assert res.report.flops is not None and res.report.hit_rate is not None


def test_finetune_step_count_is_a_hard_check(base, modadd, monkeypatch):
    # an invariant, so it must hold under python -O too
    cfg, state = base
    train, _ = modadd
    monkeypatch.setattr(pipeline, "n_steps", lambda *args: 99)
    with pytest.raises(InvariantViolation, match="ran 6 steps, expected 99"):
        finetune(cfg, state, train, {}, None, tiny_run(experts="all"))


# ------------------------------------------------------------- end to end

def test_end_to_end_produces_plan_and_report(base, tmp_path):
    cfg, state = base
    specs = tiny_specs()
    res = run_end_to_end(cfg, specs, "mod_add", state, tiny_run(),
                         out_dir=tmp_path)
    assert res.plan is not None and res.plan.k == 2
    assert set(res.report.acc_before) == {"mod_add", "transduce"}
    assert set(res.report.acc_after) == {"mod_add", "transduce"}
    assert res.warmup is not None
    assert (tmp_path / "plan.csv").exists()
    assert (tmp_path / "adapted.ckpt").exists()


def test_end_to_end_unknown_task_rejected(base):
    cfg, state = base
    with pytest.raises(ConfigError):
        run_end_to_end(cfg, tiny_specs(), "refusal", state, tiny_run())


def test_end_to_end_lori_s_derives_masks(base):
    cfg, state = base
    res = run_end_to_end(cfg, tiny_specs(), "mod_add", state,
                         tiny_run(scheme="lori_s", epochs=1))
    for pair in res.model.adapters.values():
        assert pair.mask is not None
        assert pair.mask.any()


def test_end_to_end_experts_all_skips_warmup(base):
    cfg, state = base
    res = run_end_to_end(cfg, tiny_specs(), "mod_add", state,
                         tiny_run(experts="all", epochs=1))
    assert res.plan is None and res.warmup is None
    assert res.report.hit_rate is None


# ------------------------------------------------------------------- grid

# a valid value other than tiny_run()'s for every non-bool RunConfig field;
# a bool field is flipped
OTHER_VALUE = dict(scheme="lori_d", experts="all", rank=3, alpha=2.0, rho=0.5,
                   strategy="cold", plan_k=1, warmup_pct=100.0,
                   epochs=1, batch_size=4, lr=1e-2, seed=1)


@pytest.mark.parametrize("forward_only", [False, True])
def test_warmup_run_separates_every_field_the_warmup_reads(base, modadd,
                                                           forward_only):
    cfg, state = base
    train, _ = modadd
    run = tiny_run(warmup_forward_only=forward_only)
    ref = run_warmup(cfg, state, train, run)
    shared = set()
    for f in fields(RunConfig):
        value = getattr(run, f.name)
        other = replace(run, **{f.name: (not value if isinstance(value, bool)
                                         else OTHER_VALUE[f.name])})
        assert getattr(other, f.name) != value, f.name
        if pipeline.warmup_run(other) != pipeline.warmup_run(run):
            continue
        # equal keys share one warm-up, so it must be the same warm-up
        shared.add(f.name)
        got = run_warmup(cfg, state, train, other)
        assert np.array_equal(got.profile.counts, ref.profile.counts), f.name
        assert np.array(got.losses).tobytes() == np.array(ref.losses).tobytes()
        assert (got.steps, got.subset_size) == (ref.steps, ref.subset_size)
    if forward_only:   # one no-grad pass reads only the subset and the batch
        assert shared == ({f.name for f in fields(RunConfig)}
                          - {"warmup_pct", "seed", "batch_size", "warmup_forward_only"})
    else:
        assert shared == {"scheme", "attention", "gate", "experts", "rho", "strategy",
                          "plan_k", "epochs"}


def test_grid_warms_up_once_per_warmup_run(base, monkeypatch):
    cfg, state = base
    calls = []

    def counting(cfg, state, train, run):
        calls.append(run)
        return run_warmup(cfg, state, train, run)

    monkeypatch.setattr(pipeline, "run_warmup", counting)
    grid = pipeline.Grid(cfg, tiny_specs(), state)
    run = tiny_run(epochs=0)
    first = grid.run("mod_add", run)
    for change in (dict(strategy="cold"), dict(plan_k=1), dict(scheme="lori_s"),
                   dict(experts="all")):
        grid.run("mod_add", replace(run, **change))
    assert calls == [run]
    assert grid.plan("mod_add", run) == (first.warmup, first.plan)
    grid.run("mod_add", replace(run, rank=3))
    assert len(calls) == 2
    # a warm-up is never shared across targets
    grid.run("transduce", run)
    assert len(calls) == 3


def test_grid_shares_forward_only_warmups(base, monkeypatch):
    cfg, state = base
    calls = []

    def counting(cfg, state, train, run):
        calls.append(run)
        return run_warmup(cfg, state, train, run)

    monkeypatch.setattr(pipeline, "run_warmup", counting)
    grid = pipeline.Grid(cfg, tiny_specs(), state)
    run = tiny_run(epochs=0, warmup_forward_only=True)
    first = grid.run("mod_add", run)
    for change in (dict(rank=3), dict(lr=1e-3), dict(rank=2, lr=5e-3)):
        other = grid.run("mod_add", replace(run, **change))
        assert other.warmup is first.warmup
    assert calls == [run]
    grid.run("mod_add", replace(run, batch_size=3))
    assert len(calls) == 2


def test_cross_task_matrix_builds_each_split_once(base, monkeypatch):
    cfg, state = base
    kinds = []

    def counting(spec, max_seq):
        kinds.append(spec.kind)
        return make_task(spec, max_seq)

    monkeypatch.setattr(pipeline, "make_task", counting)
    cross_task_matrix(cfg, tiny_specs(), state, tiny_run(epochs=0))
    assert kinds == [spec.kind for spec in tiny_specs()]


# -------------------------------------------------------------- ablations

def test_ablate_rejects_unknown_field_and_empty_arms(base, monkeypatch):
    cfg, state = base
    ran = []
    monkeypatch.setattr(pipeline, "finetune", lambda *a, **k: ran.append(a))
    for arms in ({"plan_k=1": {"plan_k": 1}, "dropout=0.1": {"dropout": 0.1}},
                 {"seed=3": {"seed": 3}}, {}):
        with pytest.raises(ConfigError):
            ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(), arms)
    assert ran == []


def test_ablate_plan_k_axis_rows_and_summary(base, tmp_path):
    cfg, state = base
    arms = {"plan_k=1": {"plan_k": 1}, "plan_k=2": {"plan_k": 2}}
    rows = ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(epochs=1), arms,
                  out_dir=tmp_path)
    value_rows = [r for r in rows if r["seed"] != "summary"]
    summaries = [r for r in rows if r["seed"] == "summary"]
    assert [r["arm"] for r in value_rows] == [r["arm"] for r in summaries] == list(arms)
    for r in value_rows:
        assert "acc_after" in r and "hit_rate" in r
    assert (tmp_path / "ablation.csv").read_text().startswith("arm,seed,task,")
    assert (tmp_path / "ablation.md").exists()


def test_ablate_warmup_axis_reports_plan_agreement(base):
    cfg, state = base
    rows = ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(epochs=1),
                  {"warmup_pct=5.0": {"warmup_pct": 5.0},
                   "warmup_pct=100.0": {"warmup_pct": 100.0},
                   "plan_k=1": {"plan_k": 1}})
    low, row, other = [r for r in rows if r["seed"] != "summary"]
    # p=100 against the p=100 reference plan must agree perfectly
    assert row["jaccard_vs_full"] == 1.0
    assert row["coverage_pct"] == 100.0
    # at this base the p=5 plan differs from the p=100 one in a third of a layer
    assert low["jaccard_vs_full"] == pytest.approx(2 / 3)
    assert low["coverage_pct"] == 75.0
    # an arm that leaves warmup_pct alone reports no agreement
    assert not {"jaccard_vs_full", "coverage_pct"} & set(other)


def test_ablate_targets_axis(base):
    cfg, state = base
    rows = ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(epochs=1),
                  {name: TARGET_CHOICES[name] for name in ("attention_only", "all_kinds")})
    by_arm = {r["arm"]: r for r in rows if r["seed"] != "summary"}
    assert "hit_rate" not in by_arm["attention_only"]
    assert "hit_rate" in by_arm["all_kinds"]
    assert by_arm["attention_only"]["trainable"] < by_arm["all_kinds"]["trainable"]


@pytest.mark.parametrize("axis,values", [("plan_k", [1, 2]),
                                         ("targets", ["experts_only", "gate_only"]),
                                         ("warmup_pct", [50.0])])
def test_ablate_random_strategy_on_every_axis(base, axis, values):
    cfg, state = base
    names = [f"{axis}={v}" for v in values]
    generated = axis_arms(cfg, [axis])
    arms = {name: generated[name] for name in names}
    rows = ablate(cfg, tiny_specs(), "mod_add", state,
                  tiny_run(epochs=1, strategy="random"), arms)
    value_rows = [r for r in rows if r["seed"] != "summary"]
    assert [r["arm"] for r in value_rows] == names
    assert all("hit_rate" in r for r in value_rows if r["arm"] != "targets=gate_only")


def test_ablate_warms_up_once_per_seed_and_fraction(base, monkeypatch):
    cfg, state = base
    calls = []

    def counting(cfg, state, train, run):
        calls.append((run.seed, run.warmup_pct))
        return run_warmup(cfg, state, train, run)

    monkeypatch.setattr(pipeline, "run_warmup", counting)
    ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(epochs=0),
           {**{f"strategy={s}": {"strategy": s} for s in ("layer_hot", "cold")},
            **{f"warmup_pct={p}": {"warmup_pct": p} for p in (25.0, 50.0, 100.0)}},
           seeds=[0, 1])
    assert sorted(calls) == [(s, p) for s in (0, 1) for p in (25.0, 50.0, 100.0)]
    # without a plan there is nothing to warm up for, and no plan columns
    calls.clear()
    rows = ablate(cfg, tiny_specs(), "mod_add", state,
                  tiny_run(epochs=1, experts="all"),
                  {"strategy=layer_hot": {"strategy": "layer_hot"},
                   "warmup_pct=50.0": {"warmup_pct": 50.0}})
    assert calls == []
    for row in rows:
        assert not {"hit_rate", "jaccard_vs_full", "coverage_pct"} & set(row)


def _assert_arm_row_matches_run_end_to_end(base, overrides):
    cfg, state = base
    for scheme in ("lora", "lori_s"):
        run = tiny_run(epochs=1, scheme=scheme)
        row = ablate(cfg, tiny_specs(), "mod_add", state, run, {"arm": overrides})[0]
        rep = run_end_to_end(cfg, tiny_specs(), "mod_add", state,
                             replace(run, **overrides)).report
        assert row["acc_after"] == rep.acc_after["mod_add"], scheme
        assert row["trainable"] == rep.params.trainable, scheme
        assert row["reduction_pct"] == rep.flops.reduction_pct, scheme
        assert row.get("hit_rate") == rep.hit_rate, scheme


def test_ablate_plan_k_row_matches_run_end_to_end(base):
    _assert_arm_row_matches_run_end_to_end(base, {"plan_k": 1})


def test_ablate_multi_field_arm_matches_run_end_to_end(base):
    # LoRA on every expert at rank 1: the budget-matched baseline arm
    _assert_arm_row_matches_run_end_to_end(base, {"experts": "all", "rank": 1})


def test_ablate_multi_seed_summary_stats(base):
    cfg, state = base
    rows = ablate(cfg, tiny_specs(), "mod_add", state, tiny_run(epochs=1),
                  {"strategy=layer_hot": {"strategy": "layer_hot"}}, seeds=[0, 1])
    summaries = [r for r in rows if r["seed"] == "summary"]
    assert len(summaries) == 1
    assert summaries[0]["n"] == 2
    assert "acc_std" in summaries[0]


# ------------------------------------------------------------ table writers

def test_row_writers_deterministic(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "c": "x"}]
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_rows_csv(p1, rows)
    write_rows_csv(p2, rows)
    assert p1.read_bytes() == p2.read_bytes()
    head = p1.read_text().splitlines()[0]
    assert head == "a,b,c"
    m = tmp_path / "r.md"
    write_rows_markdown(m, rows)
    lines = m.read_text().splitlines()
    assert lines[0] == "| a | b | c |"
    assert len(lines) == 4


def test_row_writers_reject_empty(tmp_path):
    with pytest.raises(ConfigError):
        write_rows_csv(tmp_path / "x.csv", [])


# ------------------------------------------------------------- cross-task

def test_cross_task_matrix_complete(base, tmp_path):
    cfg, state = base
    specs = tiny_specs()
    out = cross_task_matrix(cfg, specs, state, tiny_run(epochs=1),
                            out_dir=tmp_path)
    kinds = {s.kind for s in specs}
    assert set(out["acc"]) == kinds
    for adapt in kinds:
        assert set(out["acc"][adapt]) == kinds
    assert set(out["plans"]) == kinds
    assert ("mod_add", "transduce") in out["plan_jaccard"]
    j = out["plan_jaccard"][("mod_add", "transduce")]
    assert 0.0 <= j <= 1.0
    assert (tmp_path / "cross_task.csv").exists()
