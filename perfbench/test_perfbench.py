"""The benchmark's own tests.

A tiny-scale pass of every workload, untraced and traced, must be correct
and report every metric BENCHMARK.json names. A planted wrong plan and a
planted wrong accuracy must each count as failed passes. The speed
sampler must take its probes out of the time and scale by them.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time

import pytest

import checks
import run
import speed
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hm():
    return run.load_hotmoe()


def tiny_run(hm, name: str, trace: bool = False, reference: dict | None = None):
    runner = run.Runner(hm, name, 0, scale="tiny", reference=reference)
    try:
        metrics = runner.measure(0.0, trace)
    finally:
        runner.close()
    return runner.result(metrics, trace)


def tiny_reference(hm, name: str) -> dict:
    runner = run.Runner(hm, name, 0, scale="tiny")
    try:
        _, st = runner.setup("setup")
        rec = runner.run_pass(st)
    finally:
        runner.close()
    assert rec.ok, rec.problems
    return rec.outputs


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_of_every_workload(hm, name, trace):
    result = tiny_run(hm, name, trace, reference=tiny_reference(hm, name))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_planted_wrong_plan_fails(hm, monkeypatch):
    reference = tiny_reference(hm, "adapt_mod_add")
    select = hm.pipeline.select

    def wrong_select(profile, k, strategy, seed=None):
        plan = select(profile, k, strategy, seed)
        hot = [list(h) for h in plan.hot]
        hot[0][0] = next(e for e in range(profile.n_experts) if e not in hot[0])
        return type(plan)(hot=hot, k=plan.k, strategy=plan.strategy, seed=plan.seed)

    monkeypatch.setattr(hm.pipeline, "select", wrong_select)
    result = tiny_run(hm, "adapt_mod_add", reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_planted_wrong_accuracy_fails(hm, monkeypatch):
    reference = tiny_reference(hm, "adapt_transduce_lori_s")
    evaluate = hm.pipeline.evaluate
    monkeypatch.setattr(hm.pipeline, "evaluate",
                        lambda fn, ds, batch_size=64: evaluate(fn, ds, batch_size) + 0.125)
    result = tiny_run(hm, "adapt_transduce_lori_s", reference=reference)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2


def test_loss_tolerance():
    want = {"steps": 2, "losses": {"pretrain": [3.5, 2.25]}}
    near = {"steps": 2, "losses": {"pretrain": [3.5 * (1 + 1e-12), 2.25]}}
    far = {"steps": 2, "losses": {"pretrain": [3.5 * (1 + 1e-6), 2.25]}}
    assert checks.compare(near, want) == []
    assert len(checks.compare(far, want)) == 1
    assert len(checks.compare({**near, "steps": 3}, want)) == 1


def test_speed_sampler_scales_by_the_probes():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with speed.SpeedSampler() as clock:
        busy(0.35)
    assert len(clock.probes) >= 4          # before, after and the timer's
    assert 0.3 < clock.wall_s < 0.35       # the probes are taken out
    factor = sum(speed.PROBE_REF_S / p for p in clock.probes) / len(clock.probes)
    assert clock.scaled_s == pytest.approx(clock.wall_s * factor)
    with speed.SpeedSampler(enabled=False) as plain:
        busy(0.05)
    assert plain.scaled_s == plain.wall_s >= 0.05 and not plain.probes


def test_missing_program_is_an_import_error(tmp_path):
    with pytest.raises(ImportError):
        run.load_hotmoe(tmp_path)
