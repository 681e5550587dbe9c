"""Repeat the benchmark over seeds and summarise every metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 0-9 --trace-seeds 0-1 --out perfbench/baseline.json

For each workload in BENCHMARK.json (or --workloads a,b) this runs
perfbench/run.py once per seed with --trace 0 and once per trace seed
with --trace 1, one process at a time, for BENCHMARK.json's run_seconds.
It prints for each end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile spread as a
share of the median, and for each per-layer metric the median. --out
writes the same summary, with the environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1)) if text else []


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process; returns (result line, environment record)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), {})
    return json.loads(lines[-1]), env


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9", help="inclusive range for --trace 0 runs")
    ap.add_argument("--trace-seeds", default="", help="inclusive range for --trace 1 runs")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    summary: dict = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        e2e: dict[str, list[float]] = {}
        layers: dict[str, list[float]] = {}
        runs = []
        for trace, seeds in ((0, seed_range(args.seeds)), (1, seed_range(args.trace_seeds))):
            for seed in seeds:
                result, env = run_once(workload, seed, seconds, trace)
                summary.setdefault("env", env)
                ok &= result["correct"]
                runs.append({"seed": seed, "trace": trace, **result})
                for name, m in result["metrics"].items():
                    (layers if trace else e2e).setdefault(name, []).append(m["value"])
                print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
                      + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                                 if not trace), flush=True)
        entry = {"why": whys.get(workload, ""), "runs": runs,
                 "end_to_end": {k: spread(v) for k, v in e2e.items() if len(v) >= 2},
                 "per_layer": {k: statistics.median(v) for k, v in layers.items()}}
        summary["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} n={s['n']}")
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
