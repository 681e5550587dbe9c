"""hotmoe benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload adapt_mod_add --seed 0 --seconds 40 --trace 0

The benchmark imports hotmoe from the checkout's src/ and calls its public
entry points (pretrain_base, load_checkpoint, run_end_to_end). It sets up
the workload, then runs timed passes until the next one would overrun
--seconds (at least two), setting the workload up again between passes
to time set-up, checks every pass's outputs and prints as its last line
one JSON object:

    {"correct": ..., "attempted": passes, "failed": passes, "metrics": {...}}

With --trace 0 the metrics are end to end: setup_s (median set-up time,
see SETUP_SAMPLES), run_s (median pass time) and peak_rss_mb (this
process's resident high-water mark). Both times are wall times scaled to
a fixed reference machine speed that a probe measures while they run
(perfbench/speed.py), so that the shared host's shifting speed does not
show as a change of the program; the summary line before the result
also lists every pass's unscaled wall time. The fail rate is
failed / attempted. With --trace 1 the run alternates untraced and
traced passes, both timed by wall clock alone, and reports the per-layer
metrics that perfbench/tracing.py derives from the traced spans; the
spans and a self-time table are written under .bench_out/trace/.

A pass fails if it raises, if its outputs differ from the reference stored
for the seed in perfbench/reference/, or if its outputs or artifacts differ
from the run's first pass. For a seed without a stored reference only the
pass-to-pass check applies. Exact counts from traced runs are kept under
.bench_out/counts/ per seed and source version, and any difference from
an earlier run makes the run incorrect.

BLAS runs on one thread so that load comes from one single-threaded
process and results do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median of SETUP_SAMPLES samples, each the mean time of
# enough set-ups to add up to SETUP_SAMPLE_S. The set-ups run in chunks
# between the passes and are dealt to the samples in turn, so every sample
# spans the whole run. On a shared 2-core VM the CPU speed was seen to shift
# by up to half for seconds at a time; a set-up of a few milliseconds timed
# in one burst would catch only one of those speeds.
SETUP_SAMPLES = 3
SETUP_SAMPLE_S = 0.5
HOTMOE_MODULES = ("tensor", "model", "pipeline", "optim", "checkpoint",
                  "config", "tasks", "profiler")


def load_hotmoe(root: Path = ROOT) -> SimpleNamespace:
    """Import hotmoe from root/src, never from anywhere else."""
    src = (root / "src").resolve()
    if not (src / "hotmoe" / "__init__.py").is_file():
        raise ImportError(f"no hotmoe package under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"hotmoe.{name}") for name in HOTMOE_MODULES}
    origin = Path(mods["tensor"].__file__).resolve()
    if not origin.is_relative_to(src):
        raise ImportError(f"hotmoe was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


@dataclass
class PassRecord:
    seconds: float                 # wall, or scaled if Runner.speed_scaled
    wall: float
    traced: bool
    outputs: dict | None = None
    artifacts: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    stats: dict | None = None

    @property
    def ok(self) -> bool:
        return self.outputs is not None and not self.problems


class Runner:
    """Sets up one workload and runs, checks and times its passes."""

    def __init__(self, hm, workload: str, seed: int, scale: str = "desk",
                 reference: dict | None = None, root: Path = ROOT):
        self.hm = hm
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.root = root
        self.full = workloads.load_config(hm, root, scale, self.wl, seed)
        if reference is None and scale == "desk":
            reference = checks.load_reference(workload, seed)
        self.reference = reference
        self.passes: list[PassRecord] = []
        self.notes: list[str] = []
        # Untraced runs time at the reference speed (speed.py); traced runs
        # time wall clock only, so the probe never lands inside a span.
        self.speed_scaled = False
        (root / ".bench_out").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                          dir=root / ".bench_out"))

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def setup(self, tag: str):
        """One set-up into a fresh directory; returns (seconds, Setup)."""
        with speed.SpeedSampler(self.speed_scaled) as clock:
            st = workloads.setup(self.hm, self.wl, self.full, self.scale,
                                 self.work / tag)
        return clock.scaled_s, st

    def run_pass(self, st, tracer=None) -> PassRecord:
        out_dir = self.work / f"pass{len(self.passes)}"
        if tracer is not None:
            tracer.reset()
            tracer.install(self.hm)
        clock = speed.SpeedSampler(self.speed_scaled)
        try:
            with clock:
                result = workloads.run_pass(self.hm, self.wl, st, self.scale, out_dir)
            rec = PassRecord(clock.scaled_s, clock.wall_s, tracer is not None)
            rec.outputs, rec.artifacts, rec.problems = workloads.outputs(
                self.hm, self.wl, result, out_dir)
        except Exception:  # a pass that raises counts as failed; keep measuring
            rec = PassRecord(clock.scaled_s, clock.wall_s, tracer is not None)
            rec.problems.append("raised: " + traceback.format_exc(limit=-1).strip()
                                .splitlines()[-1])
            print(traceback.format_exc(), file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None and rec.outputs is not None:
            spans = tracer.reset()
            rec.stats = tracing.pass_stats(spans)
            self._write_spans(spans, len(self.passes))
        if rec.outputs is not None:
            if self.reference is not None:
                rec.problems += checks.compare(rec.outputs, self.reference)
            first = next((p for p in self.passes if p.outputs is not None), None)
            if first is not None:
                rec.problems += checks.compare_passes(
                    rec.outputs, rec.artifacts, first.outputs, first.artifacts)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.passes.append(rec)
        for problem in rec.problems:
            print(f"pass {len(self.passes) - 1} failed: {problem}", file=sys.stderr)
        return rec

    def _write_spans(self, spans: list, index: int) -> None:
        trace_dir = self.root / ".bench_out" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = trace_dir / f"{self.wl.name}-seed{self.seed}-pass{index}"
        with open(f"{stem}.spans.csv", "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, t0, t1, parent, _) in enumerate(spans):
                fh.write(f"{i},{parent},{name},{t0},{t1}\n")
        Path(f"{stem}.self.json").write_text(
            json.dumps(tracing.self_times(spans), indent=1, sort_keys=True) + "\n")

    def measure(self, seconds: float, trace: bool) -> dict[str, float]:
        """Set up, run passes for about `seconds`, and return the metrics."""
        if not trace:
            self.speed_scaled = True
            first, st = self.setup("setup0")
            n_setups = SETUP_SAMPLES * max(1, math.ceil(SETUP_SAMPLE_S / first))
            chunk = math.ceil(n_setups / (2 * SETUP_SAMPLES))
            times, digests = [first], {st.base_digest}

            def more_setups():
                for _ in range(min(chunk, n_setups - len(times))):
                    t, other = self.setup(f"setup{len(times)}")
                    times.append(t)
                    digests.add(other.base_digest)

            self._loop(seconds, lambda: (self.run_pass(st), more_setups()))
            while len(times) < n_setups:
                more_setups()
            if len(digests) != 1:
                self.notes.append("set-ups built different base checkpoints")
            samples = [statistics.fmean(times[i::SETUP_SAMPLES])
                       for i in range(SETUP_SAMPLES)]
            good = ([p.seconds for p in self.passes if p.ok]
                    or [p.seconds for p in self.passes])
            return {
                "setup_s": statistics.median(samples),
                "run_s": statistics.median(good),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        tracer = tracing.Tracer()
        tracer.install(self.hm)
        try:
            _, st = self.setup("setup0")
        finally:
            tracer.uninstall()
        setup_spans = tracer.reset()
        self._loop(seconds, lambda: [self.run_pass(st), self.run_pass(st, tracer)])
        traced = [p for p in self.passes if p.traced and p.ok]
        untraced = [p.seconds for p in self.passes if not p.traced and p.ok]
        if not traced or not untraced:
            raise RuntimeError("no traced and untraced pass succeeded")
        stats = [p.stats for p in traced]
        self._check_counts(stats)
        return tracing.layer_metrics(setup_spans, stats, untraced,
                                     [p.seconds for p in traced])

    def _loop(self, seconds: float, one_round) -> None:
        """Run rounds until the next one would overrun; at least two passes."""
        start = time.perf_counter()
        round_s: list[float] = []
        while True:
            t0 = time.perf_counter()
            one_round()
            round_s.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if (len(self.passes) >= 2
                    and elapsed + statistics.median(round_s) > seconds):
                return

    def _check_counts(self, stats: list[dict]) -> None:
        """Exact counts must agree between traced passes and with earlier runs."""
        counts = {k: stats[0]["counts"][k] for k in tracing.EXACT_COUNTS}
        for i, s in enumerate(stats[1:], 1):
            for k in tracing.EXACT_COUNTS:
                if s["counts"][k] != counts[k]:
                    self.notes.append(f"exact count {k} differs between traced passes "
                                      f"0 and {i}: {counts[k]!r} vs {s['counts'][k]!r}")
        path = (self.root / ".bench_out" / "counts"
                / f"{self.wl.name}-{self.scale}-seed{self.seed}-{source_version(self.root)}.json")
        if path.is_file():
            earlier = json.loads(path.read_text())
            for k in tracing.EXACT_COUNTS:
                if earlier.get(k) != counts[k]:
                    self.notes.append(f"exact count {k} differs from an earlier run: "
                                      f"{counts[k]!r} vs {earlier.get(k)!r}")
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")

    def result(self, metrics: dict[str, float], trace: bool) -> dict:
        """The result line; metrics and units as BENCHMARK.json lists them."""
        bench = json.loads((self.root / "BENCHMARK.json").read_text())
        listed = bench["per_layer" if trace else "end_to_end"]
        if {m["name"] for m in listed} != set(metrics):
            raise RuntimeError("measured metrics differ from BENCHMARK.json's list")
        attempted = len(self.passes)
        failed = sum(1 for p in self.passes if not p.ok)
        return {"correct": failed == 0 and not self.notes,
                "attempted": attempted, "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                            for m in listed}}


def source_version(root: Path = ROOT) -> str:
    """Short digest of the program's, the configs' and the benchmark's source
    files; it stands in for a commit where there is no git checkout."""
    h = hashlib.sha256()
    for pattern in ("src/hotmoe/*.py", "configs/*.cfg", "perfbench/*.py"):
        for path in sorted(root.glob(pattern)):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def environment(root: Path = ROOT) -> dict:
    import numpy  # imported late: the BLAS thread variables must be set first
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(root),
        "source": source_version(root),
    }


def git_commit(root: Path = ROOT) -> str:
    """HEAD's commit read from root/.git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        hm = load_hotmoe()
    except ImportError as e:
        print(f"perfbench: cannot import hotmoe: {e}", file=sys.stderr)
        return 2
    runner = Runner(hm, args.workload, args.seed)
    try:
        metrics = runner.measure(args.seconds, bool(args.trace))
    finally:
        runner.close()
    result = runner.result(metrics, bool(args.trace))
    print("env " + json.dumps(environment(), sort_keys=True))
    if runner.reference is None:
        print(f"reference: none stored for seed {args.seed}; "
              "passes were checked against each other only")
    for note in runner.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    good = [p for p in runner.passes if p.ok and not p.traced]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={result['attempted']} failed={result['failed']} "
          f"fail_rate={result['failed'] / result['attempted']!r} "
          f"untraced_pass_s={[round(p.seconds, 4) for p in good]} "
          f"untraced_pass_wall_s={[round(p.wall, 4) for p in good]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
