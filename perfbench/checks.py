"""Output checks: a pass against the stored reference and against the run's first pass.

Against the reference, everything but the loss curves must match exactly:
the plan, acc_before and acc_after, the step count, the parameter and
FLOP reports, hit_rate, and for pretrain the parameter count and the
per-task routing profiles. Loss curves must match within LOSS_RTOL, so a
change that only reorders floating-point sums still passes.

Between two passes of one run, every output must be bitwise equal and
every artifact byte-identical (the determinism contract).
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Relative tolerance on every loss value. Computing each forward matmul
# with np.einsum instead of BLAS (another summation order, nothing else
# changed) moved the losses by at most 3.8e-16 relative over one seed-0
# pass of each workload, while every exact output stayed equal. The bound
# leaves six orders of magnitude for changes that reorder more sums; a
# real change to the arithmetic moves losses by far more.
LOSS_RTOL = 1e-9


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    """The stored desk-scale reference outputs for a seed, or None."""
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def compare(got: dict, want: dict) -> list[str]:
    """Mismatches of one pass's outputs against reference outputs."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key == "losses":
            continue
        if got.get(key) != want.get(key):
            problems.append(f"{key}: got {_short(got.get(key))}, "
                            f"expected {_short(want.get(key))}")
    got_l, want_l = got.get("losses", {}), want.get("losses", {})
    for curve in sorted(set(got_l) | set(want_l)):
        a, b = got_l.get(curve, []), want_l.get(curve, [])
        if len(a) != len(b):
            problems.append(f"losses.{curve}: {len(a)} values, expected {len(b)}")
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            if not abs(x - y) <= LOSS_RTOL * abs(y):
                problems.append(f"losses.{curve}[{i}]: got {x!r}, expected {y!r}")
                break
    return problems


def compare_passes(got: dict, got_artifacts: dict, first: dict,
                   first_artifacts: dict) -> list[str]:
    """Mismatches of a pass against the run's first successful pass."""
    problems = [f"{key} differs from the first pass"
                for key in sorted(set(got) | set(first))
                if got.get(key) != first.get(key)]
    problems += [f"{name} is not byte-identical to the first pass's"
                 for name in sorted(set(got_artifacts) | set(first_artifacts))
                 if got_artifacts.get(name) != first_artifacts.get(name)]
    return problems


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 120 else text[:117] + "..."
