"""Record the reference outputs that perfbench/run.py checks passes against.

Usage, from the root of a checkout:

    python3 perfbench/record_reference.py --workload adapt_mod_add --seeds 0-31

For each seed this sets the workload up once, runs one pass at desk scale
and stores the pass's outputs in perfbench/reference/<workload>.json,
keeping the entries of other seeds. Record on a commit whose outputs are
known to be right; a commit that changes results on purpose records again
and says so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import workloads
from run import BLAS_THREAD_VARS, Runner, load_hotmoe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = ap.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    hm = load_hotmoe()
    path = checks.reference_path(args.workload)
    stored = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
    for seed in range(int(lo), int(hi or lo) + 1):
        runner = Runner(hm, args.workload, seed)
        runner.reference = None
        try:
            _, st = runner.setup("setup")
            rec = runner.run_pass(st)
        finally:
            runner.close()
        if not rec.ok:
            print(f"seed {seed}: pass failed, nothing recorded", file=sys.stderr)
            return 1
        stored["seeds"][str(seed)] = rec.outputs
        print(f"seed {seed}: recorded ({rec.seconds:.2f} s)")
    stored["seeds"] = dict(sorted(stored["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
