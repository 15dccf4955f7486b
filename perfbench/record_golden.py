"""Record golden output digests and work counters into perfbench/golden.json.

    python3 perfbench/record_golden.py --seeds 0 1 2 [--workloads fabric-512 ...]

For each (workload, seed) this runs one traced pass, refuses to record a pass
whose output breaks an invariant, and stores per-call sha256 digests (the
CSV text, or the metrics and ``SimStats`` rows for ``fabric-512``), per-point
digests and the exact work counters.  Record only at a commit whose outputs
are trusted: ``run.py`` counts every point that differs as failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import GOLDEN, Pass, import_program, judge, work_counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args()
    import_program()
    from spans import Tracer
    from workloads import WORKLOADS, digest

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for name in args.workloads or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            calls = workload.calls(seed)
            tracer = Tracer()
            p = Pass(calls, tracer)
            cells, bad = judge(p, calls, None)
            if bad or p.errors:
                print(f"{name} seed {seed}: not recorded, {bad or p.errors}", file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = {
                "calls": {label: digest(text) for label, text in p.outputs.items()},
                "cells": cells,
                "counters": work_counters(tracer.summary(), calls, p),
            }
            print(f"{name} seed {seed}: {len(cells)} points, {p.wall_s:.1f} s", flush=True)
            GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
