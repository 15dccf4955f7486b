"""Host-time benchmark for multitude-sim: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The program is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2 and prints no
result.  The master seed builds every config the program receives.

A run first times set-up in fresh processes and runs a tiny untimed warm-up
of every kind of call.  It then repeats passes over the workload until
``--seconds`` is spent; a pass is not cut, so a run makes at least one.  With
``--trace 0`` passes run untraced and give the end-to-end metrics; with
``--trace 1`` a traced pass comes first, then untraced and traced passes
alternate, and give the per-layer metrics, the work counters (which the
traced passes must repeat) and the tracing overhead.  Every pass's output is
checked against invariants, against the first pass, and against the golden
digests when ``golden.json`` holds the seed.  Human-readable lines come
first; the last stdout line is the JSON result.  The result, the run
environment and the last traced pass's spans are also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

SETUP_REPEATS = 7
# fresh interpreter: import the package and build one small fabric
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, 'src'); import multitude_sim as m; "
    "m.build(m.TopologyConfig('3DRMStandard', 64, 64, seed={seed}))"
)


def import_program():
    """Import multitude_sim from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "multitude_sim" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'multitude_sim'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import multitude_sim

    if not Path(multitude_sim.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: multitude_sim resolved to {multitude_sim.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def load_avg() -> float:
    return float(Path("/proc/loadavg").read_text().split()[0])


def host_ref_ms(repeats: int = 9) -> float:
    """Median time of a fixed pure-Python loop, in ms.

    It shows changes in the host's speed, such as neighbours on a shared
    host, which a VM's load average does not show.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        sum(i * i % 7 for i in range(200_000))
        times.append(perf_counter() - t0)
    return median(times) * 1e3


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def time_setup(seed: int, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall time of fresh-process import plus the first small build, per repeat.

    One untimed process runs first, so every timed one finds the bytecode
    cache written and the files in the page cache, as a user's second run does.
    """
    from workloads import sub_seed

    cmd = [sys.executable, "-c", SETUP_SNIPPET.format(seed=sub_seed(seed, "setup"))]
    times = []
    for _ in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times[1:]


class Pass:
    """One closed-loop pass over a workload's calls."""

    def __init__(self, calls, tracer=None):
        self.outputs: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        run = self._run_calls
        gc.collect()  # garbage left by an earlier pass is not charged to this one
        t0 = perf_counter()
        if tracer is None:
            run(calls)
        else:
            with tracer.installed():
                tracer.wrap("bench", run)(calls)
        self.wall_s = perf_counter() - t0

    def _run_calls(self, calls) -> None:
        for call in calls:
            try:
                self.outputs[call.label] = call()
            except Exception:  # a failing call fails its points; the pass goes on
                self.errors[call.label] = traceback.format_exc()


def judge(p: Pass, calls, expected: set[str] | None) -> tuple[dict[str, str], dict[str, str]]:
    """(cell digests, failing cells with reasons) for one pass."""
    from workloads import digest

    cells: dict[str, str] = {}
    bad: dict[str, str] = {}
    errors = {label: tb.splitlines()[-1] for label, tb in p.errors.items()}
    for call in calls:
        text = p.outputs.get(call.label)
        if text is None:
            continue
        try:
            for key, rows in call.cells(text).items():
                cells[key] = digest("\n".join(",".join(r) for r in rows))[:16]
            bad.update(call.problems(text))
        except (ValueError, IndexError, KeyError) as exc:  # output no longer parses
            errors[call.label] = f"unreadable output: {exc!r}"
    for label, why in errors.items():
        own = {k for k in expected or () if k.split("|", 1)[0] == label}
        bad.update({k: why for k in own} or {label: why})
    if expected is not None:
        bad.update({k: "point missing from output" for k in expected - cells.keys() - bad.keys()})
        bad.update({k: "unexpected point" for k in cells.keys() - expected})
    return cells, bad


def measure(workload, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    """Run passes for ``seconds`` and reduce them to metrics, counters and checks."""
    from spans import Tracer
    from workloads import NUMPY_REPR, TINY, digest, sub_seed

    warm_up = Pass(TINY.calls(sub_seed(seed, "warm-up")))  # untimed: lazy set-up, allocator
    for label, tb in warm_up.errors.items():
        print(f"perfbench: warm-up call {label} raised: {tb.splitlines()[-1]}", file=sys.stderr)
    calls = workload.calls(seed)
    recorded = golden.get(workload.name, {})
    want = recorded.get(str(seed))
    any_seed = next(iter(recorded.values()), None)
    expected = set(any_seed["cells"]) if any_seed else None

    kinds = ("plain", "traced") if trace else ("plain",)
    passes: dict[str, list[Pass]] = {k: [] for k in kinds}
    tracers: list = []

    def run_pass(kind: str) -> None:
        tracer = Tracer() if kind == "traced" else None
        passes[kind].append(Pass(calls, tracer))
        if tracer is not None:
            tracers.append(tracer)

    t_start = perf_counter()
    if trace:
        # a leading traced pass: the first cycle then gives the two traced
        # passes whose work counters are compared, for one untraced pass
        run_pass("traced")
    while True:
        for kind in kinds:
            run_pass(kind)
        elapsed = perf_counter() - t_start
        cycle = elapsed / len(passes["plain"])
        if elapsed + cycle > seconds:
            break

    all_passes = [p for kind in kinds for p in passes[kind]]
    judged = [judge(p, calls, expected) for p in all_passes]
    first_cells = judged[0][0]
    points = len(expected) if expected is not None else len(first_cells)
    failures: dict[str, str] = {}
    attempted = failed = 0
    for cells, bad in judged:
        for key, d in cells.items():
            if key not in bad and d != first_cells.get(key):
                bad[key] = "output differs between passes"
            elif key not in bad and want is not None and d != want["cells"].get(key):
                bad[key] = "output differs from the golden digest"
        attempted += points
        failed += len(bad)
        failures.update(bad)

    plain_wall = median(p.wall_s for p in passes["plain"])
    result = {
        "workload": workload.name,
        "seed": seed,
        "pass_walls_s": {k: [p.wall_s for p in v] for k, v in passes.items()},
        "points_per_pass": points,
        "attempted": attempted,
        "failed": failed,
        "failures": dict(sorted(failures.items())[:20]),
        "digests": {
            label: digest(text) for label, text in all_passes[0].outputs.items()
        },
        "golden": "not recorded" if want is None else "checked",
        "numpy_repr_fields": sum(t.count(NUMPY_REPR) for t in all_passes[0].outputs.values()),
        "end_to_end": {
            "wall_s": plain_wall,
            "points_per_s": points / plain_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "failed_share": failed / attempted,
        },
    }
    counter_mismatch: list[str] = []
    if trace:
        summaries = [t.summary() for t in tracers]
        counter_sets = [work_counters(sm, calls, p) for sm, p in zip(summaries, passes["traced"])]
        counters = counter_sets[0]
        counter_mismatch = [k for k in counters if any(c[k] != counters[k] for c in counter_sets)]
        times = {k: median(sm[k] for sm in summaries) for k in summaries[0] if k not in counters}
        traced_wall = median(p.wall_s for p in passes["traced"])
        result["per_layer"] = {
            **times,
            **counters,
            "traced_wall_s": traced_wall,
            "trace_overhead_s": traced_wall - plain_wall,
            "sim_steps_per_s": counters["simcore.steps"] / plain_wall,
        }
        result["counter_mismatch"] = counter_mismatch
        if want is not None and want["counters"] != counters:
            result["counters_vs_golden"] = "differ from golden.json (informational)"
        result["tracer"] = tracers[-1]
    result["correct"] = failed == 0 and not counter_mismatch
    return result


def work_counters(summary: dict, calls, p: Pass) -> dict:
    """The exact work counts of one traced pass, ``harness.points`` included."""
    from workloads import HarnessCall

    counts = {k: v for k, v in summary.items() if not k.endswith(("_s", "_us"))}
    counts["harness.points"] = sum(
        len(call.cells(p.outputs[call.label]))
        for call in calls
        if isinstance(call, HarnessCall) and call.label in p.outputs
    )
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}

    env = environment()
    env["load_1min_before"] = load_avg()
    env["host_ref_ms_before"] = host_ref_ms()
    setup = time_setup(args.seed)
    res = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), golden)
    env["load_1min_after"] = load_avg()
    env["host_ref_ms_after"] = host_ref_ms()
    res["end_to_end"]["setup_s"] = median(setup)
    res["setup_runs_s"] = setup
    res["env"] = env

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = res.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")
    (OUT / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_share"] = "share"
    counts = {k: len(v) for k, v in res["pass_walls_s"].items()}
    print(f"workload {args.workload}  seed {args.seed}  passes {counts}  env {json.dumps(env)}")
    for name, value in {**res["end_to_end"], **res.get("per_layer", {})}.items():
        print(f"  {name:32s} {value:<14.6g} {units[name]}")
    for label, d in res["digests"].items():
        print(f"  digest {label:24s} {d}")
    print(f"  golden: {res['golden']}; failed {res['failed']} of {res['attempted']} points")
    if res["numpy_repr_fields"]:
        print(f"  note: {res['numpy_repr_fields']} CSV fields are rendered as np.float64(...) by the harness")
    for key, why in res["failures"].items():
        print(f"  FAILED {key}: {why}", file=sys.stderr)
    if res.get("counter_mismatch"):
        print(f"  counters differ between traced passes: {res['counter_mismatch']}", file=sys.stderr)
    if "counters_vs_golden" in res:
        print(f"  counters {res['counters_vs_golden']}", file=sys.stderr)
    print(json.dumps(result_line(res, bench, bool(args.trace))))
    return 0 if res["correct"] else 1


def result_line(res: dict, bench: dict, trace: bool) -> dict:
    """The last stdout line: every per-layer (trace) or end-to-end metric of BENCHMARK.json."""
    values = {**res["end_to_end"], **res.get("per_layer", {})}
    section = bench["per_layer" if trace else "end_to_end"]
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section},
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
