"""The benchmark's four workloads, the calls they make, and output checks.

A workload turns the master seed into a fixed list of calls into the
program's public API.  One pass runs the calls in order, each starting after
the previous one returns (a closed loop with one client).  Every call returns
text, which is cut into cells: one cell per sweep point, i.e. per
(experiment, family, sweep value) for the harness sweeps and per family for
``fabric-512``.  Cells are what the golden digests and ``failed`` count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from multitude_sim import harness, metrics, simcore, topology
from multitude_sim.simcore import Routing, SimConfig
from multitude_sim.topology import TopologyConfig

# the paper's operating point (N = S = 64, k_s = 6, p_I = 0.1, C = 6, M = 100)
# is the harness default; sweeps average 2 replicates per point
SEEDS_PER_POINT = 2
# robustness cost follows how many messages 40 faults trap on 2DCA, which
# varies widely by seed (one replicate's time has a coefficient of variation
# near 0.4); 8 replicates keep one pass's work steady across seeds
ROBUSTNESS_SEEDS_PER_POINT = 8


def sub_seed(master_seed: int, *parts: str) -> int:
    """64-bit seed for one benchmark-built config, from sha256 of the master seed."""
    key = "|".join(["perfbench", str(int(master_seed)), *parts])
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# The harness renders floats with repr(), so a numpy scalar that reaches a row
# is written as "np.float64(<repr>)" (switch-sweep path lengths do so at the
# commit the golden digests were recorded at).  The checks read such a field
# as its number; run.py reports how many there are.
NUMPY_REPR = "np.float64("


def number(field: str) -> float:
    if field.startswith(NUMPY_REPR) and field.endswith(")"):
        field = field[len(NUMPY_REPR) : -1]
    return float(field)


@dataclass(frozen=True)
class HarnessCall:
    """One ``harness.run_experiment`` call; its CSV is cut into sweep points."""

    spec: harness.ExperimentSpec

    @property
    def label(self) -> str:
        return self.spec.experiment

    def __call__(self) -> str:
        return harness.run_experiment(self.spec)

    def cells(self, text: str) -> dict[str, list[list[str]]]:
        """Rows grouped by the columns left of ``seed``, which name the point."""
        header, *lines = text.splitlines()
        width = header.split(",").index("seed")
        out: dict[str, list[list[str]]] = {}
        for line in lines:
            row = line.split(",")
            out.setdefault("|".join([self.label, *row[:width]]), []).append(row)
        return out

    def problems(self, text: str) -> dict[str, str]:
        """Sweep points whose rows break an invariant, with the reason."""
        col = {name: i for i, name in enumerate(text.split("\n", 1)[0].split(","))}
        check = _check_sync if self.label == "sync" else _check_sweep_point
        found = {}
        for key, rows in self.cells(text).items():
            reason = check(rows, col, self.spec)
            if reason:
                found[key] = reason
        return found


def _check_sweep_point(rows, col, spec) -> str | None:
    seed_col = col["seed"]
    *reps, last = rows
    if last[seed_col] == "skipped":
        return None if len(reps) <= spec.seeds_per_point else "too many rows before a skip"
    if last[seed_col] != "mean" or len(reps) != spec.seeds_per_point:
        return f"expected {spec.seeds_per_point} replicate rows and a mean row"
    for name, i in col.items():
        # a mean row zeroes its count columns; its float columns are replicate means
        if i <= seed_col or not any(ch in last[i] for ch in ".en"):
            continue
        want = float(np.mean([number(r[i]) for r in reps]))
        got = number(last[i])
        if not (got == want or (math.isnan(got) and math.isnan(want))):
            return f"mean of {name} is {got!r}, replicates give {want!r}"
    for r in reps:
        for name, (lo, hi) in _RANGES.items():
            if name in col and r[col[name]] != "" and not lo <= number(r[col[name]]) <= hi:
                return f"{name} = {r[col[name]]} outside [{lo}, {hi}]"
        if "injected" in col:
            outcomes = ("delivered", "dropped_ttl", "dropped_buffer", "unreachable")
            if sum(int(r[col[c]]) for c in outcomes) > int(r[col["injected"]]):
                return "more messages accounted for than injected"
    return None


# closed ranges every replicate value must fall in; sweep fabrics are connected
# before faults, and random wandering never drops a message as unreachable
_RANGES = {
    "avg_hops": (0.0, math.inf),
    "avg_path_length": (0.0, math.inf),
    "clustering": (0.0, 1.0),
    "unreachable": (0.0, 0.0),
    "delivery_rate": (0.0, 1.0),
}


def _check_sync(rows, col, spec) -> str | None:
    horizon = spec.horizon if spec.horizon is not None else harness.SYNC_HORIZON
    traces: dict[str, list[list[str]]] = {}
    for r in rows:
        traces.setdefault(r[col["seed"]], []).append(r)
    if len(traces) != spec.seeds_per_point:
        return f"expected {spec.seeds_per_point} traces, got {len(traces)}"
    for trace in traces.values():
        *steps, summary = trace
        if [r[col["step"]] for r in steps] != [str(i) for i in range(horizon + 1)]:
            return "trace steps are not 0..horizon"
        if summary[col["step"]] != "summary":
            return "trace has no summary row"
        if not all(0.0 <= float(r[col["stddev"]]) <= 0.5 for r in steps):
            return "a stddev leaves the [0, 0.5] hull of values in [0, 1]"
    return None


@dataclass(frozen=True)
class FabricCall:
    """build -> metrics.compute_metrics -> simcore.run on one fabric, without harness."""

    topo: TopologyConfig
    sim: SimConfig

    @property
    def label(self) -> str:
        return self.topo.family

    def __call__(self) -> str:
        topo = topology.build(self.topo)
        report = metrics.compute_metrics(topo)
        stats = simcore.run(topo, self.sim)
        extra = (stats.injected, stats.in_flight_at_end, stats.max_buffer_occupancy)
        sim_row = stats.csv_row(topo, self.sim) + "".join(f",{v}" for v in extra)
        return f"{report.csv_row(topo)}\n{sim_row}\n"

    def cells(self, text: str) -> dict[str, list[list[str]]]:
        key = f"{self.label}|{self.topo.n_switch}"
        return {key: [line.split(",") for line in text.splitlines()]}

    def problems(self, text: str) -> dict[str, str]:
        ((key, (report, stats)),) = self.cells(text).items()
        avg_hops, path_length, clustering, unreachable = report[6:10]
        if not (1.0 <= float(avg_hops) and 0.0 < float(path_length) < math.inf):
            return {key: "hop or path-length mean out of range on a connected fabric"}
        if not 0.0 <= float(clustering) <= 1.0 or unreachable != "0":
            return {key: "clustering outside [0, 1] or unreachable pairs on a connected fabric"}
        delivered, ttl, buffer, unreach = map(int, stats[11:15])
        injected, in_flight = int(stats[18]), int(stats[19])
        if delivered + ttl + buffer + unreach + in_flight != injected:
            return {key: "messages are not conserved"}
        return {}


Call = HarnessCall | FabricCall


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[[int], list[Call]]  # master seed -> the pass's calls, in order


def _static_sweeps(seed: int) -> list[Call]:
    return [
        HarnessCall(harness.ExperimentSpec(e, seeds_per_point=SEEDS_PER_POINT, master_seed=seed))
        for e in ("scaling", "alpha-sweep", "switch-sweep")
    ]


def fabric_calls(seed: int, families, size: int, horizon: int) -> list[Call]:
    return [
        FabricCall(
            TopologyConfig(family, size, size, seed=sub_seed(seed, "fabric", family, "topology")),
            SimConfig(
                horizon=horizon,
                routing=Routing.SHORTEST_PATH,
                seed=sub_seed(seed, "fabric", family, "traffic"),
            ),
        )
        for family in families
    ]


def robustness_calls(
    seed: int, families, horizon=None, seeds_per_point=ROBUSTNESS_SEEDS_PER_POINT
) -> list[Call]:
    spec = harness.ExperimentSpec(
        "robustness",
        families=tuple(families),
        sweep_values=(0, 40),
        seeds_per_point=seeds_per_point,
        master_seed=seed,
        horizon=horizon,
    )
    return [HarnessCall(spec)]


def sync_calls(seed: int, families, horizon=None) -> list[Call]:
    spec = harness.ExperimentSpec(
        "sync",
        families=tuple(families),
        seeds_per_point=SEEDS_PER_POINT,
        master_seed=seed,
        horizon=horizon,
    )
    return [HarnessCall(spec)]


def _tiny_calls(seed: int):
    scaling = harness.ExperimentSpec(
        "scaling", families=("2DCA", "3DRMStandard"), sweep_values=(9, 16), seeds_per_point=2,
        master_seed=seed,
    )
    return [
        HarnessCall(scaling),
        *fabric_calls(seed, ("3DCA",), 27, 40),
        *robustness_calls(seed, ("2DCA", "3DRMStandard"), horizon=20, seeds_per_point=4),
        *sync_calls(seed, ("3DRMStandard",), horizon=40),
    ]


# one small call of every kind, so every traced layer does some work; run.py
# runs it untimed before the passes, and selftest.py times it
TINY = Workload("tiny", _tiny_calls)


# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("static-sweeps", _static_sweeps),
        Workload(
            "fabric-512",
            lambda seed: fabric_calls(seed, ("3DRMStandard", "3DRMRealistic", "3DCA"), 512, 500),
        ),
        Workload(
            "wander-faults",
            lambda seed: robustness_calls(seed, ("2DCA", "3DCA", "3DRMStandard", "3DRMRealistic")),
        ),
        Workload("gossip-sync", lambda seed: sync_calls(seed, ("2DCA", "3DRMGlobal", "3DRMStandard"))),
    )
}
