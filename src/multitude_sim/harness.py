"""Experiment runners: parameter sweeps, multi-seed averaging, CSV emission.

Five experiments are available (ids in EXPERIMENTS):

* ``scaling``      -- average hops vs system size N = S per family;
* ``alpha-sweep``  -- hops and clustering vs the shortcut exponent at N=S=64;
* ``switch-sweep`` -- hops vs switch count S, and path length vs average
  switch connectivity k_s;
* ``robustness``   -- hops under random wandering vs deleted switch links;
* ``sync``         -- frequency-averaging convergence traces per family.

The four sweeps are entries of one table, SWEEPS: a CSV header and a list of
Blocks.  A Block gives its seed key, its allowed families, its default grid,
its value type, the cells that lead its rows, and a point function
``(spec, family, value, seeds)`` returning measured cells per replicate seed.
One driver runs every block, family by family in sorted order and value by
value in grid order: a row per replicate, then a ``mean`` row whose count
columns read 0, whose blank columns stay blank and whose other columns are
replicate means.  A point that returns fewer rows than seeds (robustness with
more deletions than links) ends in a ``skipped`` row with its floats blank.
``sync`` writes traces and no means through its own short loop.  To add an
experiment, write its point function and give it one SWEEPS entry.

A point function may return, instead of its cells, deferred work: a
picklable callable that computes them.  The robustness point does so: it
builds its replicates (fault draws included) in the calling process, in
point order, and defers their lane run (``simcore.run_many`` over the point's
jobs, plus the row cells).  The driver collects a sweep's deferred work and
runs it in one ``ProcessPoolExecutor`` with a worker per CPU the process may
use (its affinity set), capped at the number of deferred runs; with one
such run, or one usable CPU, it runs in-process.  The rows are assembled in
point order either way, so the CSV bytes do not depend on the worker count.
No worker outlives ``run_experiment``.

Every emitted CSV is byte-identical across reruns of the same spec.  Seeds
for a sweep point derive from
``sha256("multitude|<master>|<experiment>|<family>|<sweep-value>|<replicate>")``
(see derive_seed), so adding sweep points or families never perturbs the rows
of existing ones.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import metrics, synctask
# ``run`` stays a harness attribute: perfbench/spans.py wraps it by this name
from .simcore import Routing, SimConfig, run, run_many  # noqa: F401
from .topology import (
    CA_FAMILIES,
    FAMILIES,
    FAMILY_ALPHA,
    RM_FAMILIES,
    ConfigError,
    TopologyConfig,
    build,
    csv_line,
    csv_text,
    remove_random_links,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "SWEEPS",
    "derive_seed",
    "derive_subseed",
    "run_experiment",
    "load_config_file",
]

# default sweep grids; each brackets every headline operating point
RM_SIZE_GRID = (9, 14, 19, 24, 29, 34, 39, 44, 49, 54, 59, 64)
CA2_SIZE_GRID = (9, 16, 25, 36, 49, 64, 81, 100, 121)
CA3_SIZE_GRID = (8, 27, 64, 125)
SIZE_GRIDS = {**dict.fromkeys(RM_FAMILIES, RM_SIZE_GRID), "2DCA": CA2_SIZE_GRID, "3DCA": CA3_SIZE_GRID}
ALPHA_GRID = (0.0, 0.5, 1.0, 1.5, 1.8, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
S_GRID = (16, 32, 48, 64, 96, 128)
KS_GRID = (3, 4, 5, 6, 8, 10, 12)
DELETION_GRID = tuple(range(0, 65, 5))

# robustness runs are wandering-routed and congestion-heavy; a short horizon
# keeps the default grid inside its runtime budget while still delivering
# hundreds of messages per run
ROBUSTNESS_HORIZON = 150
SYNC_HORIZON = 4000

ALPHA_SWEEP_FAMILIES = ("3DRMStandard", "3DRMRealistic")
ALPHA_REFERENCE_FAMILIES = ("2DCA", "3DCA", "3DRMLocal")
SWITCH_SWEEP_FAMILIES = ("3DRMStandard", "3DRMRealistic")

# a mean or skipped row writes 0 in these columns
COUNT_COLUMNS = frozenset(("unreachable", "injected", "delivered", "dropped_ttl", "dropped_buffer"))

# the SimConfig fields each experiment sets itself or never reads; the static sweeps simulate nothing
_SIM_IGNORED = {"robustness": ("routing", "horizon", "seed"), "sync": ("injection_rate", "routing", "horizon", "seed")}
_DEFAULT_SIM = SimConfig()


def derive_seed(master_seed: int, experiment: str, family: str, sweep_value, replicate: int) -> int:
    """64-bit point seed from sha256 over a canonical key string.

    The key is ``multitude|<master>|<experiment>|<family>|<value>|<replicate>``
    with floats rendered by repr, so every (experiment, family, value,
    replicate) cell owns a stable, independent seed.
    """
    key = f"multitude|{int(master_seed)}|{experiment}|{family}|{sweep_value!r}|{int(replicate)}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_subseed(seed: int, label: str) -> int:
    """Secondary 64-bit stream for a named purpose (fault draws, sim traffic)."""
    digest = hashlib.sha256(f"{int(seed)}|{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ExperimentSpec:
    """One experiment invocation: which sweep, which families, how many seeds."""

    experiment: str
    families: tuple[str, ...] = FAMILIES
    sweep_values: tuple | None = None  # None -> the experiment's default grid
    seeds_per_point: int = 10
    master_seed: int = 0
    out_path: str | None = None
    k_s: float = 6.0
    k_max: int = 10
    horizon: int | None = None  # None -> the experiment's default step count
    sim: SimConfig = field(default_factory=SimConfig)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}")
        if self.seeds_per_point < 1:
            raise ConfigError("seeds_per_point must be >= 1")
        if self.horizon is not None and self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.horizon is not None and self.experiment not in _SIM_IGNORED:
            raise ConfigError(f"horizon does not apply to the {self.experiment} experiment, which simulates nothing")
        for name in _SIM_IGNORED.get(self.experiment, [f.name for f in fields(SimConfig)]):
            if getattr(self.sim, name) != getattr(_DEFAULT_SIM, name):
                raise ConfigError(f"sim.{name} does not apply to the {self.experiment} experiment, which sets or ignores it")
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ConfigError(f"unknown families {unknown}")
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.sweep_values is not None and len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be nonempty when given")
        cast = SWEEPS[self.experiment][1][0].cast if self.experiment in SWEEPS else None  # sync ignores them
        if cast and any(cast(value) != value for value in self.sweep_values or ()):
            raise ConfigError(f"sweep values {self.sweep_values} must each be an exact {cast.__name__}")
        for what, values in (("family", self.families), ("sweep value", self.sweep_values or ())):
            if len(set(values)) < len(values):
                raise ConfigError(f"a {what} repeats in {tuple(values)}; its rows would be written twice")


@dataclass(frozen=True)
class Block:
    """A run of sweep points: each allowed family at each grid value."""

    key: str  # the experiment name in derive_seed's key
    families: tuple[str, ...]
    grid: tuple | dict[str, tuple]  # default values, or each family's own
    cast: Callable  # type of the sweep value, in the seed key and the row
    point: Callable  # (spec, family, value, replicate seeds) -> measured cells per replicate, or deferred work
    lead: tuple = ()  # cells before the family column
    swept: bool = True  # spec.sweep_values replaces the default grid
    shown: Callable[[str], object] | None = None  # value column per family, if not the value


def _points(spec: ExperimentSpec, block: Block):
    """(family, value, replicate seeds) for each point of a block, in row order."""
    for family in sorted(f for f in spec.families if f in block.families):
        grid = block.grid[family] if isinstance(block.grid, dict) else block.grid
        if block.swept and spec.sweep_values is not None:
            grid = spec.sweep_values
        for raw in grid:
            value = block.cast(raw)
            seeds = [derive_seed(spec.master_seed, block.key, family, value, rep)
                     for rep in range(spec.seeds_per_point)]
            yield family, value, seeds


def _built(spec: ExperimentSpec, family: str, seeds, n=64, s=64, alpha=None, k_s=None):
    """One topology per replicate seed, each built only when the previous one is done."""
    k_s = spec.k_s if k_s is None else k_s
    for seed in seeds:
        yield build(TopologyConfig(family, n, s, alpha=alpha, k_s=k_s, k_max=spec.k_max, seed=seed))


def _hops(topo) -> float:
    return metrics.average_hops(topo)[0]


def _scaling_point(spec, family, size, seeds):
    return [list(metrics.average_hops(t)) for t in _built(spec, family, seeds, size, size)]


def _alpha_point(spec, family, alpha, seeds):
    return [[_hops(t), metrics.clustering_coefficient(t)] for t in _built(spec, family, seeds, alpha=alpha)]


def _alpha_reference_point(spec, family, _value, seeds):
    return [[_hops(t), metrics.clustering_coefficient(t)] for t in _built(spec, family, seeds)]


def _switch_count_point(spec, family, s_count, seeds):
    return [[_hops(t), None] for t in _built(spec, family, seeds, s=s_count, alpha=1.8)]


def _connectivity_point(spec, family, k_s, seeds):
    return [[None, metrics.average_path_length(t)] for t in _built(spec, family, seeds, alpha=1.8, k_s=k_s)]


def _lattice_reference_point(spec, family, size, seeds):
    return [[_hops(t), metrics.average_path_length(t)] for t in _built(spec, family, seeds, size, size)]


def _robustness_point(spec, family, deletions, seeds):
    """Build every replicate here, and defer their simulation as lanes of one run.

    The point stops at the first replicate with fewer switch links than
    ``deletions``; the replicates built before it still run.
    """
    horizon = spec.horizon if spec.horizon is not None else ROBUSTNESS_HORIZON
    jobs = []
    for seed, topo in zip(seeds, _built(spec, family, seeds)):
        if deletions > len(topo.switch_link_pairs()):
            break
        if deletions:
            fault_rng = np.random.default_rng(derive_subseed(seed, "faults"))
            topo = remove_random_links(topo, deletions, fault_rng)
        traffic = derive_subseed(seed, "traffic")
        jobs.append((topo, replace(spec.sim, routing=Routing.RANDOM_WANDERING, horizon=horizon, seed=traffic)))
    return partial(_lane_cells, jobs)


def _lane_cells(jobs):
    """A robustness point's measured cells per job, from one lane run."""
    return [
        [st.injected, st.delivered, st.dropped_ttl, st.dropped_buffer, st.unreachable_dropped,
         st.avg_hops_delivered, st.delivered / st.injected if st.injected else 0.0]
        for st in run_many(jobs)
    ]


def _sync_point(spec, family, _value, seeds):
    """One trace's CSV rows per replicate."""
    horizon = spec.horizon if spec.horizon is not None else SYNC_HORIZON
    traces = []
    for seed, topo in zip(seeds, _built(spec, family, seeds)):
        cfg = replace(spec.sim, routing=Routing.RANDOM_WANDERING, horizon=horizon, seed=derive_subseed(seed, "gossip"))
        traces.append(synctask.trace_csv_rows(synctask.run_sync_task(topo, cfg)))
    return traces


SWEEPS = {
    "scaling": ("family,size,seed,avg_hops,unreachable", (
        Block("scaling", FAMILIES, SIZE_GRIDS, int, _scaling_point),
    )),
    # N = S = 64 throughout; the references use each family's own exponent
    "alpha-sweep": ("family,alpha,seed,avg_hops,clustering", (
        Block("alpha-sweep", ALPHA_SWEEP_FAMILIES, ALPHA_GRID, float, _alpha_point),
        Block("alpha-sweep", ALPHA_REFERENCE_FAMILIES, ("reference",), str, _alpha_reference_point,
              swept=False, shown=FAMILY_ALPHA.get),
    )),
    # hops vs S at N = 64, path length vs k_s at N = S = 64, both at alpha 1.8
    "switch-sweep": ("sweep,family,value,seed,avg_hops,avg_path_length", (
        Block("switch-sweep-s", SWITCH_SWEEP_FAMILIES, S_GRID, int, _switch_count_point, lead=("S",)),
        Block("switch-sweep-ks", SWITCH_SWEEP_FAMILIES, KS_GRID, float, _connectivity_point, lead=("ks",),
              swept=False),
        Block("switch-sweep-ref", CA_FAMILIES, (64,), int, _lattice_reference_point, lead=("ref",),
              swept=False),
    )),
    "robustness": (
        "family,deletions,seed,injected,delivered,dropped_ttl,dropped_buffer,unreachable,avg_hops,delivery_rate",
        (Block("robustness", FAMILIES, DELETION_GRID, int, _robustness_point),),
    ),
}

SYNC_BLOCK = Block("sync", FAMILIES, ("trace",), str, _sync_point, swept=False)

EXPERIMENTS = (*SWEEPS, "sync")


def _summary(names: list[str], cells: list[list], skipped: bool) -> list:
    """The cells of a point's mean row, or of its skipped row."""
    return [
        0 if name in COUNT_COLUMNS
        else None if skipped or cells[0][i] is None
        else float(np.mean([c[i] for c in cells]))
        for i, name in enumerate(names)
    ]


def _usable_cpus() -> int:
    """How many CPUs this process may run on: its affinity set, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _call(work):
    """Run one deferred work item; a module-level function, so a worker process can unpickle it."""
    return work()


def _run_deferred(work: list) -> list:
    """The result of each deferred work item, in order.

    One worker process per usable CPU, at most one per item; with one worker
    the items run in-process.  The pool's workers are joined before this
    returns or raises.
    """
    workers = min(len(work), _usable_cpus())
    if workers <= 1:
        return [w() for w in work]
    # imported here: about 1 MB and 15 ms of start-up that nothing else needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(_call, work))


def _run_sweep(spec: ExperimentSpec, header: str, blocks: tuple[Block, ...]) -> list[str]:
    names = header.split(",")
    measured = names[names.index("seed") + 1 :]
    points = [
        ([*block.lead, family, block.shown(family) if block.shown else value], seeds,
         block.point(spec, family, value, seeds))
        for block in blocks
        for family, value, seeds in _points(spec, block)
    ]
    deferred = iter(_run_deferred([cells for *_, cells in points if callable(cells)]))
    rows: list[list] = []
    for lead, seeds, cells in points:
        if callable(cells):
            cells = next(deferred)
        rows.extend([*lead, seed, *c] for seed, c in zip(seeds, cells))
        skipped = len(cells) < len(seeds)
        rows.append([*lead, "skipped" if skipped else "mean", *_summary(measured, cells, skipped)])
    return [csv_line(row) for row in rows]


def _run_sync(spec: ExperimentSpec) -> list[str]:
    lines: list[str] = []
    for family, value, seeds in _points(spec, SYNC_BLOCK):
        for trace_rows in SYNC_BLOCK.point(spec, family, value, seeds):
            lines.extend(trace_rows)
    return lines


def run_experiment(spec: ExperimentSpec) -> str:
    """Run one experiment, write its CSV to ``spec.out_path`` if set, and return the text."""
    spec.validate()
    if spec.experiment == "sync":
        header, lines = synctask.SYNC_CSV_HEADER, _run_sync(spec)
    else:
        header, blocks = SWEEPS[spec.experiment]
        lines = _run_sweep(spec, header, blocks)
    text = csv_text(header, lines)
    if spec.out_path:
        Path(spec.out_path).write_text(text, encoding="utf-8", newline="\n")
    return text


def write_gnuplot_script(spec: ExperimentSpec, csv_path: str, script_path: str) -> None:
    """Companion gnuplot script plotting the per-point mean rows of a sweep CSV.

    It draws the mean rows of the sweep's first block, value column against
    ``avg_hops``.  Rendering stays out-of-band: the harness never imports a
    plotting library.  Experiments without a sweep table (sync traces) get a
    ConfigError.
    """
    if spec.experiment not in SWEEPS:
        raise ConfigError(f"no gnuplot template for experiment {spec.experiment!r}")
    header, blocks = SWEEPS[spec.experiment]
    names, lead = header.split(","), blocks[0].lead
    x_col, y_col = len(lead) + 2, names.index("avg_hops") + 1
    x_name = lead[0] if lead else names[x_col - 1]  # a tagged block ("S") is named by its tag
    pattern = "^" + "".join(f"{cell}," for cell in lead) + "{family},.*,mean,"
    plots = ",\\\n    ".join(
        f"\"< grep '{pattern.format(family=family)}' {csv_path}\" using {x_col}:{y_col} "
        f"with linespoints title '{family}'"
        for family in sorted(spec.families)
    )
    script = "\n".join(
        [
            f"# gnuplot companion for {csv_path}",
            "set datafile separator ','",
            f"set xlabel '{x_name}'",
            "set ylabel 'avg_hops'",
            "set key left top",
            f"plot {plots}",
            "pause -1",
            "",
        ]
    )
    Path(script_path).write_text(script, encoding="utf-8", newline="\n")


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` config file mirroring the CLI flags.

    Blank lines and '#' comments are skipped; keys are flag names without the
    leading dashes.  CLI flags override file values.  A key given twice
    raises ConfigError.
    """
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line (need 'key = value'): {raw!r}")
        key = key.strip().replace("_", "-")
        if key in values:
            raise ConfigError(f"config key {key!r} is given twice")
        values[key] = value.strip()
    return values
