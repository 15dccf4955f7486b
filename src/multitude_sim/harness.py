"""Experiment runners: parameter sweeps, multi-seed averaging, CSV emission.

Five experiments are available (ids in EXPERIMENTS):

* ``scaling``      -- average hops vs system size N = S per family;
* ``alpha-sweep``  -- hops and clustering vs the shortcut exponent at N=S=64;
* ``switch-sweep`` -- hops vs switch count S, and path length vs average
  switch connectivity k_s;
* ``robustness``   -- hops under random wandering vs deleted switch links;
* ``sync``         -- frequency-averaging convergence traces per family.

Every emitted CSV is byte-identical across reruns of the same spec.  Seeds
for a sweep point derive from
``sha256("multitude|<master>|<experiment>|<family>|<sweep-value>|<replicate>")``
(see derive_seed), so adding sweep points or families never perturbs the rows
of existing ones.  Rows are written family-by-family in sorted order, sweep
values ascending, replicates ascending, with a ``mean`` row after each
point's replicates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import metrics, synctask
# ``run`` stays a harness attribute: perfbench/spans.py wraps it by this name
from .simcore import Routing, SimConfig, run, run_many  # noqa: F401
from .topology import (
    CA_FAMILIES,
    FAMILIES,
    RM_FAMILIES,
    ConfigError,
    Topology,
    TopologyConfig,
    build,
    remove_random_links,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "derive_seed",
    "derive_subseed",
    "run_scaling",
    "run_alpha_sweep",
    "run_switch_sweep",
    "run_robustness",
    "run_sync_experiment",
    "run_experiment",
    "load_config_file",
]

EXPERIMENTS = ("scaling", "alpha-sweep", "switch-sweep", "robustness", "sync")

# default sweep grids; each brackets every headline operating point
RM_SIZE_GRID = (9, 14, 19, 24, 29, 34, 39, 44, 49, 54, 59, 64)
CA2_SIZE_GRID = (9, 16, 25, 36, 49, 64, 81, 100, 121)
CA3_SIZE_GRID = (8, 27, 64, 125)
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
        unknown = [f for f in self.families if f not in FAMILIES]
        if unknown:
            raise ConfigError(f"unknown families {unknown}")
        if not self.families:
            raise ConfigError("at least one family is required")
        if self.sweep_values is not None and len(self.sweep_values) == 0:
            raise ConfigError("sweep_values must be nonempty when given")


def _selected(spec: ExperimentSpec, allowed: tuple[str, ...]) -> list[str]:
    return sorted(f for f in spec.families if f in allowed)


def _topology_config(spec: ExperimentSpec, family: str, n: int, s: int, seed: int, alpha=None) -> TopologyConfig:
    return TopologyConfig(
        family,
        n_processing=n,
        n_switch=s,
        alpha=alpha,
        k_s=spec.k_s,
        k_max=spec.k_max,
        seed=seed,
    )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(spec: ExperimentSpec, header: str, rows: list[list]) -> str:
    text = header + "\n" + "\n".join(",".join(_fmt(v) for v in row) for row in rows) + "\n"
    if spec.out_path:
        Path(spec.out_path).write_text(text, encoding="utf-8", newline="\n")
    return text


def _mean(values: list[float]) -> float:
    return float(np.mean(values))


# -- experiment 1: scaling ------------------------------------------------------


def run_scaling(spec: ExperimentSpec) -> str:
    """Average hops vs system size N = S; one row per (family, size, seed) plus means."""
    spec.validate()
    default_grid = {f: RM_SIZE_GRID for f in RM_FAMILIES}
    default_grid["2DCA"] = CA2_SIZE_GRID
    default_grid["3DCA"] = CA3_SIZE_GRID
    rows: list[list] = []
    for family in sorted(spec.families):
        sizes = spec.sweep_values if spec.sweep_values is not None else default_grid[family]
        for size in sizes:
            size = int(size)
            hops_here: list[float] = []
            for rep in range(spec.seeds_per_point):
                seed = derive_seed(spec.master_seed, "scaling", family, size, rep)
                topo = build(_topology_config(spec, family, size, size, seed))
                hops, unreachable = metrics.average_hops(topo)
                hops_here.append(hops)
                rows.append([family, size, seed, hops, unreachable])
            rows.append([family, size, "mean", _mean(hops_here), 0])
    return _emit(spec, "family,size,seed,avg_hops,unreachable", rows)


# -- experiment 2: shortcut-exponent sweep ---------------------------------------


def run_alpha_sweep(spec: ExperimentSpec) -> str:
    """Hops and clustering vs the exponent at N=S=64, plus fixed reference rows."""
    spec.validate()
    grid = spec.sweep_values if spec.sweep_values is not None else ALPHA_GRID
    rows: list[list] = []
    for family in _selected(spec, ALPHA_SWEEP_FAMILIES):
        for alpha in grid:
            alpha = float(alpha)
            hops_here: list[float] = []
            clus_here: list[float] = []
            for rep in range(spec.seeds_per_point):
                seed = derive_seed(spec.master_seed, "alpha-sweep", family, alpha, rep)
                topo = build(_topology_config(spec, family, 64, 64, seed, alpha=alpha))
                hops, _ = metrics.average_hops(topo)
                clus = metrics.clustering_coefficient(topo)
                hops_here.append(hops)
                clus_here.append(clus)
                rows.append([family, alpha, seed, hops, clus])
            rows.append([family, alpha, "mean", _mean(hops_here), _mean(clus_here)])
    for family in _selected(spec, ALPHA_REFERENCE_FAMILIES):
        ref_alpha = 3.0 if family == "3DRMLocal" else None
        hops_here = []
        clus_here = []
        for rep in range(spec.seeds_per_point):
            seed = derive_seed(spec.master_seed, "alpha-sweep", family, "reference", rep)
            topo = build(_topology_config(spec, family, 64, 64, seed))
            hops, _ = metrics.average_hops(topo)
            clus = metrics.clustering_coefficient(topo)
            hops_here.append(hops)
            clus_here.append(clus)
            rows.append([family, ref_alpha, seed, hops, clus])
        rows.append([family, ref_alpha, "mean", _mean(hops_here), _mean(clus_here)])
    return _emit(spec, "family,alpha,seed,avg_hops,clustering", rows)


# -- experiment 3: switch count and connectivity ---------------------------------


def run_switch_sweep(spec: ExperimentSpec) -> str:
    """Hops vs S at N=64 (alpha 1.8), and path length vs k_s at N=S=64."""
    spec.validate()
    s_grid = spec.sweep_values if spec.sweep_values is not None else S_GRID
    rows: list[list] = []
    for family in _selected(spec, SWITCH_SWEEP_FAMILIES):
        for s_count in s_grid:
            s_count = int(s_count)
            hops_here: list[float] = []
            for rep in range(spec.seeds_per_point):
                seed = derive_seed(spec.master_seed, "switch-sweep-s", family, s_count, rep)
                topo = build(_topology_config(spec, family, 64, s_count, seed, alpha=1.8))
                hops, _ = metrics.average_hops(topo)
                hops_here.append(hops)
                rows.append(["S", family, s_count, seed, hops, None])
            rows.append(["S", family, s_count, "mean", _mean(hops_here), None])
    for family in _selected(spec, SWITCH_SWEEP_FAMILIES):
        for k_s in KS_GRID:
            k_s = float(k_s)
            plens: list[float] = []
            for rep in range(spec.seeds_per_point):
                seed = derive_seed(spec.master_seed, "switch-sweep-ks", family, k_s, rep)
                cfg = TopologyConfig(
                    family, 64, 64, alpha=1.8, k_s=k_s, k_max=spec.k_max, seed=seed
                )
                topo = build(cfg)
                plen = metrics.average_path_length(topo)
                plens.append(plen)
                rows.append(["ks", family, k_s, seed, None, plen])
            rows.append(["ks", family, k_s, "mean", None, _mean(plens)])
    for family in _selected(spec, CA_FAMILIES):
        hops_here = []
        plens = []
        for rep in range(spec.seeds_per_point):
            seed = derive_seed(spec.master_seed, "switch-sweep-ref", family, 64, rep)
            topo = build(_topology_config(spec, family, 64, 64, seed))
            hops, _ = metrics.average_hops(topo)
            hops_here.append(hops)
            plens.append(metrics.average_path_length(topo))
            rows.append(["ref", family, 64, seed, hops, plens[-1]])
        rows.append(["ref", family, 64, "mean", _mean(hops_here), _mean(plens)])
    return _emit(spec, "sweep,family,value,seed,avg_hops,avg_path_length", rows)


# -- experiment 4: link-failure robustness ---------------------------------------


def run_robustness(spec: ExperimentSpec) -> str:
    """Random-wandering delivery stats vs number of deleted switch links."""
    spec.validate()
    grid = spec.sweep_values if spec.sweep_values is not None else DELETION_GRID
    horizon = spec.horizon if spec.horizon is not None else ROBUSTNESS_HORIZON
    rows: list[list] = []
    for family in sorted(spec.families):
        for deletions in grid:
            deletions = int(deletions)
            # build every replicate first, then simulate them as lanes of one run
            seeds: list[int] = []
            jobs: list[tuple[Topology, SimConfig]] = []
            skipped = False
            for rep in range(spec.seeds_per_point):
                seed = derive_seed(spec.master_seed, "robustness", family, deletions, rep)
                topo = build(_topology_config(spec, family, 64, 64, seed))
                if deletions > len(topo.switch_link_pairs()):
                    skipped = True
                    break
                if deletions:
                    fault_rng = np.random.default_rng(derive_subseed(seed, "faults"))
                    topo = remove_random_links(topo, deletions, fault_rng)
                cfg = replace(
                    spec.sim,
                    routing=Routing.RANDOM_WANDERING,
                    horizon=horizon,
                    seed=derive_subseed(seed, "traffic"),
                )
                seeds.append(seed)
                jobs.append((topo, cfg))
            hops_here: list[float] = []
            rates: list[float] = []
            for seed, stats in zip(seeds, run_many(jobs)):
                rate = stats.delivered / stats.injected if stats.injected else 0.0
                hops_here.append(stats.avg_hops_delivered)
                rates.append(rate)
                rows.append(
                    [
                        family,
                        deletions,
                        seed,
                        stats.injected,
                        stats.delivered,
                        stats.dropped_ttl,
                        stats.dropped_buffer,
                        stats.unreachable_dropped,
                        stats.avg_hops_delivered,
                        rate,
                    ]
                )
            if skipped:
                rows.append([family, deletions, "skipped", 0, 0, 0, 0, 0, None, None])
                continue
            rows.append(
                [family, deletions, "mean", 0, 0, 0, 0, 0, _mean(hops_here), _mean(rates)]
            )
    header = (
        "family,deletions,seed,injected,delivered,dropped_ttl,dropped_buffer,"
        "unreachable,avg_hops,delivery_rate"
    )
    return _emit(spec, header, rows)


# -- experiment 5: synchronization task -------------------------------------------


def run_sync_experiment(spec: ExperimentSpec) -> str:
    """Frequency-averaging traces per family and seed, with threshold summaries."""
    spec.validate()
    horizon = spec.horizon if spec.horizon is not None else SYNC_HORIZON
    lines: list[str] = [synctask.SYNC_CSV_HEADER]
    for family in sorted(spec.families):
        for rep in range(spec.seeds_per_point):
            seed = derive_seed(spec.master_seed, "sync", family, "trace", rep)
            topo = build(_topology_config(spec, family, 64, 64, seed))
            cfg = replace(
                spec.sim,
                routing=Routing.RANDOM_WANDERING,
                seed=derive_subseed(seed, "gossip"),
            )
            trace = synctask.run_sync_task(topo, cfg, horizon)
            lines.extend(synctask.trace_csv_rows(trace))
    text = "\n".join(lines) + "\n"
    if spec.out_path:
        Path(spec.out_path).write_text(text, encoding="utf-8", newline="\n")
    return text


_RUNNERS = {
    "scaling": run_scaling,
    "alpha-sweep": run_alpha_sweep,
    "switch-sweep": run_switch_sweep,
    "robustness": run_robustness,
    "sync": run_sync_experiment,
}


def run_experiment(spec: ExperimentSpec) -> str:
    spec.validate()
    return _RUNNERS[spec.experiment](spec)


# per experiment: x label, y label, 1-indexed x/y columns, per-family row pattern
_PLOT_COLUMNS = {
    "scaling": ("size", "avg_hops", 2, 4, "^{family},.*,mean,"),
    "alpha-sweep": ("alpha", "avg_hops", 2, 4, "^{family},.*,mean,"),
    "switch-sweep": ("S", "avg_hops", 3, 5, "^S,{family},.*,mean,"),
    "robustness": ("deletions", "avg_hops", 2, 9, "^{family},.*,mean,"),
}


def write_gnuplot_script(spec: ExperimentSpec, csv_path: str, script_path: str) -> None:
    """Companion gnuplot script plotting the per-point mean rows of a sweep CSV.

    Rendering stays out-of-band: the harness never imports a plotting
    library.  Unsupported experiments (sync traces) get a ConfigError.
    """
    if spec.experiment not in _PLOT_COLUMNS:
        raise ConfigError(f"no gnuplot template for experiment {spec.experiment!r}")
    x_name, y_name, x_col, y_col, pattern = _PLOT_COLUMNS[spec.experiment]
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
            f"set ylabel '{y_name}'",
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
    leading dashes.  CLI flags override file values.
    """
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line (need 'key = value'): {raw!r}")
        values[key.strip().replace("_", "-")] = value.strip()
    return values
