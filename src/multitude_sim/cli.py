"""Command-line front end: generate topologies, report metrics, run simulations.

Exit codes: 0 on success, 1 on configuration or topology-invariant errors, 2
when generation is infeasible (connectivity repair cannot satisfy the degree cap).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, metrics, synctask
from .simcore import SIM_CSV_HEADER, Routing, SimConfig, run
from .topology import (
    CA_FAMILIES,
    RM_FAMILIES,
    ConfigError,
    GenerationError,
    InvariantError,
    TopologyConfig,
    build,
    csv_text,
    export_edge_list,
    import_edge_list,
)

_ROUTING_NAMES = {
    "shortest-path": Routing.SHORTEST_PATH,
    "shortestpath": Routing.SHORTEST_PATH,
    "random-wandering": Routing.RANDOM_WANDERING,
    "randomwandering": Routing.RANDOM_WANDERING,
}


# flag -> (type, help); the type also reads the flag's value from a config file
_FLAGS = {
    "family": (str, "topology family (or comma list for experiments)"),
    "n": (int, "processing node count"),
    "s": (int, "switch node count"),
    "alpha": (float, "shortcut-length exponent"),
    "ks": (float, "target average switch connectivity"),
    "kmax": (int, "switch degree cap (3DRMRealistic)"),
    "seed": (int, "64-bit seed"),
    "raw-attempt-count": (bool, "attempt ks*S switch links instead of ks*S/2"),
    "config": (str, "flat key = value config file; flags override it"),
    "out": (str, "output path (default: stdout)"),
    "topology": (str, "read a topology edge-list file instead of generating"),
    "pi": (float, "per-node injection probability"),
    "channels": (int, "per-switch per-step forwarding budget"),
    "buffer": (int, "switch buffer capacity"),
    "steps": (int, "simulated step count"),
    "routing": (str, "shortest-path | random-wandering"),
    "ttl": (int, "max hops before a message is dropped"),
    "seeds-per-point": (int, "replicates per sweep point"),
    "deletions": (str, "comma list of link-deletion counts (robustness)"),
    "gnuplot": (bool, "also write a companion .gp plotting script next to --out"),
}
# config-file spellings of a boolean flag's value
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}
_COMMON = ("family", "n", "s", "alpha", "ks", "kmax", "seed", "raw-attempt-count", "config", "out")
_TRAFFIC = ("channels", "buffer", "steps", "ttl")  # what the sync task reads; it injects nothing
_SIM = ("pi", *_TRAFFIC, "routing")
# the flags of `experiment` that only some experiments read; the static sweeps read none
_EXPERIMENT_ONLY = ("pi", *_TRAFFIC, "deletions")
_EXPERIMENT_READS = {"robustness": _EXPERIMENT_ONLY, "sync": _TRAFFIC}
# the build flags that only some families read; the lattices read none of them
_FAMILY_ONLY = ("alpha", "ks", "kmax", "raw-attempt-count")
_FAMILY_READS = {**dict.fromkeys(CA_FAMILIES, ()), **dict.fromkeys(RM_FAMILIES, ("alpha", "ks", "raw-attempt-count")),
                 "3DRMRealistic": _FAMILY_ONLY}

# flag -> the config field it sets; a flag left unset keeps the field's default
_TOPOLOGY_FIELDS = {"n": "n_processing", "s": "n_switch", "alpha": "alpha", "ks": "k_s", "kmax": "k_max",
                    "seed": "seed", "raw-attempt-count": "raw_attempt_count"}
# an experiment sets the step count, the routing and the traffic seeds itself
_TRAFFIC_FIELDS = {"pi": "injection_rate", "channels": "channels", "buffer": "buffer_capacity", "ttl": "ttl"}
_SIM_FIELDS = {**_TRAFFIC_FIELDS, "steps": "horizon", "seed": "seed"}
_SPEC_FIELDS = {"seeds-per-point": "seeds_per_point", "seed": "master_seed", "out": "out_path", "ks": "k_s",
                "kmax": "k_max", "steps": "horizon"}


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the config-error exit code
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="multitude-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "experiment":
            p.add_argument("id", choices=harness.EXPERIMENTS)
        for flag in flags:
            cast, flag_help = _FLAGS[flag]
            if cast is bool:
                p.add_argument(f"--{flag}", action="store_true", default=None, help=flag_help)
            else:
                p.add_argument(f"--{flag}", type=cast, help=flag_help)
    return parser


class _Options:
    """Flag values merged over config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file: dict[str, str] = {}
        if self._args.get("config"):
            self._file = harness.load_config_file(self._args["config"])
        command = self._args["command"]
        unknown = sorted(set(self._file) - set(_COMMANDS[command][2]))
        if unknown:
            raise ConfigError(f"config key {unknown[0]!r} names no flag of {command}")

    def get(self, flag: str, default=None):
        value = self._args.get(flag.replace("-", "_"))
        if value is not None:
            return value
        if flag in self._file:
            raw = self._file[flag]
            cast = _FLAGS[flag][0]
            if cast is bool:
                if raw.lower() not in _BOOLEANS:
                    raise ConfigError(f"config value {flag} = {raw!r} is not a boolean")
                return _BOOLEANS[raw.lower()]
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"config value {flag} = {raw!r} is not a valid {cast.__name__}") from None
        return default

    def given(self, fields: dict[str, str]) -> dict:
        """Keyword arguments for a config class, from the flags that are set."""
        values = {name: self.get(flag) for flag, name in fields.items()}
        return {name: value for name, value in values.items() if value is not None}


def _topology_config(opt: _Options) -> TopologyConfig:
    family = opt.get("family")
    if not family:
        raise ConfigError("--family is required (or provide it in the config file)")
    for flag in _FAMILY_ONLY:  # an unknown family reads them all, and validate() names it
        if opt.get(flag) is not None and flag not in _FAMILY_READS.get(family, _FAMILY_ONLY):
            raise ConfigError(f"--{flag} does not apply to the {family} family")
    return TopologyConfig(family, **opt.given(_TOPOLOGY_FIELDS))


def _load_or_build(opt: _Options):
    path = opt.get("topology")
    if path:
        for flag in ("family", "n", "s", *_FAMILY_ONLY):
            if opt.get(flag) is not None:
                raise ConfigError(f"--{flag} does not apply when --topology gives the topology")
        with open(path, encoding="utf-8") as fh:
            return import_edge_list(fh.read())
    return build(_topology_config(opt))


def _sim_config(opt: _Options) -> SimConfig:
    routing_name = opt.get("routing")
    if routing_name is None:
        return SimConfig(**opt.given(_SIM_FIELDS))
    key = routing_name.strip().lower()
    if key not in _ROUTING_NAMES:
        raise ConfigError(f"unknown routing {routing_name!r}; use shortest-path or random-wandering")
    return SimConfig(routing=_ROUTING_NAMES[key], **opt.given(_SIM_FIELDS))


def _write(opt: _Options, text: str) -> None:
    out = opt.get("out")
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_generate(opt: _Options) -> None:
    topo = build(_topology_config(opt))
    _write(opt, export_edge_list(topo))


def _cmd_metrics(opt: _Options) -> None:
    topo = _load_or_build(opt)
    report = metrics.compute_metrics(topo)
    _write(opt, csv_text(metrics.METRICS_CSV_HEADER, [report.csv_row(topo)]))


def _cmd_simulate(opt: _Options) -> None:
    topo = _load_or_build(opt)
    cfg = _sim_config(opt)
    stats = run(topo, cfg)
    _write(opt, csv_text(SIM_CSV_HEADER, [stats.csv_row(topo, cfg)]))


def _cmd_sync(opt: _Options) -> None:
    topo = _load_or_build(opt)
    cfg = replace(_sim_config(opt), routing=Routing.RANDOM_WANDERING, horizon=opt.get("steps", harness.SYNC_HORIZON))
    trace = synctask.run_sync_task(topo, cfg)
    _write(opt, csv_text(synctask.SYNC_CSV_HEADER, synctask.trace_csv_rows(trace)))


def _cmd_experiment(opt: _Options) -> None:
    family = opt.get("family")
    families = harness.FAMILIES if family is None else tuple(f.strip() for f in family.split(",") if f.strip())
    if not families:
        raise ConfigError(f"--family needs a comma list of family names, got {family!r}")
    experiment_id, deletions = opt.get("id"), opt.get("deletions")
    for flag in _EXPERIMENT_ONLY:
        if opt.get(flag) is not None and flag not in _EXPERIMENT_READS.get(experiment_id, ()):
            raise ConfigError(f"--{flag} does not apply to the {experiment_id} experiment")
    for flag in ("ks", "kmax"):  # the experiments build with both; a family may read neither
        if opt.get(flag) is not None and not any(flag in _FAMILY_READS.get(f, _FAMILY_ONLY) for f in families):
            raise ConfigError(f"--{flag} does not apply to any of the families {','.join(families)}")
    sweep = None
    if deletions is not None:
        try:
            sweep = tuple(int(d) for d in deletions.split(",") if d.strip())
        except ValueError:
            sweep = ()
        if not sweep:
            raise ConfigError(f"--deletions needs a comma list of integers, got {deletions!r}")
    sim = SimConfig(**opt.given(_TRAFFIC_FIELDS))
    spec = harness.ExperimentSpec(experiment_id, families, sweep, sim=sim, **opt.given(_SPEC_FIELDS))
    gnuplot = opt.get("gnuplot", False)
    if gnuplot and not spec.out_path:
        raise ConfigError("--gnuplot requires --out")
    if gnuplot and experiment_id not in harness.SWEEPS:
        raise ConfigError(f"no gnuplot template for experiment {experiment_id!r}")
    text = harness.run_experiment(spec)
    if not spec.out_path:
        sys.stdout.write(text)
    if gnuplot:
        script = str(Path(spec.out_path).with_suffix(".gp"))
        harness.write_gnuplot_script(spec, spec.out_path, script)


# command -> (handler, help, flags)
_COMMANDS = {
    "generate": (_cmd_generate, "build a topology and write its edge list", _COMMON),
    "metrics": (_cmd_metrics, "static metrics for a topology", (*_COMMON, "topology")),
    "simulate": (_cmd_simulate, "run traffic and report delivery statistics", (*_COMMON, "topology", *_SIM)),
    "sync": (_cmd_sync, "run the frequency-averaging task", (*_COMMON, "topology", *_TRAFFIC)),
    "experiment": (_cmd_experiment, "run a sweep experiment to CSV",
                   ("family", "ks", "kmax", "seed", "config", "out", *_EXPERIMENT_ONLY, "seeds-per-point", "gnuplot")),
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command][0](_Options(args))
    except (ConfigError, InvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
