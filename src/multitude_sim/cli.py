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
    ConfigError,
    GenerationError,
    InvariantError,
    TopologyConfig,
    build,
    export_edge_list,
    import_edge_list,
)

_ROUTING_NAMES = {
    "shortest-path": Routing.SHORTEST_PATH,
    "shortestpath": Routing.SHORTEST_PATH,
    "random-wandering": Routing.RANDOM_WANDERING,
    "randomwandering": Routing.RANDOM_WANDERING,
}


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the config-error exit code
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="multitude-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, topology_input=False):
        p.add_argument("--family", help="topology family (or comma list for experiments)")
        p.add_argument("--n", type=int, help="processing node count")
        p.add_argument("--s", type=int, help="switch node count")
        p.add_argument("--alpha", type=float, help="shortcut-length exponent")
        p.add_argument("--ks", type=float, help="target average switch connectivity")
        p.add_argument("--kmax", type=int, help="switch degree cap (3DRMRealistic)")
        p.add_argument("--seed", type=int, help="64-bit seed")
        p.add_argument("--raw-attempt-count", action="store_true", default=None,
                       help="attempt ks*S switch links instead of ks*S/2")
        p.add_argument("--config", help="flat key = value config file; flags override it")
        p.add_argument("--out", help="output path (default: stdout)")
        if topology_input:
            p.add_argument("--topology", help="read a topology edge-list file instead of generating")

    def add_sim_flags(p):
        p.add_argument("--pi", type=float, help="per-node injection probability")
        p.add_argument("--channels", type=int, help="per-switch per-step forwarding budget")
        p.add_argument("--buffer", type=int, help="switch buffer capacity")
        p.add_argument("--steps", type=int, help="simulated step count")
        p.add_argument("--routing", help="shortest-path | random-wandering")
        p.add_argument("--ttl", type=int, help="max hops before a message is dropped")

    p_gen = sub.add_parser("generate", help="build a topology and write its edge list")
    add_common(p_gen)

    p_met = sub.add_parser("metrics", help="static metrics for a topology")
    add_common(p_met, topology_input=True)

    p_sim = sub.add_parser("simulate", help="run traffic and report delivery statistics")
    add_common(p_sim, topology_input=True)
    add_sim_flags(p_sim)

    p_sync = sub.add_parser("sync", help="run the frequency-averaging task")
    add_common(p_sync, topology_input=True)
    add_sim_flags(p_sync)

    p_exp = sub.add_parser("experiment", help="run a sweep experiment to CSV")
    p_exp.add_argument("id", choices=harness.EXPERIMENTS)
    add_common(p_exp)
    add_sim_flags(p_exp)
    p_exp.add_argument("--seeds-per-point", type=int, help="replicates per sweep point")
    p_exp.add_argument("--deletions", help="comma list of link-deletion counts (robustness)")
    p_exp.add_argument("--gnuplot", action="store_true", default=None,
                       help="also write a companion .gp plotting script next to --out")

    return parser


class _Options:
    """Flag values merged over config-file values (flags win)."""

    def __init__(self, args: argparse.Namespace):
        self._args = vars(args)
        self._file: dict[str, str] = {}
        if self._args.get("config"):
            self._file = harness.load_config_file(self._args["config"])

    def get(self, flag: str, cast, default=None):
        arg_key = flag.replace("-", "_")
        value = self._args.get(arg_key)
        if value is not None:
            return value
        if flag in self._file:
            raw = self._file[flag]
            if cast is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"config value {flag} = {raw!r} is not a valid {cast.__name__}") from None
        return default


def _topology_config(opt: _Options) -> TopologyConfig:
    family = opt.get("family", str)
    if not family:
        raise ConfigError("--family is required (or provide it in the config file)")
    return TopologyConfig(
        family,
        n_processing=opt.get("n", int, 64),
        n_switch=opt.get("s", int, 64),
        alpha=opt.get("alpha", float),
        k_s=opt.get("ks", float, 6.0),
        k_max=opt.get("kmax", int, 10),
        seed=opt.get("seed", int, 0),
        raw_attempt_count=bool(opt.get("raw-attempt-count", bool, False)),
    )


def _load_or_build(opt: _Options):
    path = opt.get("topology", str)
    if path:
        with open(path, encoding="utf-8") as fh:
            return import_edge_list(fh.read())
    return build(_topology_config(opt))


def _sim_config(opt: _Options, default_routing=Routing.SHORTEST_PATH) -> SimConfig:
    routing_name = opt.get("routing", str)
    if routing_name is None:
        routing = default_routing
    else:
        key = routing_name.strip().lower()
        if key not in _ROUTING_NAMES:
            raise ConfigError(f"unknown routing {routing_name!r}; use shortest-path or random-wandering")
        routing = _ROUTING_NAMES[key]
    return SimConfig(
        injection_rate=opt.get("pi", float, 0.1),
        channels=opt.get("channels", int, 6),
        buffer_capacity=opt.get("buffer", int, 100),
        horizon=opt.get("steps", int, 500),
        routing=routing,
        ttl=opt.get("ttl", int),
        seed=opt.get("seed", int, 0),
    )


def _write(opt: _Options, text: str) -> None:
    out = opt.get("out", str)
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
    _write(opt, metrics.METRICS_CSV_HEADER + "\n" + report.csv_row(topo) + "\n")


def _cmd_simulate(opt: _Options) -> None:
    topo = _load_or_build(opt)
    cfg = _sim_config(opt)
    stats = run(topo, cfg)
    _write(opt, SIM_CSV_HEADER + "\n" + stats.csv_row(topo, cfg) + "\n")


def _cmd_sync(opt: _Options) -> None:
    topo = _load_or_build(opt)
    cfg = replace(_sim_config(opt, default_routing=Routing.RANDOM_WANDERING),
                  routing=Routing.RANDOM_WANDERING)
    horizon = opt.get("steps", int, harness.SYNC_HORIZON)
    trace = synctask.run_sync_task(topo, cfg, horizon)
    _write(opt, synctask.SYNC_CSV_HEADER + "\n" + "\n".join(synctask.trace_csv_rows(trace)) + "\n")


def _cmd_experiment(opt: _Options, experiment_id: str) -> None:
    families_raw = opt.get("family", str)
    families = (
        tuple(f.strip() for f in families_raw.split(",") if f.strip())
        if families_raw
        else harness.FAMILIES
    )
    sweep = None
    if experiment_id == "robustness":
        deletions = opt.get("deletions", str)
        if deletions:
            try:
                sweep = tuple(int(d) for d in str(deletions).split(",") if str(d).strip())
            except ValueError:
                raise ConfigError(f"--deletions needs a comma list of integers, got {deletions!r}") from None
    spec = harness.ExperimentSpec(
        experiment=experiment_id,
        families=families,
        sweep_values=sweep,
        seeds_per_point=opt.get("seeds-per-point", int, 10),
        master_seed=opt.get("seed", int, 0),
        out_path=opt.get("out", str),
        k_s=opt.get("ks", float, 6.0),
        k_max=opt.get("kmax", int, 10),
        horizon=opt.get("steps", int),
        sim=SimConfig(
            injection_rate=opt.get("pi", float, 0.1),
            channels=opt.get("channels", int, 6),
            buffer_capacity=opt.get("buffer", int, 100),
            ttl=opt.get("ttl", int),
        ),
    )
    text = harness.run_experiment(spec)
    if not spec.out_path:
        sys.stdout.write(text)
    if opt.get("gnuplot", bool, False):
        if not spec.out_path:
            raise ConfigError("--gnuplot requires --out")
        script = str(Path(spec.out_path).with_suffix(".gp"))
        harness.write_gnuplot_script(spec, spec.out_path, script)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        opt = _Options(args)
        if args.command == "generate":
            _cmd_generate(opt)
        elif args.command == "metrics":
            _cmd_metrics(opt)
        elif args.command == "simulate":
            _cmd_simulate(opt)
        elif args.command == "sync":
            _cmd_sync(opt)
        elif args.command == "experiment":
            _cmd_experiment(opt, args.id)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, InvariantError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
