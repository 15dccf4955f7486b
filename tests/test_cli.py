"""CLI surface: commands, flags, config merging, exit codes."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from multitude_sim import TopologyConfig, build
from multitude_sim.cli import _COMMANDS, main
from multitude_sim.simcore import SIM_CSV_HEADER, Routing, SimConfig, run
from multitude_sim.topology import csv_text

README = Path(__file__).resolve().parent.parent / "README.md"


def test_generate_writes_edge_list(tmp_path):
    out = tmp_path / "topo.txt"
    rc = main(["generate", "--family", "2DCA", "--n", "9", "--s", "9", "--seed", "4",
               "--out", str(out)])
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# multitude-topology v1 family=2DCA seed=4\n")
    assert text.count("\nL ") == 21


def test_generate_to_stdout(capsys):
    rc = main(["generate", "--family", "2DCA", "--n", "4", "--s", "4"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("# multitude-topology v1")


def test_metrics_from_topology_file(tmp_path):
    topo = tmp_path / "topo.txt"
    out = tmp_path / "metrics.csv"
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--out", str(topo)]) == 0
    assert main(["metrics", "--topology", str(topo), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("family,seed,N,S,alpha,ks,avg_hops")
    assert lines[1].split(",")[6] == "3.0"


def test_simulate_reports_stats(tmp_path):
    out = tmp_path / "sim.csv"
    rc = main(["simulate", "--family", "3DRMStandard", "--seed", "2",
               "--steps", "50", "--out", str(out)])
    assert rc == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["routing"] == "ShortestPath"
    assert int(fields["delivered"]) > 0


@pytest.mark.parametrize(
    "spelling, routing",
    [
        ("shortest-path", Routing.SHORTEST_PATH),
        ("shortestpath", Routing.SHORTEST_PATH),
        ("ShortestPath", Routing.SHORTEST_PATH),  # as the CSV's routing column spells it
        ("random-wandering", Routing.RANDOM_WANDERING),
        ("randomwandering", Routing.RANDOM_WANDERING),
        ("RandomWandering", Routing.RANDOM_WANDERING),
    ],
)
def test_simulate_routing_spellings(capsys, spelling, routing):
    args = ["--family", "3DRMStandard", "--n", "16", "--s", "16", "--seed", "2", "--steps", "30"]
    assert main(["simulate", *args, "--routing", spelling]) == 0
    topo = build(TopologyConfig("3DRMStandard", 16, 16, seed=2))
    cfg = SimConfig(horizon=30, routing=routing, seed=2)
    assert capsys.readouterr().out == csv_text(SIM_CSV_HEADER, [run(topo, cfg).csv_row(topo, cfg)])


def test_sync_forces_random_wandering(tmp_path):
    out = tmp_path / "sync.csv"
    rc = main(["sync", "--family", "3DRMGlobal", "--seed", "2", "--steps", "40",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,seed,N,S,alpha,step,stddev"
    assert len(lines) == 1 + 41 + 1


def test_experiment_subcommand(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = main(["experiment", "scaling", "--family", "3DCA", "--seeds-per-point", "1",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "family,size,seed,avg_hops,unreachable"
    assert len(lines) > 4


def test_experiment_gnuplot_companion(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = main(["experiment", "scaling", "--family", "3DCA", "--seeds-per-point", "1",
               "--out", str(out), "--gnuplot"])
    assert rc == 0
    script = (tmp_path / "scaling.gp").read_text(encoding="utf-8")
    assert "set datafile separator ','" in script
    assert "3DCA" in script
    # gnuplot without a CSV on disk has nothing to plot
    assert main(["experiment", "scaling", "--family", "3DCA",
                 "--seeds-per-point", "1", "--gnuplot"]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family = 2DCA\nn = 9\ns = 9\nseed = 1\n", encoding="utf-8")
    out = tmp_path / "topo.txt"
    rc = main(["generate", "--config", str(cfg), "--seed", "9", "--out", str(out)])
    assert rc == 0
    # the flag wins over the file value
    assert "seed=9" in out.read_text(encoding="utf-8").splitlines()[0]


def test_config_error_exit_code():
    assert main(["generate", "--family", "2DCA", "--n", "10", "--s", "10"]) == 1
    assert main(["generate"]) == 1  # family missing
    assert main(["simulate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--routing", "teleport"]) == 1
    assert main(["experiment", "scaling", "--family", "3DCA", "--seeds-per-point", "1",
                 "--routing", "teleport"]) == 1
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9",
                 "--topology", "nope"]) == 1  # unknown flag for this command


@pytest.mark.parametrize(
    "args",
    [
        ["generate", "--family", "3DRMStandard", "--alpha", "nan", "--seed", "1"],
        ["generate", "--family", "3DRMStandard", "--alpha", "inf", "--seed", "1"],
        ["metrics", "--family", "3DRMStandard", "--n", "16", "--s", "16", "--ks", "nan"],
        ["metrics", "--family", "3DRMStandard", "--n", "16", "--s", "16", "--ks", "inf"],
    ],
)
def test_non_finite_alpha_or_ks_exit_code(args, capsys):
    # a NaN exponent put every draw on the last candidate; a non-finite k_s
    # broke the link count with a traceback
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


@pytest.mark.parametrize(
    "extra",
    [
        ("switch-sweep", ["--n", "5"]),
        ("switch-sweep", ["--s", "5"]),
        ("switch-sweep", ["--alpha", "2.0"]),
        ("switch-sweep", ["--topology", "topo.txt"]),  # a flag of other commands
        ("switch-sweep", ["--deletions", "1,2"]),  # only robustness reads deletions
        ("switch-sweep", ["--gnuplot"]),  # no --out to put the script next to
        # the static sweeps run no simulation
        ("scaling", ["--pi", "0.9"]),
        ("scaling", ["--channels", "1"]),
        ("alpha-sweep", ["--buffer", "2"]),
        ("alpha-sweep", ["--ttl", "2"]),
        ("switch-sweep", ["--steps", "3"]),
        ("sync", ["--pi", "0.8"]),  # the sync task injects nothing
        ("robustness", ["--routing", "shortest-path"]),  # robustness and sync wander
        # no family listed reads the flag (a later --family replaces 3DCA)
        ("scaling", ["--kmax", "-3"]),
        ("scaling", ["--ks", "nan", "--family", "2DCA"]),
    ],
)
def test_experiment_rejects_flags_it_would_ignore(capsys, extra):
    experiment, flags = extra
    argv = ["experiment", experiment, "--family", "3DCA", "--seeds-per-point", "1", *flags]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and flags[0] in err


def test_sync_rejects_flags_it_would_ignore(capsys):
    for flag, value in (("--pi", "0.7"), ("--routing", "shortest-path")):
        assert main(["sync", "--family", "3DRMGlobal", "--steps", "5", flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and flag in err


@pytest.mark.parametrize(
    "command, family, size, flag",
    [
        ("generate", "2DCA", "9", ["--ks", "nan"]),
        ("generate", "2DCA", "9", ["--alpha", "7"]),
        ("metrics", "2DCA", "9", ["--alpha", "7"]),
        ("generate", "3DRMGlobal", "9", ["--kmax", "-3"]),
        ("generate", "3DCA", "8", ["--kmax", "4"]),
        ("simulate", "3DRMStandard", "9", ["--kmax", "4", "--steps", "5"]),
        ("sync", "3DCA", "8", ["--ks", "4", "--steps", "5"]),
    ],
)
def test_commands_reject_flags_the_family_ignores(capsys, command, family, size, flag):
    assert main([command, "--family", family, "--n", size, "--s", size, *flag]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {flag[0]} does not apply to the {family} family\n"


def test_config_file_rejects_keys_the_family_ignores(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("family = 3DRMStandard\nn = 9\ns = 9\nkmax = 4\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--kmax" in err
    assert main(["generate", "--config", str(cfg), "--family", "3DRMRealistic"]) == 0
    capsys.readouterr()
    cfg.write_text("family = 2DCA, 3DRMStandard\nkmax = 4\n", encoding="utf-8")
    assert main(["experiment", "scaling", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--kmax" in err


@pytest.mark.parametrize("command", ["metrics", "simulate", "sync"])
def test_topology_file_rejects_build_flags(tmp_path, capsys, command):
    topo = tmp_path / "topo.txt"
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9", "--out", str(topo)]) == 0
    for flag, value in (("--family", "2DCA"), ("--n", "9"), ("--alpha", "2")):
        assert main([command, "--topology", str(topo), flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and flag in err


@pytest.mark.parametrize("command", ["simulate", "sync"])
def test_simulation_seed_must_fit_in_64_bits(tmp_path, capsys, command):
    topo = tmp_path / "topo.txt"
    assert main(["generate", "--family", "2DCA", "--n", "9", "--s", "9", "--out", str(topo)]) == 0
    for seed in ("-1", str(2**64)):
        assert main([command, "--topology", str(topo), "--steps", "5", "--seed", seed]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must fit in 64 unsigned bits\n"
    assert main([command, "--topology", str(topo), "--steps", "5", "--seed", str(2**64 - 1)]) == 0


def test_sync_experiment_gnuplot_fails_before_running(tmp_path, capsys):
    out = tmp_path / "sync.csv"
    assert main(["experiment", "sync", "--family", "2DCA", "--out", str(out), "--gnuplot"]) == 1
    assert "no gnuplot template" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_rejects_deletions_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = 3DCA\nseeds-per-point = 1\ndeletions = 1,2\n", encoding="utf-8")
    assert main(["experiment", "scaling", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--deletions" in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("sed = 5", "config key 'sed' names no flag of generate"),
        ("steps = 5", "config key 'steps' names no flag of generate"),  # a flag of other commands
        ("n = 16", "config key 'n' is given twice"),  # the last one was kept
        # the file is read, underscores as dashes, before its keys meet the command's flags
        pytest.param("seeds_per_point = 1\nseeds-per-point = 2", "config key 'seeds-per-point' is given twice",
                     id="underscore-and-dash-spell-one-key"),
    ],
)
def test_config_file_mistakes_exit_code(tmp_path, capsys, line, message):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"family = 2DCA\nn = 9\ns = 9\n{line}\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_config_file_non_boolean_exit_code(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = 2DCA\nseeds-per-point = 1\ngnuplot = ture\n", encoding="utf-8")
    assert main(["experiment", "scaling", "--config", str(cfg), "--out", str(tmp_path / "run.csv")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "gnuplot = 'ture' is not a boolean" in err
    assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize("value, raw", [("off", False), ("No", False), ("0", False), ("1", True), ("TRUE", True)])
def test_config_file_boolean_spellings(tmp_path, value, raw):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"family = 2DCA\nseeds-per-point = 1\ngnuplot = {value}\n", encoding="utf-8")
    assert main(["experiment", "scaling", "--config", str(cfg), "--out", str(tmp_path / "file.csv")]) == 0
    assert main(["experiment", "scaling", "--family", "2DCA", "--seeds-per-point", "1",
                 "--out", str(tmp_path / "flag.csv"), *["--gnuplot"] * raw]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
    assert (tmp_path / "file.gp").exists() == (tmp_path / "flag.gp").exists() == raw


def test_non_leaf_processing_node_exit_code(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "# multitude-topology v1 family=2DCA seed=0\n"
        "N 0 S 0.0 0.0 0.0\nN 1 S 1.0 0.0 0.0\nN 2 P 0.0 0.0 0.0\nN 3 P 1.0 0.0 0.0\n"
        "L 0 1 1.0\nL 0 2 0.01\nL 1 2 0.01\nL 1 3 0.01\n",
        encoding="utf-8",
    )
    for command in ("metrics", "simulate", "sync"):
        assert main([command, "--topology", str(topo)]) == 1
        assert "processing node 2 " in capsys.readouterr().err


def test_non_numeric_topology_field_exit_code(tmp_path, capsys):
    topo = tmp_path / "topo.txt"
    topo.write_text(
        "# multitude-topology v1 family=2DCA seed=0\n"
        "N 0 S 0.0 0.0 0.0\nN 1 P x 0.0 0.0\nL 0 1 0.01\n",
        encoding="utf-8",
    )
    assert main(["metrics", "--topology", str(topo)]) == 1
    assert "non-numeric" in capsys.readouterr().err


def test_non_numeric_option_values_exit_code(tmp_path, capsys):
    assert main(["experiment", "robustness", "--deletions", "a,b"]) == 1
    assert "--deletions" in capsys.readouterr().err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = 2DCA\nn = abc\n", encoding="utf-8")
    assert main(["generate", "--config", str(cfg)]) == 1
    assert "n = 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("from_file", [False, True])
@pytest.mark.parametrize("flag, value", [("family", ""), ("family", ",,"), ("deletions", ""), ("deletions", ",,")])
def test_empty_family_or_deletions_exit_code(flag, value, from_file, tmp_path, capsys):
    # an empty family list ran all six families, and an empty deletion list the default grid
    given = {"family": "3DCA", "deletions": "0", flag: value}
    args = ["experiment", "robustness", "--seeds-per-point", "1", "--steps", "1"]
    if from_file:
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"{flag} = {given.pop(flag)}\n", encoding="utf-8")
        args += ["--config", str(cfg)]
    for name, text in given.items():
        args += [f"--{name}", text]
    assert main(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and f"--{flag} needs a comma list" in err


@pytest.mark.parametrize("command", ["metrics", "simulate", "sync"])
def test_one_processing_node_exit_code(command, capsys):
    # one processing node makes no pair to measure or gossip with; this ended in a traceback
    assert main([command, "--family", "3DRMStandard", "--n", "1", "--s", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["scaling", "--family", "2DCA,2DCA", "--seeds-per-point", "1"],
        ["robustness", "--family", "2DCA", "--deletions", "0,0"],
    ],
)
def test_repeated_family_or_sweep_value_exit_code(args, capsys):
    # a repeated family or value wrote its rows twice
    assert main(["experiment", *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "repeats" in err


def test_infeasible_generation_exit_code():
    rc = main(["generate", "--family", "3DRMRealistic", "--kmax", "1", "--ks", "6"])
    assert rc == 2


def test_missing_file_exit_code(tmp_path):
    assert main(["metrics", "--topology", str(tmp_path / "absent.txt")]) == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "multitude_sim.cli", "generate", "--family", "2DCA",
         "--n", "4", "--s", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# multitude-topology v1")


def test_readme_names_exactly_the_cli_flags():
    # a flag removed from the CLI must leave the README too, and a new one must be documented
    lines = [line for line in README.read_text(encoding="utf-8").splitlines() if "pip install" not in line]
    named = set(re.findall(r"(?<![\w-])--([a-z][a-z0-9-]*)", "\n".join(lines)))
    flags = {flag for _, _, command_flags in _COMMANDS.values() for flag in command_flags}
    assert named == flags, (sorted(named - flags), sorted(flags - named))
