"""Byte-identity gate for the sweep harness.

Pins sha256 digests of ``run_experiment`` outputs, of every gnuplot
companion script and of ``experiment`` runs through the CLI, on the cases the
benchmark's golden digests leave out: custom ``sweep_values`` for every
experiment, robustness ``skipped`` rows (after a point that ran, and after
some replicates of the same point ran), alpha reference rows under
``k_s``/``k_max`` overrides, a ``switch-sweep`` restricted to the lattice
families or to no allowed family, and the CLI's ``--out`` file and stdout.
A refactor of the harness or the CLI must leave every digest unchanged.
"""

import hashlib

import pytest

from multitude_sim import ConfigError
from multitude_sim.cli import main
from multitude_sim.harness import ExperimentSpec, run_experiment, write_gnuplot_script
from multitude_sim.simcore import SimConfig

CASES = {
    "scaling-custom": ExperimentSpec(
        "scaling", families=("3DCA", "3DRMLocal"), sweep_values=(8, 27), seeds_per_point=2,
        master_seed=5,
    ),
    "scaling-default-grid": ExperimentSpec(
        "scaling", families=("3DCA", "3DRMGlobal"), seeds_per_point=1, master_seed=2,
    ),
    "alpha-custom-overrides": ExperimentSpec(
        "alpha-sweep",
        families=("2DCA", "3DCA", "3DRMLocal", "3DRMRealistic", "3DRMStandard"),
        sweep_values=(0.5, 2, 4.0),
        seeds_per_point=2,
        master_seed=7,
        k_s=4.0,
        k_max=5,
    ),
    "alpha-default-grid": ExperimentSpec(
        "alpha-sweep", families=("3DRMRealistic",), seeds_per_point=1, master_seed=3,
    ),
    "switch-custom": ExperimentSpec(
        "switch-sweep", sweep_values=(16, 40.0), seeds_per_point=1, master_seed=4, k_s=5.0,
        k_max=7,
    ),
    "switch-no-family-allowed": ExperimentSpec(
        "switch-sweep", families=("3DRMGlobal",), seeds_per_point=1,
    ),
    "switch-ca-only": ExperimentSpec(
        "switch-sweep", families=("3DCA", "2DCA"), sweep_values=(16,), seeds_per_point=3,
        master_seed=6,
    ),
    "robustness-skip-after-run": ExperimentSpec(
        "robustness",
        families=("2DCA", "3DRMStandard"),
        sweep_values=(0, 9, 113),
        seeds_per_point=2,
        master_seed=8,
        horizon=30,
        sim=SimConfig(injection_rate=0.3, channels=2, buffer_capacity=4, ttl=40),
    ),
    # replicates 0 and 1 have 74 switch links, replicate 2 has 72
    "robustness-skip-mid-point": ExperimentSpec(
        "robustness", families=("3DRMStandard",), sweep_values=(73,), seeds_per_point=3, master_seed=1,
        k_s=2.0, horizon=10,
    ),
    "robustness-default-grid": ExperimentSpec(
        "robustness", families=("3DCA",), seeds_per_point=1, master_seed=1, horizon=8,
    ),
    "sync-ignores-sweep-values": ExperimentSpec(
        "sync", families=("3DRMGlobal", "2DCA"), sweep_values=(1, 2), seeds_per_point=2,
        master_seed=9, horizon=25,
    ),
}

# recorded before the sweep table replaced the per-experiment runners
DIGESTS = {
    "alpha-custom-overrides": "c9b79c2cef97d7ca3e4303bfc8411e2b226457a8a59e69240f3cc11e9a501d00",
    "alpha-default-grid": "4c0ffa5c2f0bd4799c9f8a85e41e6faac8211a276cbdacc5416853d1bffb58ad",
    "robustness-default-grid": "4a865ae11153bc50aa11f1d5f09e356e71d13d2137868c61bdc91101c15a3f51",
    "robustness-skip-mid-point": "3f6e941fa29d90be811190859ee1f5faa4efbc5094f79271516bd53a8d3abf26",
    "robustness-skip-after-run": "2453ec4319b26b483ecce52243c4028253c789f13a9ee7ddf844f3acaf64c7cc",
    "scaling-custom": "aa905faa0ff5983217707e1f880c1fa648a4df2821ff153ade2937c33036457c",
    "scaling-default-grid": "59d5981666738697c68253fb4a00861556bc029b3929984c31487455efd12227",
    "switch-ca-only": "01dee124bf3b02d186827383d588405c8f4676892b89d84628d396c8956466ff",
    "switch-no-family-allowed": "4324b67dbccd3fa304e9b2f7f27e78a430a3026e64bd4496a8b2da8b4f5b779a",
    "switch-custom": "3d5d9cb235bfd2dae359606238ce1a97f5ba3de138fb77414eeb5c66502aec65",
    "sync-ignores-sweep-values": "768d322294f2d871dc10c09c20a46bef88a4e2668a265427227a49a8e971e2d1",
}

GNUPLOT_DIGESTS = {
    "alpha-custom-overrides": "be85273b2988a7128fc214265ec064cdd3646ffad9d75be09dd3afac039aeead",
    "robustness-skip-after-run": "ee862e06a7f4804b1ba80b8fdd954b3a581a0ae5c86c4f357f50fabc7b7718f2",
    "scaling-custom": "99fa7ac82154125514d2c10b5cbe26da4e4af765dcc765395c7862db49889fc3",
    "switch-custom": "831aa93a011a43152a5f76f869746057f6898d785aca455baaa18e376514ff23",
}

# [csv, gnuplot script] per run
CLI_DIGESTS = {
    "alpha-config-file": [
        "7f78c99ec0666e5b03eb27293507c3e413b959c223044e6a0a2328d530e6b788",
        "cb76624ddc1bb55268ca0cc98a9e4b0e22e1072889094c6b524dcdc5196431fe",
    ],
    "robustness-flags": [
        "841cb7b1eee2afa34e593617b12db325245a3152d2c99a535f8d407e4be4f64a",
        "45532ee9e7e13891ca9b7c837901a63c9da8793b42a1ff12632ca72668e4d150",
    ],
    "scaling-defaults": [
        "c516ccd079647e21941ac0e1c53daff5022ab308958cdb2281139974b233c8c5",
        "6c2f41b877fa720a5bf1ed67b217739167443e0f5fb4bf3a758b12b41f6e2798",
    ],
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_output_bytes(name):
    assert digest(run_experiment(CASES[name])) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(GNUPLOT_DIGESTS))
def test_gnuplot_script_bytes(tmp_path, name):
    script = tmp_path / "plot.gp"
    write_gnuplot_script(CASES[name], "sweep.csv", str(script))
    assert digest(script.read_text(encoding="utf-8")) == GNUPLOT_DIGESTS[name]


def test_gnuplot_rejects_sync(tmp_path):
    with pytest.raises(ConfigError):
        write_gnuplot_script(CASES["sync-ignores-sweep-values"], "sweep.csv", str(tmp_path / "s.gp"))


CLI_RUNS = {
    "robustness-flags": [
        "experiment", "robustness", "--family", "3DRMStandard,2DCA", "--deletions", "0,7",
        "--seeds-per-point", "2", "--seed", "3", "--ks", "5", "--pi", "0.3",
        "--channels", "2", "--buffer", "4", "--ttl", "50", "--steps", "25",
    ],
    "alpha-config-file": ["experiment", "alpha-sweep", "--config", "alpha.cfg"],
    "scaling-defaults": ["experiment", "scaling", "--family", "2DCA", "--seeds-per-point", "1"],
}


@pytest.fixture
def cli_dir(tmp_path, monkeypatch):
    """A scratch working directory holding the config file that CLI_RUNS names."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "alpha.cfg").write_text(
        "family = 3DRMLocal, 3DRMStandard\nseeds-per-point = 1\nseed = 11\nks = 4.5\n",
        encoding="utf-8",
    )
    return tmp_path


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_experiment_bytes(cli_dir, name):
    assert main([*CLI_RUNS[name], "--out", "run.csv", "--gnuplot"]) == 0
    csv_text = (cli_dir / "run.csv").read_text(encoding="utf-8")
    script = (cli_dir / "run.gp").read_text(encoding="utf-8")
    assert [digest(csv_text), digest(script)] == CLI_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_experiment_stdout_bytes(cli_dir, capsys, name):
    # without --out the CSV goes to stdout: the digest that test_cli_experiment_bytes pins on the --out file
    assert main(CLI_RUNS[name]) == 0
    text = capsys.readouterr().out
    assert digest(text) == CLI_DIGESTS[name][0]
    assert text.endswith("\n") and "\r" not in text
