"""Byte-identity gate for the one-off CSV rows.

Pins sha256 digests of ``MetricsReport.csv_row``, ``SimStats.csv_row`` and
``trace_csv_rows`` called through the API, and of ``multitude-sim metrics``,
``simulate`` and ``sync`` output, on: a 3DRMStandard build, a 2DCA lattice
(alpha and ks blank), an imported edge-list file (ks blank), a 3DRMStandard
fabric after 40 link deletions (NaN path length, unreachable pairs), an int
``k_s`` and an int injection rate.  A change to how rows are rendered must
leave every digest unchanged.
"""

import hashlib

import numpy as np
import pytest

from multitude_sim import TopologyConfig, build, export_edge_list, import_edge_list, remove_random_links
from multitude_sim.cli import main
from multitude_sim.metrics import compute_metrics
from multitude_sim.simcore import Routing, SimConfig, run
from multitude_sim.synctask import run_sync_task, trace_csv_rows


def _faulted():
    topo = build(TopologyConfig("3DRMStandard", 16, 16, seed=3))
    return remove_random_links(topo, 40, np.random.default_rng(5))


TOPOLOGIES = {
    "standard": lambda: build(TopologyConfig("3DRMStandard", 16, 16, seed=3)),
    "lattice": lambda: build(TopologyConfig("2DCA", 9, 9, seed=1)),
    "imported": lambda: import_edge_list(export_edge_list(build(TopologyConfig("3DRMLocal", 12, 12, seed=2)))),
    "faulted": _faulted,
    "int-ks": lambda: build(TopologyConfig("3DRMStandard", 16, 16, k_s=6, seed=3)),
}
SIMS = {
    "default": SimConfig(horizon=30, seed=7),
    "int-rate": SimConfig(injection_rate=1, horizon=30, seed=7),
}
SYNC = SimConfig(routing=Routing.RANDOM_WANDERING, horizon=30, seed=7)

# recorded before every row went through one renderer
API_DIGESTS = {
    "faulted-metrics": "bba3ff106bb5e252572ee793e61ec9ca67bdae2aa72075dbb4a68ba36ef90cac",
    "faulted-sim-default": "4c52a8305fe80fcc0a8fcb7d0e76c035be22bfad098620f8956ffc3efbaf8bd1",
    "faulted-sim-int-rate": "c0b80b9b31acb9dfa9e86df1ec64cc9f908a70f0bcdd7e62c3354dfeb47e7792",
    "faulted-sync": "06923112d444779e8db5dd2897f85fa10617145aa844411030bcb7ab7a149789",
    "imported-metrics": "e3cccc1608d47896539639732a01fd1d1204eda98ce97a096fe51043172c0f0d",
    "imported-sim-default": "b4ffcf7d92e3a3099974d857958bc32669f736a130d318dfd11f14b3724a410a",
    "imported-sim-int-rate": "34a765ccfe4624f178851aa725c6f6b8ca702440ee3d09d6c9516c3019f43fd7",
    "imported-sync": "41b4db1fee3e61eff439c6ce6eac5f79d709f93874c8dbeef056f99e4dc2e6e2",
    "int-ks-metrics": "6517188a2370f9d5d2d597543b33b9895bec8de375786e36d722e87e4c779cbd",
    "int-ks-sim-default": "ea0321b2af30b177b7c80a5f8430de118dc8c14c5de62b1a3fb6736010f5725c",
    "int-ks-sim-int-rate": "1891f8ae58e2b8b98e6d013b1c5ddd19282f57bd4ade6f69f5d1f4c915b96aa5",
    "int-ks-sync": "62b9a33729b21a6f4427694621152bc7f7ce3263a8e1b1c2f018d5c8e9c37f6a",
    "lattice-metrics": "a39698936056b48c4334d355bb58ac6d18965618a6f1ce50e355bdd1b27759f4",
    "lattice-sim-default": "4b0e0d35b254ae4065ad5e9fa1e88e3e52bea8449fbaea61007b8036ea70bff4",
    "lattice-sim-int-rate": "27dc7d43a6bf07ce7f23cd6ef273a0fe0beb3d2c001c736d113e455213ec8538",
    "lattice-sync": "7915b54d8102c5efd6217b732604bbb9bff973e4e316d3819b737ef052716a69",
    "standard-metrics": "6517188a2370f9d5d2d597543b33b9895bec8de375786e36d722e87e4c779cbd",
    "standard-sim-default": "ea0321b2af30b177b7c80a5f8430de118dc8c14c5de62b1a3fb6736010f5725c",
    "standard-sim-int-rate": "1891f8ae58e2b8b98e6d013b1c5ddd19282f57bd4ade6f69f5d1f4c915b96aa5",
    "standard-sync": "62b9a33729b21a6f4427694621152bc7f7ce3263a8e1b1c2f018d5c8e9c37f6a",
}

# [metrics, simulate, sync] per topology source
CLI_DIGESTS = {
    "faulted": [
        "d2cf0ebf7fecc9b1fa78c39ed4174cca8b59646fffeeb1b006cbe333f89cb1ac",
        "7b8ff8008398c49407c2f6ec4d9f64bd8caf1ac5f6bed0143a194e72b718f907",
        "435427d57c4432a09e87557ca757077c5a7cbfe997277c0491a68b60d978cb5e",
    ],
    "imported": [
        "312e0bd3f02c9b68ee9b4de372d0a56c69ba9ba12886e3de2911c2df96aa93c8",
        "2874038a855c1e505e07126d8b8600032a68fd7a09d5abddb21210388404f949",
        "90c8b904ddab2a1fd80713f4083bf9cf3fd7dcf9bc0714d09baa020df2463b1a",
    ],
    "lattice": [
        "50be7d2bcb54cd77063398fe3706bf709dd5e04a01c4c7a3e454c0cec84abb73",
        "28d2caaee85971c2810a37c1c1cec857e3cb955293ed775a47a988f8661f389c",
        "d6f5ad27cbe93537f6258eeebe0f5b89b05e31a16bd71e74d651c7a7ca7e9e8d",
    ],
    "standard": [
        "a9bc1647658d33660ddb1e77ce013b89c2648d5f88b04a090a29f3716155420e",
        "c32ab2f9561743a2cdebd266159deb5cf0ea3de97d2cac9dd0ef82f4ab23b1ee",
        "18d0bed0c0bc9ab20199ad1b6db2ec1aafd201c7a450fb3100316abb79fc54f2",
    ],
}
CLI_SOURCES = {
    "standard": ["--family", "3DRMStandard", "--n", "16", "--s", "16", "--seed", "3"],
    "lattice": ["--family", "2DCA", "--n", "9", "--s", "9", "--seed", "1"],
    "imported": ["--topology", "imported.txt", "--seed", "3"],
    "faulted": ["--topology", "faulted.txt", "--seed", "3"],
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def api_texts(name: str) -> dict[str, str]:
    topo = TOPOLOGIES[name]()
    texts = {f"{name}-metrics": compute_metrics(topo).csv_row(topo)}
    for sim_name, cfg in SIMS.items():
        texts[f"{name}-sim-{sim_name}"] = run(topo, cfg).csv_row(topo, cfg)
    texts[f"{name}-sync"] = "\n".join(trace_csv_rows(run_sync_task(topo, SYNC)))
    return texts


def test_faulted_case_is_disconnected():
    report = compute_metrics(TOPOLOGIES["faulted"]())
    assert np.isnan(report.avg_path_length)
    assert report.unreachable_pairs > 0


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_api_row_bytes(name):
    texts = api_texts(name)
    assert {key: digest(text) for key, text in texts.items()} == {key: API_DIGESTS[key] for key in texts}


@pytest.mark.parametrize("name", sorted(CLI_SOURCES))
def test_cli_row_bytes(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "imported.txt").write_text(export_edge_list(TOPOLOGIES["imported"]()), encoding="utf-8")
    (tmp_path / "faulted.txt").write_text(export_edge_list(TOPOLOGIES["faulted"]()), encoding="utf-8")
    runs = [["metrics"], ["simulate", "--steps", "30"], ["sync", "--steps", "30"]]
    texts = []
    for command in runs:
        assert main([*command, *CLI_SOURCES[name], "--out", "out.csv"]) == 0
        texts.append((tmp_path / "out.csv").read_text(encoding="utf-8"))
    assert [digest(text) for text in texts] == CLI_DIGESTS[name]
