"""Experiment runner behavior: seeds, determinism, row schemas, trends."""

import concurrent.futures
import multiprocessing
import re

import numpy as np
import pytest

from multitude_sim import ConfigError, TopologyConfig, build, harness
from multitude_sim.harness import (
    ALPHA_GRID,
    DELETION_GRID,
    ExperimentSpec,
    derive_seed,
    derive_subseed,
    load_config_file,
    run_experiment,
)
from multitude_sim.metrics import average_hops
from multitude_sim.simcore import Routing, SimConfig


def rows_of(csv_text):
    lines = csv_text.splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


# -- seed derivation -----------------------------------------------------------------


def test_derive_seed_is_stable_and_point_local():
    a = derive_seed(0, "scaling", "2DCA", 16, 0)
    assert a == derive_seed(0, "scaling", "2DCA", 16, 0)
    assert a != derive_seed(0, "scaling", "2DCA", 16, 1)
    assert a != derive_seed(0, "scaling", "2DCA", 25, 0)
    assert a != derive_seed(0, "scaling", "3DCA", 16, 0)
    assert a != derive_seed(1, "scaling", "2DCA", 16, 0)
    assert 0 <= a < 2**64
    assert derive_subseed(a, "faults") != derive_subseed(a, "traffic")


def test_adding_sweep_points_keeps_existing_rows():
    small = ExperimentSpec("scaling", families=("2DCA",), sweep_values=(9, 16), seeds_per_point=2)
    large = ExperimentSpec("scaling", families=("2DCA",), sweep_values=(9, 16, 25), seeds_per_point=2)
    small_rows = run_experiment(small).splitlines()
    large_rows = run_experiment(large).splitlines()
    assert large_rows[: len(small_rows)] == small_rows


# -- scaling ------------------------------------------------------------------------


def test_scaling_smallest_3d_lattice_runs():
    spec = ExperimentSpec("scaling", families=("3DCA",), sweep_values=(8,), seeds_per_point=2)
    header, rows = rows_of(run_experiment(spec))
    assert header == ["family", "size", "seed", "avg_hops", "unreachable"]
    assert len(rows) == 3 and rows[-1][2] == "mean"
    assert float(rows[-1][3]) > 1.0


def test_scaling_rejects_bad_ca_size():
    spec = ExperimentSpec("scaling", families=("2DCA",), sweep_values=(10,), seeds_per_point=1)
    with pytest.raises(ConfigError):
        run_experiment(spec)


def test_scaling_rm_growth_is_sublinear():
    spec = ExperimentSpec(
        "scaling", families=("3DRMStandard",), sweep_values=(16, 64), seeds_per_point=5
    )
    _, rows = rows_of(run_experiment(spec))
    means = {int(r[1]): float(r[3]) for r in rows if r[2] == "mean"}
    assert means[64] / means[16] < 2.0  # log growth, not the lattice's sqrt ratio


def test_scaling_2dca_ratio_matches_lattice_growth():
    spec = ExperimentSpec(
        "scaling", families=("2DCA",), sweep_values=(16, 64), seeds_per_point=1
    )
    _, rows = rows_of(run_experiment(spec))
    means = {int(r[1]): float(r[3]) for r in rows if r[2] == "mean"}
    ratio = means[64] / means[16]
    assert abs(ratio - 2.0) / 2.0 < 0.15  # hops track the lattice side


# -- alpha sweep ----------------------------------------------------------------------


def test_alpha_zero_row_equals_global_family_run():
    spec = ExperimentSpec(
        "alpha-sweep", families=("3DRMStandard",), sweep_values=(0.0,), seeds_per_point=1
    )
    _, rows = rows_of(run_experiment(spec))
    seed = int(rows[0][2])
    reference = build(TopologyConfig("3DRMGlobal", 64, 64, seed=seed))
    assert float(rows[0][3]) == pytest.approx(average_hops(reference)[0])


def test_alpha_sweep_anchor_points_increase():
    spec = ExperimentSpec(
        "alpha-sweep",
        families=("3DRMStandard",),
        sweep_values=(0.0, 1.8, 3.0, 5.0),
        seeds_per_point=10,
    )
    _, rows = rows_of(run_experiment(spec))
    means = {float(r[1]): float(r[3]) for r in rows if r[2] == "mean"}
    assert means[0.0] < means[1.8] < means[3.0] < means[5.0]


def test_alpha_sweep_full_grid_trend():
    # adjacent grid points sit inside seed noise on the flat small-world
    # plateau, so the trend check allows a small slack
    spec = ExperimentSpec("alpha-sweep", families=("3DRMStandard",), seeds_per_point=10)
    _, rows = rows_of(run_experiment(spec))
    means = {float(r[1]): float(r[3]) for r in rows if r[2] == "mean"}
    grid = sorted(means)
    assert grid == sorted(ALPHA_GRID)
    for lo, hi in zip(grid, grid[1:]):
        assert means[hi] >= means[lo] - 0.06


def test_alpha_sweep_reference_rows_present():
    spec = ExperimentSpec(
        "alpha-sweep",
        families=("2DCA", "3DRMLocal"),
        sweep_values=(1.8,),
        seeds_per_point=2,
    )
    _, rows = rows_of(run_experiment(spec))
    families = {r[0] for r in rows}
    assert families == {"2DCA", "3DRMLocal"}
    ca_rows = [r for r in rows if r[0] == "2DCA"]
    assert all(r[1] == "" for r in ca_rows)


# -- switch sweep ----------------------------------------------------------------------


def test_switch_sweep_trends():
    spec = ExperimentSpec("switch-sweep", families=("3DRMStandard",), seeds_per_point=5)
    _, rows = rows_of(run_experiment(spec))
    hops = {int(float(r[2])): float(r[4]) for r in rows if r[0] == "S" and r[3] == "mean"}
    plen = {float(r[2]): float(r[5]) for r in rows if r[0] == "ks" and r[3] == "mean"}
    s_grid = sorted(hops)
    for lo, hi in zip(s_grid, s_grid[1:]):
        assert hops[hi] >= hops[lo] - 0.05
    ks_grid = sorted(plen)
    for lo, hi in zip(ks_grid, ks_grid[1:]):
        assert plen[hi] <= plen[lo] + 0.01


# -- robustness --------------------------------------------------------------------------


def test_robustness_zero_deletions_match_plain_run():
    from multitude_sim.harness import ROBUSTNESS_HORIZON
    from multitude_sim.simcore import Routing, SimConfig, run as run_sim

    spec = ExperimentSpec(
        "robustness", families=("3DRMStandard",), sweep_values=(0,), seeds_per_point=2
    )
    header, rows = rows_of(run_experiment(spec))
    assert header[-2:] == ["avg_hops", "delivery_rate"]
    assert rows[-1][2] == "mean"
    for row in rows[:-1]:
        assert float(row[9]) > 0.9  # nearly everything delivers without faults
        # a zero-deletion row is exactly a plain wandering run on that seed
        seed = int(row[2])
        topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=seed))
        cfg = SimConfig(
            routing=Routing.RANDOM_WANDERING,
            horizon=ROBUSTNESS_HORIZON,
            seed=derive_subseed(seed, "traffic"),
        )
        assert run_sim(topo, cfg).avg_hops_delivered == float(row[8])


def test_robustness_skips_oversized_deletions():
    spec = ExperimentSpec(
        "robustness", families=("2DCA",), sweep_values=(113,), seeds_per_point=1
    )
    _, rows = rows_of(run_experiment(spec))
    assert rows[0][2] == "skipped"


def test_robustness_default_grid_spans_paper_point():
    assert 40 in DELETION_GRID
    assert DELETION_GRID[0] == 0 and DELETION_GRID[-1] == 60


# -- robustness lane runs in worker processes --------------------------------------------


def _run_on(monkeypatch, cpus, spec):
    """run_experiment as if the process could use ``cpus`` CPUs, and the pool sizes it made."""
    pools = []
    pool_class = concurrent.futures.ProcessPoolExecutor

    def pool(workers):
        pools.append(workers)
        return pool_class(workers)

    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    try:
        return run_experiment(spec), pools
    finally:
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("seeds", [1, 3])
def test_robustness_bytes_do_not_depend_on_worker_count(monkeypatch, seeds):
    spec = ExperimentSpec("robustness", sweep_values=(0, 40), seeds_per_point=seeds, horizon=20)
    pooled, pools = _run_on(monkeypatch, 4, spec)
    serial, no_pools = _run_on(monkeypatch, 1, spec)
    assert pools == [4] and no_pools == []
    assert pooled == serial
    assert {line.split(",")[0] for line in pooled.splitlines()[1:]} == set(harness.FAMILIES)


def test_robustness_skipped_point_is_the_same_in_workers(monkeypatch):
    # 2DCA at N = S = 64 has 112 switch links, so 113 deletions skip the point
    spec = ExperimentSpec("robustness", families=("2DCA", "3DRMStandard"), sweep_values=(0, 113),
                          seeds_per_point=3, horizon=20)
    pooled, pools = _run_on(monkeypatch, 4, spec)
    serial, _ = _run_on(monkeypatch, 1, spec)
    assert pools == [4] and pooled == serial
    assert "2DCA,113,skipped,0,0,0,0,0,,\n" in pooled


@pytest.mark.parametrize("cpus", [4, 1])
def test_lane_run_error_reaches_the_caller(monkeypatch, cpus):
    # the lane run is the first to validate the simulation config
    spec = ExperimentSpec("robustness", families=("2DCA", "3DCA"), sweep_values=(0, 5),
                          seeds_per_point=2, horizon=5, sim=SimConfig(channels=-1))
    with pytest.raises(ConfigError, match="channels must be >= 0"):
        _run_on(monkeypatch, cpus, spec)


def test_one_deferred_run_stays_in_process(monkeypatch):
    spec = ExperimentSpec("robustness", families=("3DCA",), sweep_values=(0,), seeds_per_point=2, horizon=5)
    _, pools = _run_on(monkeypatch, 4, spec)
    assert pools == []


# -- sync ----------------------------------------------------------------------------------


def test_sync_traces_are_deterministic():
    spec = ExperimentSpec(
        "sync", families=("3DRMGlobal",), seeds_per_point=1, horizon=120
    )
    assert run_experiment(spec) == run_experiment(spec)


def test_sync_rows_per_family_and_seed():
    spec = ExperimentSpec(
        "sync", families=("3DRMGlobal", "2DCA"), seeds_per_point=2, horizon=50
    )
    text = run_experiment(spec)
    lines = text.splitlines()
    # header + 2 families * 2 seeds * (51 trace rows + summary)
    assert len(lines) == 1 + 2 * 2 * 52
    assert sum(1 for ln in lines if ",summary," in ln) == 4


def test_sync_lattice_trails_standard_at_horizon():
    spec = ExperimentSpec(
        "sync", families=("2DCA", "3DRMStandard"), seeds_per_point=3, horizon=600
    )
    text = run_experiment(spec)
    finals = {"2DCA": [], "3DRMStandard": []}
    for line in text.splitlines()[1:]:
        fields = line.split(",")
        if fields[5] == "600":
            finals[fields[0]].append(float(fields[6]))
    assert np.mean(finals["2DCA"]) > np.mean(finals["3DRMStandard"])


def test_scaling_rerun_is_byte_identical():
    spec = ExperimentSpec(
        "scaling", families=("3DRMGlobal",), sweep_values=(9, 19), seeds_per_point=3
    )
    assert run_experiment(spec) == run_experiment(spec)


# -- dispatch and config files ----------------------------------------------------------


def test_run_experiment_dispatch_and_validation():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("no-such-experiment"))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("scaling", families=("XX",)))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentSpec("scaling", seeds_per_point=0))
    # a repeated family or sweep value would write its rows twice; 2 and 2.0 are one exponent
    with pytest.raises(ConfigError, match="family repeats"):
        run_experiment(ExperimentSpec("scaling", families=("2DCA", "3DCA", "2DCA")))
    with pytest.raises(ConfigError, match="sweep value repeats"):
        run_experiment(ExperimentSpec("alpha-sweep", sweep_values=(2, 0.5, 2.0)))


@pytest.mark.parametrize(
    "experiment, values",
    [("scaling", (8.5,)), ("scaling", (8, 8.5)), ("switch-sweep", (16.7,))],
)
def test_non_integral_sweep_value_is_refused(experiment, values):
    # these were truncated: 8.5 wrote rows labelled 8, (8, 8.5) the size-8 point twice, 16.7 S = 16
    spec = ExperimentSpec(experiment, families=("3DCA",), sweep_values=values, seeds_per_point=1)
    with pytest.raises(ConfigError, match="must each be an exact int"):
        run_experiment(spec)


@pytest.mark.parametrize(
    "experiment, settings, name",
    [
        ("robustness", {"sim": SimConfig(routing=Routing.RANDOM_WANDERING)}, "sim.routing"),
        ("robustness", {"sim": SimConfig(horizon=7)}, "sim.horizon"),
        ("robustness", {"sim": SimConfig(seed=99)}, "sim.seed"),
        ("sync", {"sim": SimConfig(injection_rate=0.9)}, "sim.injection_rate"),
        ("sync", {"sim": SimConfig(horizon=3)}, "sim.horizon"),
        ("scaling", {"horizon": 5}, "horizon"),
        ("scaling", {"sim": SimConfig(injection_rate=0.9)}, "sim.injection_rate"),
        ("alpha-sweep", {"sim": SimConfig(channels=1)}, "sim.channels"),
        ("switch-sweep", {"sim": SimConfig(ttl=3)}, "sim.ttl"),
    ],
)
def test_simulation_settings_the_experiment_overrides_are_refused(experiment, settings, name):
    # each was overwritten by the experiment or never read: the CSV matched the default's byte for byte
    spec = ExperimentSpec(experiment, families=("3DCA",), seeds_per_point=1, **settings)
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} does not apply to the {experiment} experiment"):
        spec.validate()


def test_experiment_csv_written_to_disk(tmp_path):
    out = tmp_path / "scaling.csv"
    spec = ExperimentSpec(
        "scaling",
        families=("2DCA",),
        sweep_values=(9,),
        seeds_per_point=1,
        out_path=str(out),
    )
    text = run_experiment(spec)
    assert out.read_text(encoding="utf-8") == text
    assert text.endswith("\n") and "\r" not in text


def test_load_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\nfamily = 2DCA\nseeds-per-point = 3\nsteps=100  # trailing\n",
        encoding="utf-8",
    )
    values = load_config_file(str(cfg))
    assert values == {"family": "2DCA", "seeds-per-point": "3", "steps": "100"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("family 2DCA\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
