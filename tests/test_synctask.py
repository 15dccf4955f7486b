"""Gossip-averaging task: fixed points, confinement, conservation, ordering."""

import numpy as np
import pytest

from multitude_sim import ConfigError, Topology, TopologyConfig, build, simcore
from multitude_sim.simcore import Routing, SimConfig
from multitude_sim.synctask import SYNC_THRESHOLDS, run_sync_task, trace_csv_rows


def wander_cfg(seed=0, horizon=500):
    return SimConfig(routing=Routing.RANDOM_WANDERING, horizon=horizon, seed=seed)


def small_rm(seed=0):
    return build(TopologyConfig("3DRMGlobal", 16, 16, seed=seed))


def test_requires_random_wandering():
    with pytest.raises(ConfigError):
        run_sync_task(small_rm(), SimConfig(routing=Routing.SHORTEST_PATH, horizon=10))


def test_requires_two_processing_nodes():
    topo = build(TopologyConfig("2DCA", 1, 1, seed=0))
    with pytest.raises(ValueError):
        run_sync_task(topo, wander_cfg(horizon=10))


def test_rejects_a_negative_horizon():
    with pytest.raises(ConfigError, match="^horizon must be >= 0$"):
        run_sync_task(small_rm(), wander_cfg(horizon=-1))


@pytest.mark.parametrize("bad", [float("nan"), -0.1, float("inf")])
def test_rejects_initial_values_outside_the_unit_interval(bad):
    # a NaN passed the range checks and gave an all-NaN trace
    with pytest.raises(ConfigError):
        run_sync_task(small_rm(), wander_cfg(horizon=5), initial_values=[0.5] * 15 + [bad])


@pytest.mark.parametrize("count", [15, 17])
def test_rejects_initial_values_of_the_wrong_length(count):
    with pytest.raises(ConfigError, match="^initial_values must hold 16 entries$"):
        run_sync_task(small_rm(), wander_cfg(horizon=5), initial_values=[0.5] * count)


def test_equal_initial_values_are_a_fixed_point():
    trace = run_sync_task(small_rm(), wander_cfg(3, horizon=80), initial_values=[0.7] * 16)
    assert all(sd == 0.0 for sd in trace.stddevs)
    assert trace.steps_to_threshold[0.01] == 0


def test_two_node_pair_averages_to_half():
    # two PNs on one switch with values 0 and 1: the first delivery leaves the
    # receiver at exactly 0.5 and the spread can never grow afterwards
    pos = np.array([[0.5, 0.5, 0.5]] * 3)
    topo = Topology("3DRMGlobal", 0, 1, 2, pos, ([0, 0], [1, 2], [0.01, 0.01]), alpha=0.0)
    seen = []

    def watch(step, freqs, sim):
        seen.append(tuple(freqs))

    trace = run_sync_task(
        topo, wander_cfg(5, horizon=40), initial_values=[0.0, 1.0], on_step=watch
    )
    assert any(0.5 in state for state in seen)
    gaps = [abs(a - b) for a, b in seen]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))
    assert trace.stddevs[0] == pytest.approx(0.5)


def test_convex_hull_confinement_including_payloads():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=7))
    init = np.random.default_rng(1).uniform(0.2, 0.8, size=64)
    lo, hi = init.min(), init.max()

    def check(step, freqs, sim):
        assert freqs.min() >= lo - 1e-12 and freqs.max() <= hi + 1e-12
        payload = sim.messages("buffered")["payload"]
        assert lo - 1e-12 <= payload.min() and payload.max() <= hi + 1e-12

    run_sync_task(topo, wander_cfg(2, horizon=300), initial_values=init, on_step=check)


def test_payload_population_is_conserved():
    topo = build(TopologyConfig("3DRMLocal", 32, 32, seed=4))

    def check(step, freqs, sim):
        in_flight = len(sim.messages("buffered")["id"])
        dropped = len(sim.messages("dropped")["id"])
        # any payload lost this step is re-emitted next step, so the
        # population never exceeds N and recovers immediately
        assert in_flight <= 32
        assert in_flight + dropped >= 32 - dropped

    run_sync_task(topo, wander_cfg(6, horizon=200), on_step=check)


def test_entry_drops_are_reemitted_once():
    # one-message buffers drop payloads on entry; each loss is replaced once,
    # so the population stays at N instead of doubling every step
    topo = build(TopologyConfig("3DRMStandard", 32, 32, seed=4))
    cfg = SimConfig(routing=Routing.RANDOM_WANDERING, channels=1, buffer_capacity=1, horizon=50, seed=5)
    lost = []

    def check(step, freqs, sim):
        lost.append(len(sim.messages("dropped")["id"]))
        assert sum(sim.lane_in_flight()) + lost[-1] <= 32

    run_sync_task(topo, cfg, on_step=check)
    assert max(lost) > 0


def test_task_reads_columns_not_records(monkeypatch):
    # one-message buffers and a 2-hop TTL give entry drops (0 hops) and commit
    # drops; the task must run on the engine's columns without a Message record
    def refuse(columns):
        raise AssertionError("a Message record was built")

    monkeypatch.setattr(simcore, "_records", refuse)
    topo = build(TopologyConfig("3DRMStandard", 32, 32, seed=4))
    cfg = SimConfig(routing=Routing.RANDOM_WANDERING, channels=1, buffer_capacity=1, horizon=60, ttl=2, seed=5)
    drop_hops = []

    def watch(step, freqs, sim):
        drop_hops.extend(sim.messages("dropped")["hops"].tolist())

    trace = run_sync_task(topo, cfg, on_step=watch)
    assert 0 in drop_hops and max(drop_hops) > 0
    assert len(trace.stddevs) == 61


def test_ttl_drop_triggers_reemission():
    # a 1-hop TTL kills almost every payload in flight; the task must keep
    # re-emitting and still make progress instead of going silent
    topo = build(TopologyConfig("3DRMGlobal", 16, 16, seed=2))
    cfg = SimConfig(routing=Routing.RANDOM_WANDERING, horizon=400, ttl=2, seed=3)
    trace = run_sync_task(topo, cfg)
    assert trace.stddevs[-1] < trace.stddevs[0]


def test_spread_collapses_despite_stale_payloads():
    # stale in-flight payloads can bump the node-set std for a step or two,
    # but the hull pins every value and the spread must collapse overall
    trace = run_sync_task(small_rm(8), wander_cfg(9, horizon=400))
    sds = trace.stddevs
    assert max(sds) <= 0.5 + 1e-12  # widest possible spread of [0,1] values
    assert np.mean(sds[-50:]) < 0.1 * sds[0]


def test_trace_is_deterministic():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=11))
    a = run_sync_task(topo, wander_cfg(12, horizon=250))
    b = run_sync_task(topo, wander_cfg(12, horizon=250))
    assert a.stddevs == b.stddevs
    assert a.steps_to_threshold == b.steps_to_threshold


# Regression baselines (5 seeds, horizon 4000, threshold 0.05): global
# multitudes converged in ~620 steps, lattices in ~1050.
def test_global_converges_before_lattice():
    def mean_steps(family):
        steps = []
        for seed in range(5):
            topo = build(TopologyConfig(family, 64, 64, seed=seed + 100))
            trace = run_sync_task(topo, wander_cfg(seed + 200, horizon=2500))
            hit = trace.steps_to_threshold[0.05]
            steps.append(hit if hit is not None else 2500)
        return float(np.mean(steps))

    assert mean_steps("3DRMGlobal") < mean_steps("2DCA")


def test_trace_csv_shape():
    trace = run_sync_task(small_rm(1), wander_cfg(1, horizon=20))
    rows = trace_csv_rows(trace)
    assert len(rows) == 22  # steps 0..20 plus the summary row
    assert rows[0].startswith("3DRMGlobal,1,16,16,0.0,0,")
    assert rows[-1].split(",")[5] == "summary"
    summary = rows[-1].split(",")[6]
    assert all(f"{thr}:" in summary for thr in SYNC_THRESHOLDS)
