"""The array-state engine against the per-message reference engine.

``oracles.ReferenceSimulation`` is the deque engine the array state replaced.
Both engines are driven with the same topology, config and seed; every
step's delivered and dropped records (ids, hops and order), every counter
and the final statistics must agree exactly.  ``simcore.run_many`` runs
jobs as lanes of one simulation; each lane must give exactly what
``oracles.reference_run`` gives for its job alone.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import ConfigError, TopologyConfig, build, remove_random_links, simcore, synctask
from multitude_sim.simcore import Routing, SimConfig, Simulation
from oracles import ReferenceSimulation, reference_run

# 2DCA on 64 switches has 112 switch links; deleting 40-80 strands switches,
# whose messages go back to their own buffer
TOPOLOGIES = st.one_of(
    st.tuples(st.just("2DCA"), st.integers(0, 3), st.integers(40, 80)),
    st.tuples(
        st.sampled_from(["2DCA", "3DCA", "3DRMStandard", "3DRMRealistic", "3DRMGlobal"]),
        st.integers(0, 3),
        st.just(0),
    ),
)

CONFIGS = st.builds(
    SimConfig,
    injection_rate=st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 1.0)),
    channels=st.sampled_from([0, 1, 2, 6]),
    buffer_capacity=st.sampled_from([1, 2, 3, 100]),
    horizon=st.integers(0, 40),
    routing=st.sampled_from(list(Routing)),
    ttl=st.sampled_from([1, 2, 5, None]),
    seed=st.integers(0, 2**32 - 1),
)


def make_topology(family, seed, deletions):
    size = {"2DCA": 64, "3DCA": 27}.get(family, 32)
    topo = build(TopologyConfig(family, size, size, seed=seed))
    if deletions:
        topo = remove_random_links(topo, deletions, np.random.default_rng(seed))
    return topo


def records(messages):
    return [(m.id, m.src, m.dst, m.injected_at, m.hops_taken, m.payload) for m in messages]


def snapshot(sim):
    return (
        records(sim.delivered_this_step),
        records(sim.dropped_this_step),
        sim.step_index,
        sim.injected,
        sim.delivered,
        sim.dropped_ttl,
        sim.dropped_buffer,
        sim.unreachable_dropped,
        sim.max_buffer_occupancy,
        sim.in_flight(),
        [len(buf) for buf in sim.buffers],
        sim.conservation_ok(),
    )


def step_side_by_side(topo, config, drain_steps):
    engines = Simulation(topo, config), ReferenceSimulation(topo, config)
    for step in range(config.horizon + drain_steps):
        for sim in engines:
            sim.step(inject=step < config.horizon)
        new, ref = map(snapshot, engines)
        assert new == ref, f"step {step + 1}"
    new, ref = engines
    assert records(new.iter_in_flight()) == records(ref.iter_in_flight())
    assert [records(buf) for buf in new.buffers] == [records(buf) for buf in ref.buffers]
    assert new.stats() == ref.stats()
    return new


@settings(max_examples=80, deadline=None)
@given(topo_key=TOPOLOGIES, config=CONFIGS, drain_steps=st.integers(0, 30))
def test_steps_match_reference_engine(topo_key, config, drain_steps):
    step_side_by_side(make_topology(*topo_key), config, drain_steps)


def test_isolated_switch_rotation_matches_reference_engine():
    # an isolated switch serves C of its messages and puts them back behind the
    # rest, so its FIFO order drifts from id order
    topo = make_topology("2DCA", 0, 80)
    assert any(topo.switch_degree(s) == 0 for s in range(topo.n_switch))
    config = SimConfig(
        injection_rate=1.0, channels=2, routing=Routing.RANDOM_WANDERING, horizon=30, seed=9
    )
    step_side_by_side(topo, config, drain_steps=10)


def test_ring_widening_matches_reference_engine():
    # a buffer capacity past the initial ring width, filled by full injection
    # into a switch that serves one message a step
    topo = make_topology("3DRMStandard", 1, 0)
    config = SimConfig(injection_rate=1.0, channels=1, buffer_capacity=300, horizon=220, seed=4)
    sim = step_side_by_side(topo, config, drain_steps=10)
    assert sim.max_buffer_occupancy > simcore._RING_WIDTH


@settings(max_examples=25, deadline=None)
@given(topo_key=TOPOLOGIES, config=CONFIGS)
def test_run_matches_reference_engine(topo_key, config):
    # a short horizon keeps the drain cap (50 steps per horizon step) small
    config = replace(config, horizon=config.horizon % 8)
    topo = make_topology(*topo_key)
    new = simcore.run(topo, config)
    assert new == reference_run(topo, config)
    assert new.drain_capped == (new.in_flight_at_end > 0)
    assert new.drain_steps <= simcore.DRAIN_CAP_FACTOR * config.horizon


@settings(max_examples=20, deadline=None)
@given(
    lanes=st.lists(st.tuples(TOPOLOGIES, st.integers(0, 2**32 - 1)), min_size=1, max_size=8),
    config=CONFIGS,
)
def test_run_many_matches_reference_runs(lanes, config):
    # lanes mix families, sizes and faults; only the seed differs between configs
    config = replace(config, horizon=config.horizon % 8)
    jobs = [(make_topology(*topo_key), replace(config, seed=seed)) for topo_key, seed in lanes]
    assert simcore.run_many(jobs) == [reference_run(topo, cfg) for topo, cfg in jobs]


def test_run_many_lanes_leave_the_drain_on_their_own():
    # the connected lane empties early; the faulted 2DCA lane keeps messages
    # trapped until the cap, and its stats are taken when it hits the cap
    config = SimConfig(injection_rate=0.1, routing=Routing.RANDOM_WANDERING, horizon=10)
    jobs = [
        (make_topology("3DRMStandard", 1, 0), replace(config, seed=3)),
        (make_topology("2DCA", 0, 80), replace(config, seed=4)),
        (make_topology("3DCA", 2, 0), replace(config, seed=5)),
    ]
    results = simcore.run_many(jobs)
    assert results == [reference_run(topo, cfg) for topo, cfg in jobs]
    drained, capped, _ = results
    assert not drained.drain_capped and drained.in_flight_at_end == 0
    assert capped.drain_capped and capped.drain_steps == simcore.DRAIN_CAP_FACTOR * 10
    assert drained.drain_steps < capped.drain_steps


def test_run_many_lanes_keep_their_own_ttl():
    # lattices of 4 and 9 switches cut into pieces: messages between pieces
    # wander until their lane's own TTL of 100 * S hops (400 and 900) drops them
    def cut(size, deletions):
        topo = build(TopologyConfig("2DCA", size, size, seed=0))
        return remove_random_links(topo, deletions, np.random.default_rng(1))

    config = SimConfig(injection_rate=0.3, routing=Routing.RANDOM_WANDERING, horizon=20)
    jobs = [(cut(4, 2), replace(config, seed=1)), (cut(9, 6), replace(config, seed=2))]
    small, large = simcore.run_many(jobs)
    assert [small, large] == [reference_run(topo, cfg) for topo, cfg in jobs]
    assert small.dropped_ttl and large.dropped_ttl
    assert small.drain_steps < 400 + 1 < large.drain_steps


def test_closed_lane_takes_no_further_part():
    config = SimConfig(injection_rate=0.0, routing=Routing.RANDOM_WANDERING)
    topo = make_topology("3DCA", 0, 0)
    sim = Simulation.lanes([topo, topo], config, [1, 2])
    pns = topo.n_switch * 2
    sim.inject(pns, pns + 1)
    sim.inject(pns + 27, pns + 28)
    stats = sim.close_lane(0)
    assert stats.injected == 1 and stats.in_flight_at_end == 1
    assert sim.lane_in_flight() == [0, 1] and sim.in_flight() == 1
    for _ in range(5):
        sim.step()
    assert sim.stats(0) == replace(stats, in_flight_at_end=0)


def test_run_many_rejects_configs_that_differ_beyond_the_seed():
    topo = make_topology("3DCA", 0, 0)
    config = SimConfig(horizon=3)
    assert simcore.run_many([]) == []
    for other in (replace(config, channels=2), replace(config, ttl=5), replace(config, horizon=4)):
        with pytest.raises(ConfigError):
            simcore.run_many([(topo, config), (topo, other)])
    same = simcore.run_many([(topo, config), (topo, replace(config, seed=1))])
    assert same == [simcore.run(topo, config), simcore.run(topo, replace(config, seed=1))]


@settings(max_examples=25, deadline=None)
@given(
    topo_key=TOPOLOGIES,
    channels=st.sampled_from([1, 2, 6]),
    buffer_capacity=st.sampled_from([1, 2, 100]),
    ttl=st.sampled_from([1, 2, 5, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sync_task_payloads_match_reference_engine(topo_key, channels, buffer_capacity, ttl, seed):
    topo = make_topology(*topo_key)
    config = SimConfig(
        channels=channels,
        buffer_capacity=buffer_capacity,
        routing=Routing.RANDOM_WANDERING,
        ttl=ttl,
        seed=seed,
    )

    def traced():
        seen = []

        def watch(step, freqs, sim):
            seen.append((snapshot(sim), records(sim.iter_in_flight()), freqs.tolist()))

        trace = synctask.run_sync_task(topo, config, horizon=60, on_step=watch)
        return trace, seen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synctask, "Simulation", ReferenceSimulation)
        ref_trace, ref_seen = traced()
    new_trace, new_seen = traced()
    for step, (new, ref) in enumerate(zip(new_seen, ref_seen), start=1):
        assert new == ref, f"step {step}"
    assert new_trace == ref_trace
