"""The array-state engine against the per-message reference engine.

``oracles.ReferenceSimulation`` is the deque engine the array state replaced.
Both engines are driven with the same topology, config and seed; every
step's delivered and dropped records (ids, hops and order), every counter
and the final statistics must agree exactly.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import TopologyConfig, build, remove_random_links, simcore, synctask
from multitude_sim.simcore import Routing, SimConfig, Simulation
from oracles import ReferenceSimulation

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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simcore, "Simulation", ReferenceSimulation)
        ref = simcore.run(topo, config)
    new = simcore.run(topo, config)
    assert new == ref
    assert new.drain_capped == (new.in_flight_at_end > 0)
    assert new.drain_steps <= simcore.DRAIN_CAP_FACTOR * config.horizon


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
