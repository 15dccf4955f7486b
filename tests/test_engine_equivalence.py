"""The array-state engine against the per-message reference engine.

``oracles.ReferenceSimulation`` is the deque engine the array state replaced.
Both engines are driven with the same topology, config and seed; every
step's delivered and dropped messages (ids, hops and order), every count
and the final statistics must agree exactly.  The array engine is read
through ``Simulation.messages`` and ``Simulation.stats``, the reference
engine through its own records and ``stats()``.  ``simcore.run_many`` runs
jobs as lanes of one simulation; each lane must give exactly what
``oracles.reference_run`` gives for its job alone, and every in-lane lookup
of its flat routing table must equal that lane's own table, as
``oracles._lane_routing_tables`` stitches the lanes' tables together.
``Simulation.inject`` takes a batch; it must give what one scalar
``ReferenceSimulation.inject`` call per message gives.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import ConfigError, TopologyConfig, build, remove_random_links, simcore, synctask
from multitude_sim.simcore import Routing, SimConfig, Simulation
from oracles import (
    ReferenceSimulation,
    _disjoint_union,
    _lane_routing_tables,
    column_fields,
    record_fields,
    reference_run,
)

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


COUNTS = ("injected", "delivered", "dropped_ttl", "dropped_buffer", "unreachable_dropped", "in_flight_at_end")


def read(sim, view):
    """A view's message fields: the array engine's ``messages`` columns, or the reference engine's records."""
    if isinstance(sim, Simulation):
        return column_fields(sim.messages(view))
    return record_fields(sim.iter_in_flight() if view == "buffered" else getattr(sim, f"{view}_this_step"))


def totals(sim):
    """The counts summed over the lanes (the reference engine has one), and the highest buffer occupancy."""
    if isinstance(sim, Simulation):
        lanes = [sim.stats(k) for k in range(len(sim.lane_in_flight()))]
    else:
        lanes = [sim.stats()]
    return [sum(getattr(s, name) for s in lanes) for name in COUNTS] + [max(s.max_buffer_occupancy for s in lanes)]


def snapshot(sim):
    return (
        read(sim, "delivered"),
        read(sim, "dropped"),
        sim.step_index,
        totals(sim),
        [len(buf) for buf in sim.buffers],
        sim.conservation_ok(),
    )


class LoopedReference(ReferenceSimulation):
    """The reference engine behind the batched ``inject`` signature: one
    scalar call per message, in array order; and behind ``_enter`` and
    ``messages``, which the sync task uses."""

    def inject(self, src, dst, payload=None):
        scalar = super().inject
        src, dst = np.atleast_1d(src).tolist(), np.atleast_1d(dst).tolist()
        payloads = [None] * len(src) if payload is None else np.broadcast_to(payload, len(src)).tolist()
        return sum(scalar(*msg) is not None for msg in zip(src, dst, payloads))

    def _enter(self, src, dst, payload_bits):
        """``Simulation._enter`` as scalar calls; payloads arrive as float64 bits."""
        return self.inject(src, dst, np.asarray(payload_bits).view(np.float64))

    def messages(self, view):
        """``Simulation.messages`` columns, built from this engine's own records."""
        msgs = list(self.iter_in_flight()) if view == "buffered" else getattr(self, f"{view}_this_step")
        fields = np.array([(m.id, m.src, m.dst, m.injected_at, m.hops_taken) for m in msgs], dtype=np.int64)
        columns = dict(zip(("id", "src", "dst", "injected_at", "hops"), fields.reshape(-1, 5).T))
        columns["payload"] = np.array([np.nan if m.payload is None else m.payload for m in msgs], dtype=np.float64)
        return columns


def step_side_by_side(topo, config, drain_steps):
    """Step both engines, comparing every step; returns the array engine and
    how many messages it dropped on entry (with 0 hops)."""
    engines = Simulation(topo, config), ReferenceSimulation(topo, config)
    entry_drops = 0
    for step in range(config.horizon + drain_steps):
        for sim in engines:
            sim.step(inject=step < config.horizon)
        new, ref = map(snapshot, engines)
        assert new == ref, f"step {step + 1}"
        entry_drops += np.count_nonzero(engines[0].messages("dropped")["hops"] == 0)
    new, ref = engines
    assert read(new, "buffered") == read(ref, "buffered")
    assert new.stats() == ref.stats()
    return new, entry_drops


@settings(max_examples=80, deadline=None)
@given(topo_key=TOPOLOGIES, config=CONFIGS, drain_steps=st.integers(0, 30))
def test_steps_match_reference_engine(topo_key, config, drain_steps):
    step_side_by_side(make_topology(*topo_key), config, drain_steps)


def test_isolated_switch_rotation_matches_reference_engine():
    # an isolated switch serves C of its messages and puts them back behind the
    # rest, so its FIFO order drifts from id order
    topo = make_topology("2DCA", 0, 80)
    assert 0 in topo.switch_degrees()
    config = SimConfig(
        injection_rate=1.0, channels=2, routing=Routing.RANDOM_WANDERING, horizon=30, seed=9
    )
    step_side_by_side(topo, config, drain_steps=10)


def test_ring_widening_matches_reference_engine():
    # a buffer capacity past the initial ring width, filled by full injection
    # into a switch that serves one message a step
    topo = make_topology("3DRMStandard", 1, 0)
    config = SimConfig(injection_rate=1.0, channels=1, buffer_capacity=300, horizon=220, seed=4)
    sim, _ = step_side_by_side(topo, config, drain_steps=10)
    assert sim.stats().max_buffer_occupancy > simcore._RING_WIDTH


@pytest.mark.parametrize("buffer_capacity", [1, 2, 3])
def test_batched_entry_drops_match_reference_engine(buffer_capacity):
    # every PN injects every step into buffers that hold 1-3 messages and serve
    # one; 60 faults on 2DCA leave destinations with no path from the source
    topo = make_topology("2DCA", 1, 60)
    config = SimConfig(
        injection_rate=1.0, channels=1, buffer_capacity=buffer_capacity, horizon=25, seed=7
    )
    sim, entry_drops = step_side_by_side(topo, config, drain_steps=5)
    assert entry_drops > 0 and sim.stats().unreachable_dropped > 0


def test_run_many_batched_entry_matches_reference_runs():
    # shortest-path lanes at full injection, faulted and connected, of three sizes
    config = SimConfig(injection_rate=1.0, channels=2, buffer_capacity=3, horizon=6)
    keys = [("2DCA", 1, 60), ("3DRMStandard", 2, 0), ("2DCA", 3, 40), ("3DCA", 0, 0)]
    jobs = [(make_topology(*key), replace(config, seed=seed)) for seed, key in enumerate(keys)]
    results = simcore.run_many(jobs)
    assert results == [reference_run(topo, cfg) for topo, cfg in jobs]
    assert results[0].unreachable_dropped and results[2].unreachable_dropped
    assert all(stats.dropped_buffer for stats in results)


def test_run_many_shortest_path_lanes_of_mixed_sizes_match_reference_runs():
    # lanes of 27, 32 and 64 switches, one a 2DCA lattice with 60 links deleted,
    # with single-message buffers: unreachable and buffer drops both happen
    config = SimConfig(injection_rate=0.3, channels=2, buffer_capacity=1, horizon=12)
    keys = [("3DCA", 0, 0), ("3DRMStandard", 1, 0), ("2DCA", 2, 60), ("3DRMGlobal", 3, 0)]
    jobs = [(make_topology(*key), replace(config, seed=seed)) for seed, key in enumerate(keys)]
    results = simcore.run_many(jobs)
    assert results == [reference_run(topo, cfg) for topo, cfg in jobs]
    assert any(stats.unreachable_dropped for stats in results)
    assert any(stats.dropped_buffer for stats in results)


# (lane topologies, entry batches of (size, source PNs per lane or None for all));
# with C = 1, _iota holds max(S, N) entries, fewer than most batches
INJECT_CASES = st.tuples(
    st.lists(TOPOLOGIES, min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(1, 300), st.sampled_from([1, 4, None])), min_size=1, max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(
    case=INJECT_CASES,
    buffer_capacity=st.sampled_from([1, 2, 3, 100, 300]),
    routing=st.sampled_from(list(Routing)),
    with_payload=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_inject_matches_scalar_reference_calls(case, buffer_capacity, routing, with_payload, seed):
    # one batch of k messages against k scalar calls on the reference engine
    # over the same (union) topology; sources drawn from 1 or 4 PNs of a lane
    # crowd one switch, so entry drops and ring widening happen
    lanes, batches = case
    topologies = [make_topology(*topo_key) for topo_key in lanes]
    config = SimConfig(channels=1, buffer_capacity=buffer_capacity, routing=routing, seed=seed)
    sim = Simulation.lanes(topologies, config, [seed] * len(topologies))
    union = _disjoint_union(topologies)  # the lanes' node ids
    ref = LoopedReference(union, config)
    rng = np.random.default_rng(seed)
    first = np.cumsum([union.n_switch] + [t.n_processing for t in topologies])
    for size, spread in batches:
        lane = rng.integers(len(topologies), size=size)
        count = np.diff(first)[lane]
        src = rng.integers(np.minimum(count, spread or count))
        dst = (src + 1 + rng.integers(count - 1)) % count
        src, dst = src + first[lane], dst + first[lane]
        payload = rng.random(size) if with_payload else None
        assert sim.inject(src, dst, payload) == ref.inject(src, dst, payload)
        assert snapshot(sim) == snapshot(ref)
        assert read(sim, "buffered") == read(ref, "buffered")


def test_batched_inject_reaches_widening_drops_and_unreachable():
    # fixed inputs for the cases the hypothesis test must reach: 200 messages
    # from one PN, longer than _iota, widen a 300-message buffer past the
    # initial ring; on faulted 2DCA they meet no path or a 2-message buffer
    src = np.full(200, 32 + 5)
    dst = 32 + 6 + np.arange(200) % 26
    sim = Simulation(make_topology("3DRMStandard", 1, 0), SimConfig(channels=1, buffer_capacity=300))
    assert len(sim._iota) < 200 and sim.inject(src, dst, 0.5) == 200
    assert sim.stats().max_buffer_occupancy > simcore._RING_WIDTH
    assert set(sim.messages("buffered")["payload"].tolist()) == {0.5}
    sim = Simulation(make_topology("2DCA", 1, 60), SimConfig(channels=1, buffer_capacity=2))
    assert sim.inject(src + 27, dst + 27) == 2  # from switch 0 to switches 1-26
    stats = sim.stats()
    assert stats.unreachable_dropped and stats.dropped_buffer == 198 - stats.unreachable_dropped
    drops = sim.messages("dropped")
    assert drops["hops"].tolist() == [0] * stats.dropped_buffer
    assert drops["id"].tolist() == sorted(drops["id"].tolist())


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


@settings(max_examples=20, deadline=None)
@given(lanes=st.lists(TOPOLOGIES, min_size=1, max_size=6))
def test_lane_routing_table_matches_stitched_lane_tables(lanes):
    # mixed sizes (27, 32 and 64 switches) and faulted 2DCA lanes with unreachable pairs;
    # the flat table keeps each lane's own entries and no cross-lane one
    topologies = [make_topology(*topo_key) for topo_key in lanes]
    sim = Simulation.lanes(topologies, SimConfig(), list(range(len(topologies))))
    sizes = [t.n_switch for t in topologies]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    reference = _lane_routing_tables(topologies, starts)
    assert sim._next_hop.dtype == reference.dtype
    assert len(sim._next_hop) == sum(n * n for n in sizes)
    for lo, n in zip(starts, sizes):
        sw = np.arange(lo, lo + n)
        lookups = sim._next_hop[sim._route_row[sw][:, None] + sw]  # [switch, destination switch]
        assert np.array_equal(lookups, reference[lo : lo + n, lo : lo + n])


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
    assert sim.lane_in_flight() == [0, 1] and sim._in_flight == 1  # the count that step() reads
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
    for seed in (-1, 2**64):  # a later lane's seed is checked as the first lane's is
        with pytest.raises(ConfigError, match="seed must fit in 64 unsigned bits"):
            simcore.run_many([(topo, config), (topo, replace(config, seed=seed))])
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
        horizon=60,
        ttl=ttl,
        seed=seed,
    )

    def traced():
        seen = []

        def watch(step, freqs, sim):
            seen.append((snapshot(sim), read(sim, "buffered"), freqs.tolist()))

        trace = synctask.run_sync_task(topo, config, on_step=watch)
        return trace, seen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synctask, "Simulation", LoopedReference)
        ref_trace, ref_seen = traced()
    new_trace, new_seen = traced()
    for step, (new, ref) in enumerate(zip(new_seen, ref_seen), start=1):
        assert new == ref, f"step {step}"
    assert new_trace == ref_trace
