"""Engine behavior: routing tables, stepping, accounting, determinism."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import ConfigError, TopologyConfig, build, remove_random_links, simcore
from multitude_sim.metrics import average_hops, pn_hop_matrix
from multitude_sim.simcore import (
    LOCAL,
    UNREACHABLE,
    Routing,
    SimConfig,
    Simulation,
    compute_routing_tables,
    run,
    run_many,
)
from oracles import column_fields, pn_hops_oracle, record_fields


def grid9():
    return build(TopologyConfig("2DCA", 9, 9, seed=1))


# -- routing tables ---------------------------------------------------------------


def test_routing_table_tie_break_lowest_id():
    topo = grid9()
    table = compute_routing_tables(topo)[:, topo.pn_switches()]
    # switch 4 is the lattice center; toward the corner PN at switch 0 both
    # neighbors 1 and 3 are Manhattan-optimal, and the lower id must win
    assert table[4, 0] == 1
    assert table[0, 0] == LOCAL


def test_routing_table_walk_matches_bfs_distance():
    topo = build(TopologyConfig("3DRMStandard", 32, 32, seed=5))
    table = compute_routing_tables(topo)[:, topo.pn_switches()]
    oracle = pn_hops_oracle(topo)
    for (src, dst), hops in oracle.items():
        if src == dst:
            continue
        sw = topo.attached_switch(32 + src)
        transitions = 0
        while table[sw, dst] != LOCAL:
            sw = int(table[sw, dst])
            transitions += 1
            assert transitions <= 64
        assert transitions == hops - 1  # hops counts switches, walk counts moves


def test_shortest_path_run_memory_follows_the_switch_graph():
    # 4096 PNs on 512 switches: an S x N next-hop table and its intp copy alone took 25 MB
    topo = build(TopologyConfig("3DRMStandard", 4096, 512, seed=0))
    tracemalloc.start()
    try:
        stats = run(topo, SimConfig(horizon=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.delivered > 0 and stats.in_flight_at_end == 0
    assert peak < 32e6


def test_shortest_path_lane_setup_memory_grows_with_the_lanes():
    # 64 lanes of 64 switches: a [4096, 4096] table and hop matrix over all
    # lanes took 154 MB, where the ring and the pool alone take about 8 MB
    topologies = [build(TopologyConfig("3DRMStandard", 64, 64, seed=seed)) for seed in range(64)]
    for topo in topologies:
        topo.switch_hops()
    tracemalloc.start()
    try:
        Simulation.lanes(topologies, SimConfig(), list(range(64)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_routing_table_marks_unreachable_after_faults():
    topo = build(TopologyConfig("2DCA", 16, 16, seed=3))
    faulted = remove_random_links(topo, len(topo.switch_link_pairs()), np.random.default_rng(0))
    table = compute_routing_tables(faulted)[:, faulted.pn_switches()]
    assert table[0, 15] == UNREACHABLE
    assert table[0, 0] == LOCAL

    sim = Simulation(faulted, SimConfig(injection_rate=0.0, seed=1))
    assert sim.inject(16 + 0, 16 + 15) == 0
    assert sim.stats().unreachable_dropped == 1
    assert sim.stats().dropped_buffer == 0
    assert sim.conservation_ok()


# -- step semantics -----------------------------------------------------------------


def test_zero_rate_empty_buffers_is_fixed_point():
    sim = Simulation(grid9(), SimConfig(injection_rate=0.0, seed=1))
    sim.step()
    assert sim.stats().injected == 0 and sim.stats().in_flight_at_end == 0
    assert column_fields(sim.messages("delivered")) == [] and column_fields(sim.messages("dropped")) == []


def test_single_message_delivery_time_and_hops():
    # corner-to-corner on the 3x3 lattice: Manhattan distance 4
    topo = grid9()
    sim = Simulation(topo, SimConfig(injection_rate=0.0, seed=2))
    sim.inject(9 + 0, 9 + 8)
    steps = 0
    while sim.stats().delivered == 0:
        sim.step()
        steps += 1
        assert steps <= 10
    hops = sim.messages("delivered")["hops"]
    assert steps == 5  # d + 1
    assert hops[0] == 5  # 4 lattice moves traverse 5 switches
    assert sim.conservation_ok()


def test_same_switch_pair_delivers_in_one_step():
    # two PNs hanging off one switch: delivered on the very next step with a
    # single hop (the shared switch)
    from multitude_sim import Topology

    pos = np.array([[0.5, 0.5, 0.0]] * 3)
    topo = Topology("2DCA", 0, 1, 2, pos, ([0, 0], [1, 2], [0.01, 0.01]))
    sim = Simulation(topo, SimConfig(injection_rate=0.0, seed=0))
    sim.inject(1, 2)
    sim.step()
    assert sim.stats().delivered == 1
    assert sim.messages("delivered")["hops"][0] == 1


def test_full_injection_zero_channels_fills_buffers():
    topo = grid9()
    cfg = SimConfig(injection_rate=1.0, channels=0, buffer_capacity=5, horizon=0, seed=3)
    sim = Simulation(topo, cfg)
    for _ in range(20):
        sim.step()
        assert sim.conservation_ok()
    stats = sim.stats()
    assert stats.in_flight_at_end == 9 * 5  # every buffer pinned at capacity
    assert stats.dropped_buffer > 0
    assert stats.max_buffer_occupancy == 5


def test_ttl_drops_wandering_messages():
    topo = grid9()
    cfg = SimConfig(injection_rate=0.0, routing=Routing.RANDOM_WANDERING, ttl=3, seed=4)
    sim = Simulation(topo, cfg)
    sim.inject(9 + 0, 9 + 8)
    for _ in range(30):
        sim.step()
    assert sim.stats().dropped_ttl + sim.stats().delivered == 1
    assert sim.conservation_ok()


# -- run-level behavior ----------------------------------------------------------------


def test_zero_horizon_gives_zero_stats():
    stats = run(grid9(), SimConfig(horizon=0, seed=1))
    assert stats.injected == 0 and stats.delivered == 0
    assert stats.avg_hops_delivered == 0.0 and stats.avg_latency == 0.0
    assert stats.throughput_per_switch == 0.0 and stats.in_flight_at_end == 0


def test_dynamic_hops_match_static_mean():
    diffs = []
    for seed in range(3):
        topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=seed + 50))
        static, _ = average_hops(topo)
        stats = run(topo, SimConfig(horizon=400, seed=seed))
        assert stats.dropped_buffer == 0
        diffs.append(abs(stats.avg_hops_delivered - static) / static)
    assert max(diffs) < 0.05


def test_latency_bounds_hops():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=9))
    stats = run(topo, SimConfig(horizon=200, injection_rate=0.5, seed=9))
    assert stats.avg_latency >= stats.avg_hops_delivered


# Regression baselines: 10-seed wandering hop means measured at ~146 (2DCA)
# versus ~102 (3DRMStandard); the multitude stays well below the lattice.
def test_wandering_favors_random_multitude():
    def mean_hops(family):
        values = []
        for seed in range(5):
            topo = build(TopologyConfig(family, 64, 64, seed=seed + 20))
            cfg = SimConfig(horizon=150, routing=Routing.RANDOM_WANDERING, seed=seed)
            values.append(run(topo, cfg).avg_hops_delivered)
        return float(np.mean(values))

    assert mean_hops("3DRMStandard") < mean_hops("2DCA")


def test_uncongested_messages_take_bfs_minimum_hops():
    # with light traffic no buffer ever exceeds the channel budget, so every
    # delivered message must walk a minimum-hop path
    topo = build(TopologyConfig("3DRMStandard", 32, 32, seed=44))
    hops = pn_hop_matrix(topo)
    sim = Simulation(topo, SimConfig(injection_rate=0.05, seed=44))
    seen = 0
    for _ in range(300):
        sim.step()
        assert sim.stats().max_buffer_occupancy <= sim.config.channels
        delivered = sim.messages("delivered")
        for src, dst, taken in zip(delivered["src"], delivered["dst"], delivered["hops"]):
            assert taken == hops[src - 32, dst - 32]
            seen += 1
    assert seen > 100


def test_run_is_deterministic():
    topo = build(TopologyConfig("3DRMRealistic", 64, 64, seed=13))
    cfg = SimConfig(horizon=300, seed=21)
    first = run(topo, cfg)
    second = run(topo, cfg)
    assert first == second
    assert first.csv_row(topo, cfg) == second.csv_row(topo, cfg)


def test_conservation_under_stress():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=31))
    sim = Simulation(topo, SimConfig(injection_rate=0.5, seed=31))
    for _ in range(500):
        sim.step()
        assert sim.conservation_ok()
    assert sim.stats().max_buffer_occupancy <= sim.config.buffer_capacity


def test_inject_validates_endpoints():
    sim = Simulation(grid9(), SimConfig(seed=1))
    with pytest.raises(ValueError):
        sim.inject(0, 9)  # src must be a processing node
    with pytest.raises(ValueError):
        sim.inject(9, 9)  # needs distinct endpoints
    with pytest.raises(ValueError):
        sim.inject([9, 10], [10])  # one destination per source
    with pytest.raises(ValueError):
        sim.inject([9, 10, 11], [10, 11, 11])  # every message is checked
    assert sim.stats().injected == 0 and sim.inject([], []) == 0
    assert sim.inject([9, 10], [10, 17], [0.25, 0.75]) == 2
    buffered = column_fields(sim.messages("buffered"))
    assert [(id_, src, dst, payload) for id_, src, dst, _, _, payload in buffered] == [(0, 9, 10, 0.25), (1, 10, 17, 0.75)]


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(injection_rate=1.5).validate()
    with pytest.raises(ValueError):
        SimConfig(buffer_capacity=0).validate()
    with pytest.raises(ValueError):
        SimConfig(routing="shortest").validate()  # type: ignore[arg-type]
    with pytest.raises(ConfigError, match="^ttl must be >= 1 when set$"):
        SimConfig(ttl=0).validate()


def test_isolated_switch_holds_messages():
    # strip every switch link: wandering messages to other switches can never
    # move, but accounting must stay balanced and the run must terminate
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    faulted = remove_random_links(topo, 12, np.random.default_rng(3))
    cfg = SimConfig(
        injection_rate=0.2, horizon=50, routing=Routing.RANDOM_WANDERING, seed=8
    )
    stats = run(faulted, cfg)
    assert stats.injected == (
        stats.delivered
        + stats.dropped_ttl
        + stats.dropped_buffer
        + stats.unreachable_dropped
        + stats.in_flight_at_end
    )


def test_lanes_share_one_id_space():
    # lane k's switches follow lane k-1's, and its PNs follow every switch
    # and lane k-1's PNs, as in the disjoint union of the topologies
    small, large = grid9(), build(TopologyConfig("3DRMStandard", 16, 16, seed=2))
    sim = Simulation.lanes([small, large], SimConfig(seed=0), [5, 6])
    assert (small.n_switch + large.n_switch, small.n_processing + large.n_processing) == (25, 25)
    for j in range(16):
        assert sim._pn_switch[9 + j] == 9 + large.attached_switch(16 + j)
    first = sim._first_neighbor[9]
    large_tail, large_head, _ = large.switch_arcs()
    assert (sim._neighbors[first : first + sim._degree[9]] - 9).tolist() == large_tail[large_head == 0].tolist()
    with pytest.raises(ValueError):
        sim.inject(25, 25 + 9)  # a lane-0 PN cannot reach a lane-1 PN
    assert sim.inject(25 + 9, 25 + 10) == 1
    assert sim.lane_in_flight() == [0, 1]


@pytest.mark.parametrize("lanes, seeds", [(0, []), (2, [5])])
def test_lanes_need_one_seed_per_topology(lanes, seeds):
    with pytest.raises(ConfigError, match="^lanes need one seed per topology and at least one topology$"):
        Simulation.lanes([grid9()] * lanes, SimConfig(), seeds)


def test_every_lane_needs_two_processing_nodes():
    # a lone processing node has no destination to draw; simulate printed a row of zeros
    one = build(TopologyConfig("3DRMStandard", 1, 4, seed=0))
    with pytest.raises(ConfigError, match="at least 2 processing nodes"):
        run(one, SimConfig(horizon=5))
    with pytest.raises(ConfigError, match="at least 2 processing nodes"):
        run_many([(grid9(), SimConfig(horizon=5)), (one, SimConfig(horizon=5, seed=1))])


def test_run_builds_no_message_records(monkeypatch):
    # a step keeps its deliveries and drops as pool columns; only the record views build records
    def refuse(columns):
        raise AssertionError("a Message record was built")

    monkeypatch.setattr(simcore, "_records", refuse)
    stats = run(grid9(), SimConfig(injection_rate=0.5, channels=1, buffer_capacity=1, horizon=30, seed=3))
    assert stats.dropped_buffer > 0


@settings(max_examples=30, deadline=None)
@given(
    routing=st.sampled_from(list(Routing)),
    lanes=st.integers(1, 2),
    buffer_capacity=st.sampled_from([1, 2, 100]),
    ttl=st.sampled_from([2, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_message_columns_match_the_record_views(routing, lanes, buffer_capacity, ttl, seed):
    topologies = [grid9(), build(TopologyConfig("3DRMStandard", 16, 16, seed=2))][:lanes]
    config = SimConfig(injection_rate=0.3, channels=2, buffer_capacity=buffer_capacity, routing=routing, ttl=ttl)
    sim = Simulation.lanes(topologies, config, [seed + lane for lane in range(lanes)])
    first_pn = sum(t.n_switch for t in topologies)  # lane 0's PNs are its first 9
    rng = np.random.default_rng(seed)
    for _ in range(25):
        sim.step()
        # a caller's batches after the step, one with payloads and one without
        for payload in (rng.random(4), None):
            src = rng.integers(0, 9, size=4)
            dst = (src + rng.integers(1, 9, size=4)) % 9
            sim.inject(first_pn + src, first_pn + dst, payload)
        assert column_fields(sim.messages("delivered")) == record_fields(sim.delivered_this_step)
        for view in ("delivered", "dropped", "buffered"):
            columns = sim.messages(view)
            assert columns["payload"].dtype == np.float64
            assert not any(column.flags.writeable for column in columns.values())
