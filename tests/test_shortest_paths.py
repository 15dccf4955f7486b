"""Hop matrix, path-length matrix and routing tables equal their oracles exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import CA_FAMILIES, FAMILIES, InvariantError, Topology, TopologyConfig, build, remove_random_links
from multitude_sim.metrics import pn_distance_matrix, pn_hop_matrix
from multitude_sim.simcore import Routing, SimConfig, Simulation, compute_routing_tables
from oracles import (
    dijkstra_distances,
    edge_list,
    _switch_arcs,
    next_hop_oracle,
    pn_hops_oracle,
    reference_relax,
    reference_switch_hops,
    switch_component_count,
)


def _one_switch():
    pos = np.full((3, 3), 0.5)
    return Topology("2DCA", 0, 1, 2, pos, ([0, 0], [1, 2], [0.01, 0.01]))


def _faulted(family, n, s, seed, deletions):
    topo = build(TopologyConfig(family, n, s, seed=seed))
    count = min(deletions, len(topo.switch_link_pairs()))
    return remove_random_links(topo, count, np.random.default_rng(seed))


CASES = {
    "2DCA": lambda: build(TopologyConfig("2DCA", 64, 64, seed=1)),
    "3DCA": lambda: build(TopologyConfig("3DCA", 64, 64, seed=1)),
    "3DRMStandard": lambda: build(TopologyConfig("3DRMStandard", 64, 64, seed=1)),
    "3DRMLocal": lambda: build(TopologyConfig("3DRMLocal", 64, 64, seed=1)),
    "3DRMGlobal": lambda: build(TopologyConfig("3DRMGlobal", 64, 64, seed=1)),
    "3DRMRealistic": lambda: build(TopologyConfig("3DRMRealistic", 64, 64, seed=1)),
    "S16-N64": lambda: build(TopologyConfig("3DRMStandard", 64, 16, seed=2)),
    "S100-N40": lambda: build(TopologyConfig("3DRMRealistic", 40, 100, seed=2)),
    "3DRMStandard-minus-40": lambda: _faulted("3DRMStandard", 64, 64, 3, 40),
    "2DCA-minus-40": lambda: _faulted("2DCA", 64, 64, 3, 40),
    "no-switch-links": lambda: _faulted("2DCA", 16, 16, 3, 10**6),
    "one-switch": _one_switch,
}


def _expected_hops(topo):
    n = topo.n_processing
    want = np.zeros((n, n), dtype=np.int32)
    for (i, j), hops in pn_hops_oracle(topo).items():
        want[i, j] = -1 if hops is None else hops
    return want


def _expected_distances(topo):
    n, offset = topo.n_processing, topo.n_switch
    edges = edge_list(topo)
    want = np.full((n, n), math.inf)
    for i in range(n):
        dist = dijkstra_distances(topo.n_nodes, edges, offset + i)
        for j in range(n):
            want[i, j] = dist.get(offset + j, math.inf)
    return want


def _expected_table(topo):
    want = np.zeros((topo.n_switch, topo.n_processing), dtype=np.int32)
    for (sw, pn), nxt in next_hop_oracle(topo).items():
        want[sw, pn] = nxt
    return want


def _assert_exact(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def _check_all(topo):
    _assert_exact(pn_hop_matrix(topo), _expected_hops(topo))
    _assert_exact(pn_distance_matrix(topo), _expected_distances(topo))
    table = compute_routing_tables(topo)
    assert table.shape == (topo.n_switch, topo.n_switch)
    _assert_exact(table[:, topo.pn_switches()], _expected_table(topo))


@pytest.mark.parametrize("case", sorted(CASES))
def test_matrices_equal_oracles_exactly(case):
    _check_all(CASES[case]())


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    deletions=st.integers(0, 60),
)
def test_matrices_equal_oracles_on_random_faulted_fabrics(family, seed, deletions):
    size = {"2DCA": 25, "3DCA": 27}.get(family, 24)
    _check_all(_faulted(family, size, size, seed, deletions))


@pytest.mark.parametrize(
    "call",
    [
        pn_hop_matrix,
        pn_distance_matrix,
        compute_routing_tables,
        lambda topo: Simulation(topo, SimConfig(routing=Routing.RANDOM_WANDERING)),
    ],
)
def test_non_leaf_processing_node_fails_loudly(call):
    # PN 3 hangs off both switches; PN 2 is a proper leaf on switch 0.  The
    # constructor refuses it, so no metric, routing table or Simulation sees it
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    links = ([0, 0, 0, 1], [1, 2, 3, 3], [1.0, 0.01, 1.0, 0.01])
    with pytest.raises(InvariantError, match="processing node 3 "):
        call(Topology("2DCA", 0, 2, 2, pos, links))


def _reference_distances(topo):
    # the dense kernel, 64 sources a block, seeded at each PN's switch with its stub
    s_count, pn_switch = topo.n_switch, topo.pn_switches()
    _, hi, length = topo.link_arrays()
    stubs = np.empty(topo.n_processing)
    stubs[hi[hi >= s_count] - s_count] = length[hi >= s_count]
    dist = reference_relax(_switch_arcs(topo), s_count, pn_switch, stubs, np.inf)[pn_switch].T + stubs
    np.fill_diagonal(dist, 0.0)
    return dist


@pytest.mark.parametrize(
    "family, size",
    [(f, s) for f in FAMILIES for s in (31, 32, 33, 63, 64, 65, 512) if f not in CA_FAMILIES]
    + [("2DCA", 64), ("3DCA", 64), ("3DCA", 512)],
)
def test_distance_matrix_equals_reference_kernel(family, size):
    # sources run in blocks, so sizes straddle the kernel's 32 and the reference's 64
    topo = build(TopologyConfig(family, size, size, seed=size))
    _assert_exact(pn_distance_matrix(topo), _reference_distances(topo))


def test_distance_matrix_equals_reference_kernel_with_isolated_switches():
    topo = _faulted("2DCA", 64, 64, 0, 80)
    assert (topo.switch_degrees() == 0).sum() >= 2
    dist = pn_distance_matrix(topo)
    assert np.isinf(dist).any()
    _assert_exact(dist, _reference_distances(topo))


def test_distance_matrix_keeps_the_float_fold_of_each_route():
    # switch 0 reaches switch 5 directly (0.3), over 1 (0.1 + 0.2) and over
    # 2 and 3 (0.09 + 0.12 + 0.09): equal in reals, but from PN 0 the
    # three-hop fold is the shortest float, and from PN 1 the two-hop fold
    # is longer than the direct one
    a = [0, 0, 1, 0, 2, 3, 0, 0, 5, 4]
    b = [5, 1, 5, 2, 3, 5, 4, 6, 7, 8]
    length = [0.3, 0.1, 0.2, 0.09, 0.12, 0.09, 0.05, 0.01, 0.01, 0.02]
    topo = Topology("3DRMStandard", 0, 6, 3, np.full((9, 3), 0.5), (a, b, length))
    assert 0.01 + 0.09 + 0.12 + 0.09 + 0.01 < 0.01 + 0.3 + 0.01 == 0.01 + 0.1 + 0.2 + 0.01
    assert 0.01 + 0.2 + 0.1 + 0.01 > 0.01 + 0.3 + 0.01
    dist = pn_distance_matrix(topo)
    assert dist[0, 1] == 0.01 + 0.09 + 0.12 + 0.09 + 0.01
    _assert_exact(dist, _expected_distances(topo))


def _assert_switch_hops_match_reference(topo):
    got = topo.switch_hops()
    assert got.dtype == np.int32
    assert not got.flags.writeable
    _assert_exact(got, reference_switch_hops(topo))
    return got


@pytest.mark.parametrize("s", [63, 64, 65, 128, 129])
def test_switch_hops_across_word_boundaries(s):
    # the search packs 64 sources per word; N != S keeps PN and switch counts apart
    topo = build(TopologyConfig("3DRMStandard", 40, s, seed=s))
    hops = _assert_switch_hops_match_reference(topo)
    assert hops.shape == (s, s) and not (hops == s).any()


def test_switch_hops_on_a_faulted_fabric_use_the_unreachable_sentinel():
    topo = _faulted("2DCA", 64, 64, 0, 80)
    assert (topo.switch_degrees() == 0).sum() >= 2 and switch_component_count(topo) >= 3
    hops = _assert_switch_hops_match_reference(topo)
    assert (hops == topo.n_switch).any()


@pytest.mark.parametrize("family", ["3DCA", "3DRMStandard"])
def test_switch_hops_on_512_switch_fabrics(family):
    _assert_switch_hops_match_reference(build(TopologyConfig(family, 512, 512, seed=5)))


def test_switch_hops_are_kept_per_topology_and_not_carried_to_derived_ones():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=3))
    hops = topo.switch_hops()
    assert topo.switch_hops() is hops and not hops.flags.writeable
    pn_hop_matrix(topo)
    compute_routing_tables(topo)
    assert topo.switch_hops() is hops
    lo, hi, length = topo.link_arrays()
    keep = np.ones(len(lo), dtype=bool)
    keep[np.flatnonzero(hi < topo.n_switch)[:20]] = False  # the first 20 switch links
    derived = [
        remove_random_links(topo, 30, np.random.default_rng(1)),
        topo.with_links((lo[keep], hi[keep], length[keep])),
    ]
    for faulted in derived:
        got = _assert_switch_hops_match_reference(faulted)
        assert got is not hops and not np.array_equal(got, hops)
    same = topo.with_links((lo, hi, length)).switch_hops()
    assert same is not hops and np.array_equal(same, hops)
