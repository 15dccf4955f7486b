"""Hop matrix, path-length matrix and routing tables equal their oracles exactly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitude_sim import FAMILIES, InvariantError, Topology, TopologyConfig, build, remove_random_links
from multitude_sim.metrics import _switch_hops, pn_distance_matrix, pn_hop_matrix
from multitude_sim.simcore import Routing, SimConfig, Simulation, compute_routing_tables
from oracles import (
    dijkstra_distances,
    edge_list,
    next_hop_oracle,
    pn_hops_oracle,
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
    _assert_exact(compute_routing_tables(topo), _expected_table(topo))


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


def _assert_switch_hops_match_reference(topo):
    got = _switch_hops(topo)
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
