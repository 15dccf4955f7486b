"""Hop, path-length, and clustering metrics against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multitude_sim import CA_FAMILIES, FAMILIES, ConfigError, Topology, TopologyConfig, build, remove_random_links
from multitude_sim.metrics import (
    DisconnectedTopologyError,
    average_hops,
    average_path_length,
    clustering_coefficient,
    compute_metrics,
    degree_histogram,
    pn_hop_matrix,
    pn_distance_matrix,
)
from oracles import dijkstra_distances, edge_list, link_triple, pn_hops_oracle


def _shared_switch_topology():
    # one switch, two PNs on 0.01 stubs (only arises in custom configs)
    pos = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])
    return Topology("2DCA", 0, 1, 2, pos, ([0, 0], [1, 2], [0.01, 0.01]))


def test_two_pns_on_one_switch_is_one_hop():
    hops, unreachable = average_hops(_shared_switch_topology())
    assert hops == 1.0
    assert unreachable == 0


def test_shared_switch_path_length():
    assert average_path_length(_shared_switch_topology()) == pytest.approx(0.02)


def test_2dca9_average_hops_vs_bfs_oracle():
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    oracle = pn_hops_oracle(topo)
    assert len(oracle) == 72  # all ordered distinct pairs
    expected = np.mean([h for h in oracle.values()])
    hops, unreachable = average_hops(topo)
    assert hops == pytest.approx(expected)
    assert unreachable == 0
    # closed form: mean Manhattan distance over distinct pairs on an m-grid
    # is 2m/3, and hops add one switch
    assert hops == pytest.approx(2 * 3 / 3 + 1)


def test_corner_pair_hops_on_3x3_grid():
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    hops = pn_hop_matrix(topo)
    # switches are row-major on the lattice: 0 is (0,0), 8 is (1,1);
    # Manhattan distance 4 means 5 switches on the path
    assert hops[0, 8] == 5
    assert hops[0, 0] == 0


def test_2dca9_path_length_vs_dijkstra_oracle():
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    edges = edge_list(topo)
    total, pairs = 0.0, 0
    for i in range(9):
        dist = dijkstra_distances(topo.n_nodes, edges, 9 + i)
        for j in range(i + 1, 9):
            total += dist[9 + j]
            pairs += 1
    assert average_path_length(topo) == pytest.approx(total / pairs)
    # 0.02 of stubs plus half-unit lattice spacing times the mean Manhattan distance
    assert average_path_length(topo) == pytest.approx(0.02 + 0.5 * 2.0)


def test_path_length_scales_linearly_with_coordinates():
    topo = build(TopologyConfig("3DRMStandard", 24, 24, seed=8))
    scale = 0.5
    lo, hi, length = topo.link_arrays()
    scaled = Topology(
        topo.family,
        topo.seed,
        topo.n_switch,
        topo.n_processing,
        topo.positions * scale,
        (lo, hi, length * scale),
        alpha=topo.alpha,
        k_s=topo.k_s,
    )
    assert average_path_length(scaled) == pytest.approx(scale * average_path_length(topo))


def test_average_hops_needs_two_pns():
    topo = build(TopologyConfig("2DCA", 1, 1, seed=1))
    with pytest.raises(ValueError):
        average_hops(topo)


def test_path_length_needs_two_pns():
    topo = build(TopologyConfig("2DCA", 1, 1, seed=1))
    with pytest.raises(ConfigError, match="^average_path_length needs at least 2 processing nodes$"):
        average_path_length(topo)


def test_path_length_raises_on_disconnection():
    topo = build(TopologyConfig("2DCA", 16, 16, seed=3))
    faulted = remove_random_links(topo, len(topo.switch_link_pairs()), np.random.default_rng(0))
    with pytest.raises(DisconnectedTopologyError):
        average_path_length(faulted)
    hops, unreachable = average_hops(faulted)
    assert unreachable == 16 * 15 // 2  # every distinct pair, counted unordered
    assert math.isnan(hops)


# -- clustering -------------------------------------------------------------------


def _clique_topology(k):
    pos = np.zeros((k + 1, 3))
    for i in range(k):
        pos[i] = (0.1 * i, 0.0, 0.0)
    pos[k] = (0.0, 0.1, 0.0)
    links = {(i, j): float(math.dist(pos[i], pos[j])) for i in range(k) for j in range(i + 1, k)}
    links[(0, k)] = float(math.dist(pos[0], pos[k]))
    return Topology("3DRMGlobal", 0, k, 1, pos, link_triple(links), alpha=0.0)


def test_clustering_of_complete_graph_is_one():
    assert clustering_coefficient(_clique_topology(4)) == 1.0


def test_clustering_of_tree_is_zero():
    topo = build(TopologyConfig("2DCA", 4, 4, seed=1))  # 2x2 lattice is a cycle
    # lattice path: chop one link to make a tree
    lo, hi, length = topo.link_arrays()
    a, b = topo.switch_link_pairs()[0]
    keep = (lo != a) | (hi != b)
    tree = topo.with_links((lo[keep], hi[keep], length[keep]))
    assert clustering_coefficient(tree) == 0.0


def test_clustering_undefined_without_degree_two():
    topo = build(TopologyConfig("2DCA", 1, 1, seed=1))
    with pytest.raises(ValueError):
        clustering_coefficient(topo)


def test_compute_metrics_reads_nan_clustering_without_degree_two():
    # two switches and one link between them: no switch has two neighbours
    topo = build(TopologyConfig("3DRMStandard", 4, 2, seed=0))
    assert topo.switch_degrees().tolist() == [1, 1]
    report = compute_metrics(topo)
    assert math.isnan(report.clustering_coefficient)
    assert (report.avg_hops, report.unreachable_pairs) == average_hops(topo)
    assert report.avg_path_length == average_path_length(topo)
    assert report.csv_row(topo).split(",")[8] == "nan"


# Regression baseline: 20-seed mean clustering measured at 0.101 (Global).
GLOBAL_CLUSTERING_BASELINE = 0.101


def test_global_clustering_is_low():
    values = [
        clustering_coefficient(build(TopologyConfig("3DRMGlobal", 64, 64, seed=seed)))
        for seed in range(20)
    ]
    mean = float(np.mean(values))
    assert mean < 0.15
    assert mean == pytest.approx(GLOBAL_CLUSTERING_BASELINE, abs=0.02)


def test_degree_histogram_counts_switches():
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    hist = degree_histogram(topo)
    assert hist == {2: 4, 3: 4, 4: 1}
    assert sum(hist.values()) == 9


# -- cross-algorithm and fault properties ------------------------------------------


def test_bfs_dijkstra_agree_on_uniform_lengths():
    # on a lattice every switch link has the same length, so weighted path
    # length is 0.02 (stubs) plus spacing times (hops - 1)
    topo = build(TopologyConfig("2DCA", 16, 16, seed=2))
    spacing = 1.0 / 3.0
    hops = pn_hop_matrix(topo)
    dist = pn_distance_matrix(topo)
    n = topo.n_processing
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            assert dist[i, j] == pytest.approx(0.02 + spacing * (hops[i, j] - 1))


def test_deleting_links_never_shortens_paths():
    topo = build(TopologyConfig("3DRMStandard", 32, 32, seed=6))
    before = pn_hop_matrix(topo)
    faulted = remove_random_links(topo, 30, np.random.default_rng(1))
    after = pn_hop_matrix(faulted)
    both = (before >= 0) & (after >= 0)
    assert np.all(after[both] >= before[both])


def test_small_world_hop_ordering():
    means = []
    for alpha in (0.0, 1.8, 3.0):
        hops = [
            average_hops(build(TopologyConfig("3DRMStandard", 64, 64, alpha=alpha, seed=seed)))[0]
            for seed in range(10)
        ]
        means.append(np.mean(hops))
    assert means[0] < means[1] < means[2]


# The locality threshold sits at exponent D + 1 = 4: the hop curve is nearly
# flat below it and climbs steeply past it.  At the reference scale (S=64,
# k_s=6) the graph is dense enough that the measured climb from alpha=3 to
# alpha=5 is a ratio of about 1.11 -- far from flat-region noise but nowhere
# near the 1.5x one might expect of sparser fabrics.  Assert the slope break
# plus the measured regression band.
THRESHOLD_RATIO_BASELINE = 1.11


def test_hop_growth_breaks_at_threshold_exponent():
    means = {}
    for alpha in (0.0, 1.8, 3.0, 5.0):
        hops = [
            average_hops(build(TopologyConfig("3DRMStandard", 64, 64, alpha=alpha, seed=seed + 40)))[0]
            for seed in range(10)
        ]
        means[alpha] = float(np.mean(hops))
    below_slope = (means[1.8] - means[0.0]) / 1.8
    above_slope = (means[5.0] - means[3.0]) / 2.0
    assert above_slope > 3 * abs(below_slope)
    ratio = means[5.0] / means[3.0]
    assert ratio == pytest.approx(THRESHOLD_RATIO_BASELINE, abs=0.05)


def test_compute_metrics_report_row():
    topo = build(TopologyConfig("3DRMStandard", 16, 16, seed=2))
    report = compute_metrics(topo)
    row = report.csv_row(topo)
    fields = row.split(",")
    assert fields[0] == "3DRMStandard"
    assert fields[4] == "1.8"
    assert float(fields[6]) == pytest.approx(report.avg_hops)
    assert report.unreachable_pairs == 0


def _hop_mean_over_matrix(topo):
    # average_hops as the mean over pn_hop_matrix, as it was computed before it read the switch hops
    hops = pn_hop_matrix(topo)
    unreachable = int((hops < 0).sum()) // 2
    if not (hops > 0).any():
        return float("nan"), unreachable
    return float(hops[hops > 0].mean()), unreachable


def _path_mean_over_matrix(topo):
    # average_path_length as a row-order left fold of pn_distance_matrix's upper triangle
    rows, cols = np.triu_indices(topo.n_processing, 1)
    upper = pn_distance_matrix(topo)[rows, cols]
    broken = np.flatnonzero(~np.isfinite(upper))
    if len(broken):
        raise DisconnectedTopologyError(
            f"processing nodes {rows[broken[0]]} and {cols[broken[0]]} have no connecting path"
        )
    return np.cumsum(upper)[-1] / len(upper)


def _outcome(mean, topo):
    """repr of the value (type and bits, NaN included) or the DisconnectedTopologyError message."""
    try:
        return repr(mean(topo))
    except DisconnectedTopologyError as exc:
        return f"DisconnectedTopologyError: {exc}"


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(2, 48),
    s=st.integers(1, 48),
    seed=st.integers(0, 2**32 - 1),
    deletions=st.integers(0, 80),
)
@example(family="2DCA", n=2, s=4, seed=3, deletions=80)  # no switch link left: NaN hop mean
@example(family="3DRMStandard", n=48, s=5, seed=1, deletions=3)  # N > S, several PNs per switch
@example(family="3DRMLocal", n=3, s=40, seed=2, deletions=40)  # N < S, most switches bare
def test_means_equal_the_matrix_formulas_bit_for_bit(family, n, s, seed, deletions):
    # the means read the switch graph and never build the N x N matrices; they must
    # still give the matrix formulas' value, NaN, unreachable count and error message
    if family in CA_FAMILIES:  # a lattice has one PN per switch and a square or cube count
        n = s = (2 + s % 5) ** 2 if family == "2DCA" else (2 + s % 2) ** 3
    topo = build(TopologyConfig(family, n, s, seed=seed))
    topo = remove_random_links(topo, min(deletions, len(topo.switch_link_pairs())), np.random.default_rng(seed))
    assert repr(average_hops(topo)) == repr(_hop_mean_over_matrix(topo))
    assert _outcome(average_path_length, topo) == _outcome(_path_mean_over_matrix, topo)


def test_metrics_memory_follows_the_switch_graph():
    # 4096 PNs on 512 switches: one N x N float matrix would take 134 MB, an S x N one 17 MB
    topo = build(TopologyConfig("3DRMStandard", 4096, 512, seed=0))
    tracemalloc.start()
    try:
        report = compute_metrics(topo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.unreachable_pairs == 0 and math.isfinite(report.avg_path_length)
    assert peak < 32e6
