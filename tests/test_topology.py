"""Generation, sampling, repair, fault, and serialization tests."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from multitude_sim import (
    CA_FAMILIES,
    FAMILIES,
    RM_FAMILIES,
    ConfigError,
    GenerationError,
    InvariantError,
    Topology,
    TopologyConfig,
    build,
    build_ca,
    build_random_multitude,
    ensure_connected,
    export_edge_list,
    import_edge_list,
    remove_random_links,
    sample_neighbor,
)
from oracles import ReferenceTopology, edge_list, link_triple, switch_component_count


def link_lengths(topo):
    """{(low id, high id): length} of every link, read from ``link_arrays()``."""
    return {(a, b): length for a, b, length in edge_list(topo)}


def rng(seed):
    return np.random.default_rng(seed)


# -- lattice families -----------------------------------------------------------


def test_2dca_9_link_counts():
    topo = build_ca(TopologyConfig("2DCA", 9, 9, seed=1))
    assert len(topo.switch_link_pairs()) == 12  # 2 * m * (m-1) for m=3
    assert len(topo.link_arrays()[0]) == 21
    assert all(length == 0.01 for (_, b), length in link_lengths(topo).items() if b >= 9)


def test_3dca_27_link_counts():
    topo = build_ca(TopologyConfig("3DCA", 27, 27, seed=1))
    assert len(topo.switch_link_pairs()) == 54  # 3 * m^2 * (m-1) for m=3


def test_2dca_degenerate_single_node():
    topo = build_ca(TopologyConfig("2DCA", 1, 1, seed=1))
    assert topo.n_switch == 1 and topo.n_processing == 1
    assert len(topo.link_arrays()[0]) == 1
    assert len(topo.switch_link_pairs()) == 0


def test_ca_lattice_geometry():
    topo = build_ca(TopologyConfig("2DCA", 9, 9, seed=0))
    # spacing 1/(m-1) = 0.5, lattice spans the unit square, z pinned to 0
    xs = sorted(set(topo.positions[: topo.n_switch, 0].tolist()))
    assert xs == [0.0, 0.5, 1.0]
    assert all(z == 0.0 for z in topo.positions[:, 2].tolist())
    lengths = link_lengths(topo)
    for a, b in topo.switch_link_pairs():
        assert lengths[(a, b)] == pytest.approx(0.5)


def test_ca_rejects_bad_sizes():
    with pytest.raises(ConfigError):
        build_ca(TopologyConfig("2DCA", 10, 10))
    with pytest.raises(ConfigError):
        build_ca(TopologyConfig("3DCA", 30, 30))
    with pytest.raises(ConfigError):
        build_ca(TopologyConfig("2DCA", 9, 16))
    with pytest.raises(ConfigError):
        build_ca(TopologyConfig("3DRMStandard", 9, 9))
    with pytest.raises(ConfigError, match="^build_random_multitude cannot build family '2DCA'$"):
        build_random_multitude(TopologyConfig("2DCA", 9, 9))


# -- random multitudes ------------------------------------------------------------


def test_rm_positions_distinct_and_in_cube():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=5))
    pos = topo.positions
    assert np.all(pos >= 0) and np.all(pos <= 1)
    assert len({tuple(row) for row in pos}) == topo.n_nodes


def test_rm_pn_attaches_to_nearest_switch():
    topo = build(TopologyConfig("3DRMGlobal", 32, 48, seed=9))
    sw_pos = topo.positions[:48]
    lengths = link_lengths(topo)
    for pn, sw in enumerate(topo.pn_switches().tolist(), start=topo.n_switch):
        d = np.linalg.norm(sw_pos - topo.positions[pn], axis=1)
        assert sw == int(d.argmin())
        assert lengths[(sw, pn)] == pytest.approx(float(d.min()))


def test_realistic_respects_kmax_over_seeds():
    for seed in range(50):
        topo = build(TopologyConfig("3DRMRealistic", 64, 64, seed=seed))
        assert topo.switch_degrees().max() <= 10


# Regression baseline: 20-seed realized mean degree measured at 6.0016 for the
# halved attempt count; the target connectivity is 6.
REALIZED_DEGREE_BASELINE = 6.0016


def test_standard_realized_degree_near_target():
    means = []
    for seed in range(20):
        topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=seed))
        means.append(int(topo.switch_degrees().sum()) / 64)
    mean = float(np.mean(means))
    assert abs(mean - 6.0) / 6.0 < 0.15
    assert mean == pytest.approx(REALIZED_DEGREE_BASELINE, abs=0.05)


def test_global_realized_degree_at_ks_12():
    topo = build(TopologyConfig("3DRMGlobal", 64, 64, k_s=12.0, seed=3))
    mean = int(topo.switch_degrees().sum()) / 64
    assert 10.5 < mean <= 12.0  # k_s * S / 2 attempts; a re-draw cap or repair moves it little


def test_rm_invariants_across_families_and_seeds():
    for family in RM_FAMILIES:
        for seed in (0, 1, 2, 3, 4):
            topo = build(TopologyConfig(family, 64, 64, seed=seed))
            topo.validate()
            assert switch_component_count(topo) == 1
            lo, hi, _ = topo.link_arrays()
            for pn in range(topo.n_switch, topo.n_nodes):
                assert np.count_nonzero((lo == pn) | (hi == pn)) == 1


def test_rm_generation_is_deterministic():
    a = export_edge_list(build(TopologyConfig("3DRMStandard", 64, 64, seed=77)))
    b = export_edge_list(build(TopologyConfig("3DRMStandard", 64, 64, seed=77)))
    assert a == b


@pytest.mark.parametrize(
    "config, message",
    [
        (TopologyConfig("XX"), "unknown family 'XX'"),
        (TopologyConfig("2DCA", 0, 9), "n_processing and n_switch must both be >= 1"),
        (TopologyConfig("3DRMStandard", 9, 0), "n_processing and n_switch must both be >= 1"),
        (TopologyConfig("2DCA", 9, 9, seed=-1), "seed must fit in 64 unsigned bits"),
        (TopologyConfig("3DRMStandard", 9, 9, seed=2**64), "seed must fit in 64 unsigned bits"),
        (TopologyConfig("3DRMRealistic", 9, 9, k_max=0), "k_max must be >= 1 for 3DRMRealistic"),
    ],
)
def test_topology_config_refusals(config, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        config.validate()


def test_global_pins_alpha():
    with pytest.raises(ConfigError):
        TopologyConfig("3DRMGlobal", 64, 64, alpha=2.0).validate()
    with pytest.raises(ConfigError):
        TopologyConfig("3DRMLocal", 64, 64, alpha=1.0).validate()
    TopologyConfig("3DRMStandard", 64, 64, alpha=4.5).validate()  # sweepable


def test_mean_link_length_decreases_with_alpha():
    means = []
    for alpha in (0.0, 1.0, 1.8, 3.0):
        lengths = []
        for seed in range(20):
            topo = build(TopologyConfig("3DRMStandard", 64, 64, alpha=alpha, seed=seed))
            _, hi, length = topo.link_arrays()
            lengths.extend(length[hi < 64].tolist())
        means.append(np.mean(lengths))
    assert means[0] > means[1] > means[2] > means[3]


# -- sampling kernel ---------------------------------------------------------------


def test_sample_neighbor_two_candidate_analytic():
    draws = sample_neighbor(9, [(1, 1.0), (2, 2.0)], 1.0, rng(3), size=10**5)
    freq = float((draws == 1).mean())
    assert abs(freq - 2 / 3) < 0.01  # weights 1 and 0.5 normalize to 2/3, 1/3


def test_sample_neighbor_alpha_zero_uniform():
    # the destination pick of a 64-switch global multitude: distances vary,
    # the choice over the 63 partners must still be uniform
    dists = rng(1).uniform(0.01, 1.5, size=63)
    draws = sample_neighbor(63, list(enumerate(dists)), 0.0, rng(2), size=10**5)
    counts = np.bincount(draws, minlength=63)
    _, p = stats.chisquare(counts)
    assert p > 0.01


def test_sample_neighbor_matches_analytic_weights():
    dists = rng(11).uniform(0.05, 1.7, size=20)
    cands = [(i, float(d)) for i, d in enumerate(dists)]
    draws = sample_neighbor(0, cands, 1.8, rng(12), size=10**6)
    counts = np.bincount(draws, minlength=20)
    weights = dists ** -1.8
    _, p = stats.chisquare(counts, weights / weights.sum() * 10**6)
    assert p > 0.01


def test_sample_neighbor_rejects_bad_input():
    with pytest.raises(ValueError):
        sample_neighbor(0, [], 1.0, rng(1))
    with pytest.raises(ValueError):
        sample_neighbor(0, [(1, 0.0)], 1.0, rng(1))
    with pytest.raises(ValueError):
        sample_neighbor(0, [(1, 1.0)], -0.5, rng(1))


def test_sample_neighbor_single_draw_type():
    pick = sample_neighbor(0, [(7, 0.3), (8, 0.6)], 1.8, rng(4))
    assert isinstance(pick, int) and pick in (7, 8)


# -- connectivity repair ------------------------------------------------------------


def test_ensure_connected_noop_on_connected():
    topo = build(TopologyConfig("3DRMGlobal", 64, 64, seed=1))
    assert ensure_connected(topo, rng(5)) is topo


def _two_component_topology():
    # two clusters of 4 switches, one PN each, no links between clusters
    positions = []
    links = {}
    for c, base in enumerate((0.1, 0.8)):
        ids = [c * 4 + k for k in range(4)]
        for k, node in enumerate(ids):
            positions.append((base + 0.02 * k, base, base))
        for a, b in zip(ids, ids[1:]):
            links[(a, b)] = 0.02
    positions.append((0.1, 0.1, 0.1))  # PN 8 near cluster 0
    positions.append((0.8, 0.8, 0.8))  # PN 9 near cluster 1
    links[(0, 8)] = 0.0
    links[(4, 9)] = 0.0
    pos = np.array(positions, dtype=float)
    links[(0, 8)] = float(math.dist(pos[0], pos[8]))
    links[(4, 9)] = float(math.dist(pos[4], pos[9]))
    return Topology("3DRMStandard", 0, 8, 2, pos, link_triple(links), alpha=1.8, k_s=6.0)


def test_ensure_connected_bridges_two_components():
    topo = _two_component_topology()
    assert switch_component_count(topo) == 2
    before = len(topo.link_arrays()[0])
    repaired = ensure_connected(topo, rng(2))
    assert switch_component_count(repaired) == 1
    assert len(repaired.link_arrays()[0]) == before + 1  # one bridge per merge


def test_ensure_connected_local_family_100_seeds():
    for seed in range(100):
        topo = build(TopologyConfig("3DRMLocal", 64, 64, seed=seed))
        assert switch_component_count(topo) == 1


def test_repair_budget_exhaustion_is_infeasible():
    with pytest.raises(GenerationError):
        build(TopologyConfig("3DRMRealistic", 64, 64, k_max=1, seed=0))


# -- fault injection -----------------------------------------------------------------


def test_remove_zero_links_is_identity():
    topo = build(TopologyConfig("2DCA", 64, 64, seed=1))
    assert remove_random_links(topo, 0, rng(1)) is topo


def test_remove_all_switch_links():
    topo = build(TopologyConfig("2DCA", 16, 16, seed=1))
    faulted = remove_random_links(topo, len(topo.switch_link_pairs()), rng(1))
    assert faulted.switch_link_pairs() == []
    assert len(faulted.link_arrays()[0]) == 16  # stubs survive


def test_remove_40_of_112_grid_links():
    topo = build(TopologyConfig("2DCA", 64, 64, seed=1))
    assert len(topo.switch_link_pairs()) == 112  # 2 * 8 * 7
    faulted = remove_random_links(topo, 40, rng(9))
    assert len(faulted.switch_link_pairs()) == 72


def test_remove_rejects_excess_count():
    topo = build(TopologyConfig("2DCA", 9, 9, seed=1))
    with pytest.raises(ConfigError):
        remove_random_links(topo, 13, rng(1))


def test_remove_preserves_positions_and_stubs():
    topo = build(TopologyConfig("3DRMStandard", 64, 64, seed=4))
    faulted = remove_random_links(topo, 50, rng(4))
    assert np.array_equal(faulted.positions, topo.positions)
    assert faulted.pn_switches().tolist() == topo.pn_switches().tolist()
    lengths, faulted_lengths = link_lengths(topo), link_lengths(faulted)
    for pn, sw in enumerate(topo.pn_switches().tolist(), start=topo.n_switch):
        assert faulted_lengths[(sw, pn)] == lengths[(sw, pn)]


# -- serialization ----------------------------------------------------------------------


def test_export_single_node_topology():
    text = export_edge_list(build(TopologyConfig("2DCA", 1, 1, seed=3)))
    lines = text.splitlines()
    assert lines[0] == "# multitude-topology v1 family=2DCA seed=3"
    assert sum(1 for ln in lines if ln.startswith("N ")) == 2


def test_export_2dca9_row_counts():
    text = export_edge_list(build(TopologyConfig("2DCA", 9, 9, seed=0)))
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("N ") and " P " in ln) == 9
    assert sum(1 for ln in lines if ln.startswith("N ") and " S " in ln) == 9
    assert sum(1 for ln in lines if ln.startswith("L ")) == 21


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    deletions=st.integers(min_value=0, max_value=60),
)
def test_export_import_round_trip(family, seed, deletions):
    size = 16 if family == "2DCA" else 27 if family == "3DCA" else 20
    topo = build(TopologyConfig(family, size, size, seed=seed))
    topo = remove_random_links(topo, min(deletions, len(topo.switch_link_pairs())), rng(seed))
    text = export_edge_list(topo)
    again = import_edge_list(text)
    assert export_edge_list(again) == text
    assert again.family == topo.family and again.seed == topo.seed
    assert np.array_equal(again.positions, topo.positions)
    assert [a.tobytes() for a in again.link_arrays()] == [a.tobytes() for a in topo.link_arrays()]
    assert [a.tobytes() for a in again.switch_arcs()] == [a.tobytes() for a in topo.switch_arcs()]
    assert again.pn_switches().tolist() == topo.pn_switches().tolist()


@pytest.mark.parametrize("family", FAMILIES)
def test_pickle_round_trip_is_equal_and_read_only(family):
    # the robustness sweep sends topologies to worker processes this way
    topo = build(TopologyConfig(family, 64, 64, seed=5))
    for case in (topo, remove_random_links(topo, 20, rng(5))):
        again = pickle.loads(pickle.dumps(case))
        assert type(again) is Topology
        meta = ("family", "seed", "alpha", "k_s", "k_max", "n_switch", "n_processing")
        assert [getattr(again, m) for m in meta] == [getattr(case, m) for m in meta]
        assert np.array_equal(again.positions, case.positions)
        arrays = [again.positions, *again.link_arrays(), *again.switch_arcs(), again.pn_switches()]
        assert [a.tobytes() for a in again.link_arrays()] == [a.tobytes() for a in case.link_arrays()]
        assert [a.tobytes() for a in again.switch_arcs()] == [a.tobytes() for a in case.switch_arcs()]
        assert not any(a.flags.writeable for a in arrays)
        assert np.array_equal(again.switch_hops(), case.switch_hops())


def _assert_arcs_symmetric(topo):
    # the path-length kernel walks a switch's arcs in both directions
    tail, head, length = topo.switch_arcs()
    arcs = set(zip(tail.tolist(), head.tolist(), length.tolist()))
    assert len(arcs) == len(tail)
    assert {(h, t, w) for t, h, w in arcs} == arcs


@pytest.mark.parametrize("family", FAMILIES)
def test_switch_arcs_are_symmetric(family):
    size = {"2DCA": 64, "3DCA": 64}.get(family, 48)
    topo = build(TopologyConfig(family, size, size, seed=3))
    faulted = remove_random_links(topo, 30, rng(3))
    for case in (topo, faulted, import_edge_list(export_edge_list(faulted))):
        _assert_arcs_symmetric(case)


def test_import_rejects_garbage():
    with pytest.raises(ConfigError):
        import_edge_list("not a topology\n")
    with pytest.raises(ConfigError):
        import_edge_list("# multitude-topology v1 family=XX seed=0\n")
    for header in ("family=2DCA", "family=2DCA seed=x"):
        with pytest.raises(ConfigError, match="^edge-list header is missing a valid seed$"):
            import_edge_list(f"# multitude-topology v1 {header}\nN 0 S 0.0 0.0 0.0\n")
    head = "# multitude-topology v1 family=2DCA seed=0\n"
    for rows, message in (
        ("N 0 S 0.0 0.0 0.0\nX 1 2\n", "malformed edge-list row: 'X 1 2'"),
        ("N 0 S 0.0 0.0 0.0\nL 0 1\n", "malformed edge-list row: 'L 0 1'"),
        ("N 0 S 0.0 0.0 0.0\nN 2 P 0.0 0.0 0.0\nL 0 2 0.01\n", "edge list node ids must be contiguous from 0"),
        ("N 0 P 0.0 0.0 0.0\nN 1 S 0.0 0.0 0.0\nL 0 1 0.01\n", "switch node ids must precede processing node ids"),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            import_edge_list(head + rows)


@pytest.mark.parametrize("row", ["N 1 S 1.0 zero 0.0", "N one S 1.0 0.0 0.0", "L 0 1 long"])
def test_import_maps_non_numeric_fields_to_config_error(row):
    rows = ["N 0 S 0.0 0.0 0.0", "N 1 S 1.0 0.0 0.0", "L 0 1 1.0"]
    rows[1 if row.startswith("N") else 2] = row
    text = "# multitude-topology v1 family=2DCA seed=0\n" + "\n".join(rows) + "\n"
    with pytest.raises(ConfigError, match="non-numeric"):
        import_edge_list(text)


def test_import_rejects_repeated_rows():
    lines = export_edge_list(build(TopologyConfig("3DRMStandard", 16, 16, seed=3))).splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("L "))
    _, a, b, _ = lines[first].split()
    for repeat in (lines[first], f"L {a} {b} 0.999"):
        text = "\n".join([*lines[: first + 1], repeat, *lines[first + 1 :]]) + "\n"
        with pytest.raises(InvariantError, match=rf"^duplicate link \({a}, {b}\)$"):
            import_edge_list(text)
    for repeat in (lines[1], "N 0 S 0.5 0.5 0.5"):
        text = "\n".join([*lines[:2], repeat, *lines[2:]]) + "\n"
        with pytest.raises(ConfigError, match="repeats a node id"):
            import_edge_list(text)


def _edited_export(family, edit):
    """A 16-node export of ``family`` with ``edit(lines)`` applied to its lines."""
    lines = export_edge_list(build(TopologyConfig(family, 16, 16, seed=3))).splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _set_field(lines, prefix, index, value):
    """Set field ``index`` of the first line starting with ``prefix``."""
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    parts = lines[at].split()
    parts[index] = value
    lines[at] = " ".join(parts)


def test_import_rejects_unknown_node_kind():
    # a PN row of kind Q was read as a processing node
    text = _edited_export("3DRMStandard", lambda lines: _set_field(lines, "N 20 ", 2, "Q"))
    with pytest.raises(ConfigError, match="unknown node kind 'Q'"):
        import_edge_list(text)


@pytest.mark.parametrize(
    "family, prefix, index, value, message",
    [
        ("3DRMStandard", "N 20 ", 3, "1.25", "unit cube"),
        ("3DRMStandard", "N 3 ", 5, "-0.5", "unit cube"),
        ("2DCA", "N 5 ", 5, "0.5", "z = 0"),
        ("2DCA", "L 0 16 ", 3, "0.02", r"lattice stub \(0, 16\) must have length 0.01"),
        ("3DRMStandard", "L 0 1 ", 3, "9.5", r"link \(0, 1\) caches length 9.5"),
        ("2DCA", "L 0 1 ", 3, "0.5", r"link \(0, 1\) caches length 0.5"),
    ],
)
def test_import_checks_geometry(family, prefix, index, value, message):
    # each of these imported and gave metrics from the edited numbers
    text = _edited_export(family, lambda lines: _set_field(lines, prefix, index, value))
    with pytest.raises(InvariantError, match=message):
        import_edge_list(text)


def test_import_checks_neither_degree_cap_nor_connectivity():
    # v1 carries no k_max (import assumes 10), and a faulted fabric is disconnected
    dense = build(TopologyConfig("3DRMRealistic", 32, 32, k_s=12.0, k_max=14, seed=2))
    faulted = remove_random_links(dense, 120, rng(2))
    assert dense.switch_degrees().max() > 10 and switch_component_count(faulted) > 1
    for topo in (dense, faulted):
        text = export_edge_list(topo)
        assert export_edge_list(import_edge_list(text)) == text


def test_import_rejects_processing_node_on_two_switches():
    text = (
        "# multitude-topology v1 family=3DRMStandard seed=0\n"
        "N 0 S 0.0 0.0 0.0\nN 1 S 0.5 0.0 0.0\nN 2 P 0.2 0.0 0.0\n"
        "L 0 1 0.5\nL 0 2 0.2\nL 1 2 0.3\n"
    )
    with pytest.raises(InvariantError, match="processing node 2 "):
        import_edge_list(text)


# -- type-level invariants ------------------------------------------------------------


def test_topology_rejects_self_loops_and_duplicates():
    # the message names the first offending link in input order, as the
    # per-link reference constructor does
    pos = np.zeros((3, 3))
    pos[1] = (0.5, 0, 0)
    pos[2] = (0.2, 0, 0)
    cases = [
        ({(0, 0): 1.0}, "self-loop on node 0"),
        ({(0, 1): 0.5, (2, 2): 1.0, (0, 5): 1.0}, "self-loop on node 2"),
        ({(0, 2): 0.2, (3, 1): 1.0, (1, 1): 1.0}, "link (3, 1) references an unknown node"),
        ({(-1, 0): 1.0}, "link (-1, 0) references an unknown node"),
        ({(0, 1): 0.5, (1, 0): 0.5}, "duplicate link (0, 1)"),  # reversed key, same link
        ({(0, 2): 0.2, (2, 1): 0.3, (1, 2): 0.3, (0, 0): 1.0}, "duplicate link (1, 2)"),
    ]
    for links, message in cases:
        for cls, form in ((Topology, link_triple(links)), (ReferenceTopology, links)):
            with pytest.raises(InvariantError) as err:
                cls("3DRMStandard", 0, 2, 1, pos, form)
            assert str(err.value) == message
    with pytest.raises(InvariantError, match=r"^duplicate link \(0, 1\)$"):
        Topology("3DRMStandard", 0, 2, 1, pos, ([0, 0, 1], [1, 2, 0], [0.5, 0.2, 0.5]))


def test_pn_switches_reads_attachment_and_rejects_non_leaf():
    topo = build(TopologyConfig("3DRMGlobal", 32, 48, seed=9))
    assert topo.pn_switches().tolist() == [topo.attached_switch(pn) for pn in range(topo.n_switch, topo.n_nodes)]
    # PN 2 is wired to both switches, so it is not a leaf: no such Topology exists
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.0, 0.0]])
    with pytest.raises(InvariantError, match="processing node 2 "):
        Topology("3DRMStandard", 0, 2, 1, pos, ([0, 0, 1], [1, 2, 2], [0.5, 0.2, 0.3]))


def test_topology_rejects_positions_of_the_wrong_shape():
    for shape in ((2, 3), (3, 2), (9,)):
        with pytest.raises(ValueError, match=r"^positions must have shape \(3, 3\)$"):
            Topology("3DRMStandard", 0, 2, 1, np.zeros(shape), ([0], [2], [0.0]))


def test_validate_flags_degree_over_k_max():
    # with_links keeps the family and k_max but checks no cap; validate() does
    topo = build(TopologyConfig("3DRMRealistic", 16, 16, k_max=3, seed=1))
    pos = topo.positions
    linked = {a + b for a, b in topo.switch_link_pairs() if 0 in (a, b)}  # switch 0's neighbours
    extra = [j for j in range(1, 16) if j not in linked][: 4 - len(linked)]
    lo, hi, length = topo.link_arrays()
    wider = topo.with_links((
        [*lo, *[0] * len(extra)], [*hi, *extra], [*length, *(math.dist(pos[0], pos[j]) for j in extra)]
    ))
    assert wider.switch_degrees()[0] == 4
    with pytest.raises(InvariantError, match="^switch degree 4 exceeds k_max=3$"):
        wider.validate()


def test_validate_flags_wrong_cached_length():
    pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.0, 0.0]])
    topo = Topology("3DRMStandard", 0, 2, 1, pos, ([0, 0], [1, 2], [0.9, 0.2]))
    with pytest.raises(ValueError):
        topo.validate()
