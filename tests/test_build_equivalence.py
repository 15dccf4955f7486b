"""The array-backed builder and Topology against the per-pick-cumsum reference.

``build`` must draw exactly what ``oracles.reference_build`` draws: the same
positions, links in the same order with the same float bits, the same
adjacency and attachments, and GenerationError on the same configs; and
``remove_random_links`` must delete the links the reference deletes.  The
Topology constructor and ``validate`` must accept and reject the same link
sets as the reference class (whose constructor leaves the leaf-PN check to
``pn_switches``), naming the same first offending link.  The
switch arcs a Topology builds once must equal, values and int32 ids, what
``oracles._switch_arcs`` rebuilds from its links.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multitude_sim import CA_FAMILIES, FAMILIES, GenerationError, InvariantError, Topology, TopologyConfig, build, remove_random_links, topology
from oracles import ReferenceTopology, link_triple, reference_build, reference_remove_random_links

CA_SIZES = {"2DCA": (1, 4, 9, 16, 64), "3DCA": (1, 8, 27, 64)}
PINNED = ("3DRMGlobal", "3DRMLocal")


def assert_same_topology(new, ref):
    assert (new.family, new.seed, new.n_switch, new.n_processing) == (
        ref.family,
        ref.seed,
        ref.n_switch,
        ref.n_processing,
    )
    assert (repr(new.alpha), repr(new.k_s), repr(new.k_max)) == (repr(ref.alpha), repr(ref.k_s), repr(ref.k_max))
    assert new.positions.dtype == ref.positions.dtype and new.positions.tobytes() == ref.positions.tobytes()
    ref_links = list(ref.link_items())
    ref_arrays = (
        np.array([a for (a, _), _ in ref_links], dtype=np.int64),
        np.array([b for (_, b), _ in ref_links], dtype=np.int64),
        np.array([ln for _, ln in ref_links], dtype=np.float64),
    )
    assert [a.dtype for a in new.link_arrays()] == [a.dtype for a in ref_arrays]
    assert [a.tobytes() for a in new.link_arrays()] == [a.tobytes() for a in ref_arrays]
    arcs, ref_arcs = new.switch_arcs(), oracles._switch_arcs(new)
    # a switch's arcs, in (head, tail) order, list its neighbours ascending
    neighbours = np.split(arcs[0], np.cumsum(new.switch_degrees())[:-1])
    assert [tuple(n.tolist()) for n in neighbours] == [ref.switch_neighbors(s) for s in range(ref.n_switch)]
    assert [a.dtype for a in arcs] == [a.dtype for a in ref_arcs] == [np.int32, np.int32, np.float64]
    assert [a.tobytes() for a in arcs] == [a.tobytes() for a in ref_arcs]
    degrees = [ref.switch_degree(s) for s in range(ref.n_switch)]
    assert new.switch_degrees().tolist() == degrees
    assert new.pn_switches().tolist() == [ref.attached_switch(p) for p in ref.processing_ids]
    assert outcome(lambda: new.pn_switches().tolist()) == outcome(lambda: ref.pn_switches().tolist())
    assert new._pn_switch.dtype == ref._pn_switch.dtype


def outcome(call):
    """A call's result, or the type and message of the error it raised."""
    try:
        return call()
    except (GenerationError, InvariantError) as exc:
        return type(exc), str(exc)


@st.composite
def configs(draw):
    family = draw(st.sampled_from(FAMILIES))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    if family in CA_FAMILIES:
        size = draw(st.sampled_from(CA_SIZES[family]))
        return TopologyConfig(family, size, size, seed=seed)
    alpha = None if family in PINNED else draw(st.sampled_from((None, 0.0, 0.5, 1.8, 3.0, 5.0)))
    return TopologyConfig(
        family,
        n_processing=draw(st.integers(min_value=1, max_value=40)),
        n_switch=draw(st.integers(min_value=1, max_value=48)),
        alpha=alpha,
        k_s=draw(st.sampled_from((0.3, 1.0, 2.0, 6.0, 12.0))),  # low k_s leaves components to repair
        k_max=draw(st.sampled_from((1, 2, 3, 10))),
        seed=seed,
    )


@settings(max_examples=150, deadline=None)
@given(config=configs(), deletions=st.integers(min_value=0, max_value=200))
def test_build_matches_reference_builder(config, deletions):
    new, ref = outcome(lambda: build(config)), outcome(lambda: reference_build(config))
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert_same_topology(new, ref)
    count = min(deletions, len(ref.switch_link_pairs()))
    assert_same_topology(
        remove_random_links(new, count, np.random.default_rng(deletions)),
        reference_remove_random_links(ref, count, np.random.default_rng(deletions)),
    )


@pytest.mark.parametrize(
    "config",
    [
        TopologyConfig("3DRMRealistic", 64, 64, k_max=1, seed=0),  # repair budget exhausted
        TopologyConfig("3DRMStandard", 64, 512, k_s=0.5, seed=4),  # hundreds of components
        TopologyConfig("3DRMGlobal", 512, 512, seed=7),
        TopologyConfig("3DRMRealistic", 100, 300, alpha=3.0, k_max=2, k_s=3.0, seed=2),
        TopologyConfig("3DRMLocal", 30, 200, k_s=1.0, seed=11),
        TopologyConfig("2DCA", 1024, 1024, seed=5),
        TopologyConfig("3DCA", 512, 512, seed=5),
    ],
    ids=lambda c: f"{c.family}-{c.n_processing}-{c.n_switch}-ks{c.k_s}-kmax{c.k_max}",
)
def test_build_matches_reference_builder_at_size(config):
    new, ref = outcome(lambda: build(config)), outcome(lambda: reference_build(config))
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert_same_topology(new, ref)


def test_isolated_switch_matches_reference():
    # 2DCA on 64 switches has 112 switch links; 80 deletions strand some switches
    new, ref = build(TopologyConfig("2DCA", 64, 64, seed=0)), reference_build(TopologyConfig("2DCA", 64, 64, seed=0))
    new = remove_random_links(new, 80, np.random.default_rng(0))
    ref = reference_remove_random_links(ref, 80, np.random.default_rng(0))
    assert 0 in new.switch_degrees()
    assert_same_topology(new, ref)


@st.composite
def link_sets(draw):
    """Small node sets, each PN wired to a switch, plus random switch links and
    at most one arbitrary pair (a self-loop, an unknown node, a reversed
    duplicate or a second PN link); lengths may be off the geometry."""
    n_switch = draw(st.integers(min_value=1, max_value=5))
    n_processing = draw(st.integers(min_value=0, max_value=4))
    n_nodes = n_switch + n_processing
    switch = st.integers(min_value=0, max_value=n_switch - 1)
    anything = st.integers(min_value=-1, max_value=n_nodes)
    pairs = [(draw(switch), n_switch + i) for i in range(n_processing)]
    other = st.integers(min_value=1, max_value=max(n_switch - 1, 1))  # offset to a different switch
    pairs += [(a, (a + k) % n_switch) for a, k in draw(st.lists(st.tuples(switch, other), max_size=8 * (n_switch > 1)))]
    pairs += draw(st.lists(st.tuples(anything, anything), max_size=1))
    pairs = draw(st.permutations(pairs))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    family = draw(st.sampled_from(FAMILIES))
    positions = rng.random((n_nodes, 3))
    if family == "2DCA":
        positions[:, 2] = 0.0
    links = {}
    for a, b in pairs:
        known = 0 <= a < n_nodes and 0 <= b < n_nodes
        length = math.dist(positions[a], positions[b]) if known else 1.0
        if family in CA_FAMILIES and max(a, b) >= n_switch:
            length = 0.01
        links[(a, b)] = length + draw(st.sampled_from((0.0, 0.0, 0.0, 5e-10, 2e-9, -2e-9)))
    return family, n_switch, n_processing, positions, links


@settings(max_examples=300, deadline=None)
@given(case=link_sets())
def test_constructor_and_validate_match_reference(case):
    family, n_switch, n_processing, positions, links = case
    args = (family, 3, n_switch, n_processing, positions)
    new = outcome(lambda: Topology(*args, link_triple(links), alpha=1.8, k_s=6.0, k_max=2))

    def reference():
        ref = ReferenceTopology(*args, links, alpha=1.8, k_s=6.0, k_max=2)
        ref.pn_switches()  # the reference checks for leaf PNs only here
        return ref

    ref = outcome(reference)
    if isinstance(ref, tuple):
        assert new == ref
        return
    assert_same_topology(new, ref)
    assert outcome(new.validate) == outcome(ref.validate)



class ScriptedRng:
    """Hands out queued rows from ``random``, to force coordinate collisions."""

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    def random(self, shape):
        count = int(np.prod(shape)) // 3
        out, self.rows = self.rows[:count], self.rows[count:]
        return np.array(out, dtype=float).reshape(shape)


@pytest.mark.parametrize(
    "taken, count, rows",
    [
        ([], 2, [(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)]),
        ([], 2, [(0.1, 0.2, 0.3), (0.1, 0.2, 0.3), (0.7, 0.7, 0.7)]),  # repeat within the batch
        ([(0.5, 0.5, 0.5)], 2, [(0.1, 0.1, 0.1), (0.5, 0.5, 0.5), (0.2, 0.2, 0.2)]),  # repeat of a taken row
        # row 1 repeats row 0, its first re-draw repeats it again, its second
        # equals row 2, which must then be re-drawn in turn
        ([], 3, [(0.1,) * 3, (0.1,) * 3, (0.3,) * 3, (0.1,) * 3, (0.3,) * 3, (0.9,) * 3]),
        ([(0.3, 0.2, 0.1)], 2, [(0.3, 0.2, 0.2), (0.3, 0.2, 0.1), (0.3, 0.2, 0.2), (0.4, 0.0, 0.0)]),
    ],
)
def test_distinct_positions_redraws_like_a_row_scan(taken, count, rows):
    new_rng, ref_rng = ScriptedRng(rows), ScriptedRng(rows)
    new = topology._distinct_positions(new_rng, count, np.array(taken, dtype=float).reshape(-1, 3))
    ref = oracles._distinct_positions(ref_rng, count, set(taken))
    assert new.tobytes() == ref.tobytes()
    assert new_rng.rows == ref_rng.rows == []  # every scripted row drawn, by both
    assert len({tuple(r) for r in new} | set(taken)) == count + len(taken)
