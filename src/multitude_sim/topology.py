"""Topology generation for regular-lattice and random-multitude interconnect fabrics.

Six reference families are supported:

* ``2DCA`` / ``3DCA``: switch nodes on an unfolded square/cubic lattice with
  von Neumann (4- or 6-neighbor) connectivity, one processing node per switch
  attached by a fixed-length 0.01 stub.
* ``3DRMStandard`` / ``3DRMLocal`` / ``3DRMGlobal`` / ``3DRMRealistic``:
  "random multitudes" -- processing and switch nodes scattered uniformly in
  the unit cube, each processing node wired to its nearest switch, and switch
  nodes wired to each other by sampling partners with probability
  proportional to l^(-alpha) of the Euclidean distance l.  The Realistic
  variant additionally caps the switch-to-switch degree at k_max.

All generation is deterministic given a TopologyConfig (including its seed).
Topology values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

__all__ = [
    "FAMILIES",
    "CA_FAMILIES",
    "RM_FAMILIES",
    "FAMILY_ALPHA",
    "CA_STUB_LENGTH",
    "ConfigError",
    "GenerationError",
    "InvariantError",
    "TopologyConfig",
    "Topology",
    "build",
    "build_ca",
    "build_random_multitude",
    "sample_neighbor",
    "ensure_connected",
    "remove_random_links",
    "export_edge_list",
    "import_edge_list",
    "csv_line",
    "csv_text",
]

FAMILIES = ("2DCA", "3DCA", "3DRMStandard", "3DRMLocal", "3DRMGlobal", "3DRMRealistic")
CA_FAMILIES = ("2DCA", "3DCA")
RM_FAMILIES = ("3DRMStandard", "3DRMLocal", "3DRMGlobal", "3DRMRealistic")

# Family-defining shortcut-length exponents.  Standard/Realistic accept an
# override (the exponent sweep reuses those constructions); Global and Local
# are pinned to their defining values.
FAMILY_ALPHA = {
    "3DRMStandard": 1.8,
    "3DRMLocal": 3.0,
    "3DRMGlobal": 0.0,
    "3DRMRealistic": 1.8,
}

# Fixed processing-to-switch attachment length in the lattice families.
CA_STUB_LENGTH = 0.01

# How many times a duplicate destination is re-drawn before the link attempt
# is abandoned.
DUPLICATE_RESAMPLE_LIMIT = 64

# Total failed bridging attempts tolerated while repairing connectivity.
REPAIR_ATTEMPT_BUDGET = 1000

EDGE_LIST_HEADER = "# multitude-topology v1"

# a link set: (a, b, length) as three equal-length sequences
Links = tuple[Sequence[int], Sequence[int], Sequence[float]]


class ConfigError(ValueError):
    """Invalid topology or experiment configuration."""


class GenerationError(RuntimeError):
    """Generation could not satisfy its structural constraints within the retry budget."""


class InvariantError(ValueError):
    """A topology violates one of its structural invariants."""


@dataclass
class TopologyConfig:
    """Parameters for one topology build.

    ``alpha`` defaults to the family's defining exponent when left None.  A
    random-multitude build makes round(k_s * S / 2) switch-link attempts, so
    that the realized average switch degree matches k_s (every bidirectional
    link contributes 2 to the total degree).
    """

    family: str
    n_processing: int = 64
    n_switch: int = 64
    alpha: float | None = None
    k_s: float = 6.0
    k_max: int = 10
    seed: int = 0

    def resolved_alpha(self) -> float | None:
        if self.family in CA_FAMILIES:
            return None
        if self.alpha is None:
            return FAMILY_ALPHA[self.family]
        return float(self.alpha)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n_processing < 1 or self.n_switch < 1:
            raise ConfigError("n_processing and n_switch must both be >= 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.family in CA_FAMILIES:
            if self.n_processing != self.n_switch:
                raise ConfigError(f"{self.family} requires n_processing == n_switch")
            _lattice_side(self.family, self.n_switch)  # raises on bad size
            return
        alpha = self.resolved_alpha()
        if alpha is None or not 0 <= alpha < math.inf:  # NaN fails both comparisons
            raise ConfigError("alpha must be finite and >= 0 for random-multitude families")
        pinned = {"3DRMGlobal": 0.0, "3DRMLocal": 3.0}
        if self.family in pinned and self.alpha is not None and float(self.alpha) != pinned[self.family]:
            raise ConfigError(
                f"{self.family} is defined by alpha={pinned[self.family]}; "
                "use 3DRMStandard to sweep the exponent"
            )
        if not 0 < self.k_s < math.inf:
            raise ConfigError("k_s must be positive and finite")
        if self.family == "3DRMRealistic" and self.k_max < 1:
            raise ConfigError("k_max must be >= 1 for 3DRMRealistic")


def _lattice_side(family: str, count: int) -> int:
    if family == "2DCA":
        m = math.isqrt(count)
        if m * m != count:
            raise ConfigError(f"2DCA needs a perfect-square node count, got {count}")
        return m
    m = round(count ** (1 / 3))
    # guard fp error in the cube root
    for cand in (m - 1, m, m + 1):
        if cand >= 1 and cand**3 == count:
            return cand
    raise ConfigError(f"3DCA needs a perfect-cube node count, got {count}")


class Topology:
    """Immutable embedded interconnect graph.

    Switch nodes occupy ids ``0 .. n_switch-1`` and processing nodes
    ``n_switch .. n_switch+n_processing-1``; a node is its row of
    ``positions``.  Links are undirected, stored once with endpoints ordered
    low id first and sorted by (low, high), and carry a cached Euclidean
    length (the lattice-family stub links are pinned to 0.01).  They are kept
    as three read-only arrays (``link_arrays``), and the switch graph, built
    once here, as both directions of every switch link (``switch_arcs``):
    every switch-graph quantity reads that one form.  The switch hop matrix
    (``switch_hops``) is searched from the arcs on first use and kept.

    ``links`` is an (a, b, length) triple of equal-length sequences.  A
    self-loop, an unknown node or a second link between the same pair raises
    InvariantError naming the first offending entry; so does a processing
    node that is not a leaf on exactly one switch.  ``alpha`` and ``k_s`` are
    kept as float or None, so every row renders them alike.
    """

    __slots__ = (
        "family",
        "seed",
        "alpha",
        "k_s",
        "k_max",
        "n_switch",
        "n_processing",
        "_positions",
        "_lo",
        "_hi",
        "_length",
        "_arcs",
        "_arc_start",
        "_pn_switch",
        "_switch_hops",
    )

    def __init__(
        self,
        family: str,
        seed: int,
        n_switch: int,
        n_processing: int,
        positions: np.ndarray,
        links: Links,
        *,
        alpha: float | None = None,
        k_s: float | None = None,
        k_max: int | None = None,
    ):
        self.family = family
        self.seed = int(seed)
        self.alpha = None if alpha is None else float(alpha)
        self.k_s = None if k_s is None else float(k_s)
        self.k_max = k_max
        self.n_switch = int(n_switch)
        self.n_processing = int(n_processing)
        n_nodes = self.n_nodes
        pos = np.array(positions, dtype=float)
        if pos.shape != (n_nodes, 3):
            raise ValueError(f"positions must have shape ({n_nodes}, 3)")
        pos.setflags(write=False)
        self._positions = pos

        a, b, length = links
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        length = np.asarray(length, dtype=float)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        key = lo * n_nodes + hi  # unique per valid pair; a link sharing an invalid one's key comes after it
        order = np.argsort(key, kind="stable")
        repeated = np.zeros(len(key), dtype=bool)
        repeated[order[1:][key[order[1:]] == key[order[:-1]]]] = True  # all but the first of equal keys
        bad = np.flatnonzero((a == b) | (lo < 0) | (hi >= n_nodes) | repeated)
        if len(bad):
            i = bad[0]
            if a[i] == b[i]:
                raise InvariantError(f"self-loop on node {a[i]}")
            if lo[i] < 0 or hi[i] >= n_nodes:
                raise InvariantError(f"link ({a[i]}, {b[i]}) references an unknown node")
            raise InvariantError(f"duplicate link {(lo.item(i), hi.item(i))}")
        self._lo, self._hi, self._length = lo[order], hi[order], length[order]
        for arr in (self._lo, self._hi, self._length):
            arr.setflags(write=False)

        # both directions of every switch link as int32 (tail, head) and length,
        # sorted by (head, tail): switch s's neighbours, ascending, are the
        # tails of arcs _arc_start[s] : _arc_start[s + 1]
        s_count = self.n_switch
        switch_link = self._hi < s_count
        lo32, hi32 = self._lo[switch_link].astype(np.int32), self._hi[switch_link].astype(np.int32)
        tail, head = np.concatenate([lo32, hi32]), np.concatenate([hi32, lo32])
        order = np.lexsort((tail, head))
        self._arcs = (tail[order], head[order], np.concatenate([self._length[switch_link]] * 2)[order])
        self._arc_start = np.zeros(s_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(head, minlength=s_count), out=self._arc_start[1:])
        for arr in (*self._arcs, self._arc_start):
            arr.setflags(write=False)
        # every PN is a leaf: its only link is a stub to a switch
        stub = (self._lo < s_count) & (self._hi >= s_count)
        pn_switch = np.full(self.n_processing, -1, dtype=np.int64)
        pn_switch[self._hi[stub] - s_count] = self._lo[stub]
        pn_switch[np.bincount(np.concatenate([self._lo, self._hi]), minlength=n_nodes)[s_count:] != 1] = -1
        bad = np.flatnonzero(pn_switch < 0)
        if len(bad):
            raise InvariantError(f"processing node {s_count + bad[0]} must attach to exactly one switch node")
        pn_switch.setflags(write=False)
        self._pn_switch = pn_switch
        self._switch_hops = None  # [S, S] hop counts, filled on the first switch_hops()

    def __reduce__(self):
        # through the constructor, so a copy (one sent to a worker process
        # included) arrives with read-only arrays and searches its own hops
        make = partial(Topology, alpha=self.alpha, k_s=self.k_s, k_max=self.k_max)
        return make, (self.family, self.seed, self.n_switch, self.n_processing, self._positions, self.link_arrays())

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.n_switch + self.n_processing

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    def link_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (low id, high id, length) per link, sorted by (low, high)."""
        return self._lo, self._hi, self._length

    def switch_link_pairs(self) -> list[tuple[int, int]]:
        switch_link = self._hi < self.n_switch
        return list(zip(self._lo[switch_link].tolist(), self._hi[switch_link].tolist()))

    def switch_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int32 (tail, head) and length of both directions of every switch
        link, sorted by (head, tail); a switch's arcs are its neighbours, ascending."""
        return self._arcs

    def switch_degrees(self) -> np.ndarray:
        """Switch-to-switch degree per switch (stub links excluded)."""
        return np.diff(self._arc_start)

    def switch_hops(self) -> np.ndarray:
        """[S, S] int32 switch-to-switch link counts, S where unreachable; read-only.

        A level-synchronous breadth-first search from all S switches at once:
        bit u of row v of the packed reach sets says that the search from
        switch u has reached switch v.  A level ORs together the frontier rows
        of each switch's neighbours (one ``bitwise_or.reduceat`` over the arcs
        grouped by head) and keeps the bits not seen before, which are unpacked
        to write the level.
        Computed on first call and kept: a Topology never changes its links,
        so the hop metrics and simcore's routing tables share one search.
        """
        if self._switch_hops is None:
            s_count = self.n_switch
            tail, head, _ = self._arcs
            hops = np.full((s_count, s_count), s_count, dtype=np.int32)
            np.fill_diagonal(hops, 0)
            ids = np.arange(s_count)
            # little-endian words, so the byte view unpacks bit u of a row at column u
            seen = np.zeros((s_count, (s_count + 63) // 64), dtype="<u8")
            seen[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
            frontier = seen.copy()
            starts = np.flatnonzero(np.diff(head, prepend=-1))
            reached = head[starts]
            level = 0
            while len(tail) and frontier.any():
                level += 1
                new = np.bitwise_or.reduceat(frontier[tail], starts, axis=0) & ~seen[reached]
                frontier = np.zeros_like(seen)
                frontier[reached] = new
                seen |= frontier
                bits = np.unpackbits(frontier.view(np.uint8), axis=1, count=s_count, bitorder="little")
                np.copyto(hops, level, where=bits.view(bool))
            hops.setflags(write=False)
            self._switch_hops = hops
        return self._switch_hops

    def attached_switch(self, pn_id: int) -> int:
        return int(self._pn_switch[pn_id - self.n_switch])

    def pn_switches(self) -> np.ndarray:
        """Read-only attached switch per PN index."""
        return self._pn_switch

    def with_links(self, links: Links) -> "Topology":
        """New topology with the same nodes and metadata but a different link set."""
        return Topology(
            self.family,
            self.seed,
            self.n_switch,
            self.n_processing,
            self._positions,
            links,
            alpha=self.alpha,
            k_s=self.k_s,
            k_max=self.k_max,
        )

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Raise InvariantError if any structural invariant is violated."""
        self._validate_geometry()
        if self.family == "3DRMRealistic":
            cap = self.k_max if self.k_max is not None else 0
            worst = int(self.switch_degrees().max(initial=0))
            if worst > cap:
                raise InvariantError(f"switch degree {worst} exceeds k_max={cap}")
        if _switch_components(self)[0] > 1:
            raise InvariantError("switch subgraph is not connected")

    def _validate_geometry(self) -> None:
        """Raise InvariantError unless every node lies in the unit cube (at z = 0 for
        2DCA), every lattice stub has length 0.01 and every other link caches the
        length its end positions give."""
        pos = self._positions
        if np.any(pos < -1e-12) or np.any(pos > 1 + 1e-12):
            raise InvariantError("node positions must lie in the unit cube")
        if self.family == "2DCA" and np.any(pos[:, 2] != 0.0):
            raise InvariantError("2DCA positions must have z = 0")
        lo, hi, length = self._lo, self._hi, self._length
        lattice_stub = (hi >= self.n_switch) & (self.family in CA_FAMILIES)
        # numpy's sum of squares can differ from math.dist in the last bits, so
        # flag at half the tolerance and decide each flagged link with math.dist
        approx = np.sqrt(_squared_distances(pos[lo], pos[hi]))
        flagged = np.where(lattice_stub, length != CA_STUB_LENGTH, np.abs(length - approx) > 0.5e-9)
        for i in np.flatnonzero(flagged).tolist():
            a, b, cached = lo.item(i), hi.item(i), length.item(i)
            if lattice_stub[i]:
                raise InvariantError(f"lattice stub {(a, b)} must have length {CA_STUB_LENGTH}")
            true_len = math.dist(pos[a], pos[b])
            if abs(cached - true_len) > 1e-9:
                raise InvariantError(
                    f"link {(a, b)} caches length {cached}, geometry says {true_len}"
                )


def _switch_components(topology: Topology) -> tuple[int, np.ndarray]:
    """(component count, per-switch component label), labels numbered by lowest member.

    Min-label propagation over the switch links with pointer jumping: every
    round a switch takes the lowest label among itself and its neighbours,
    then the label its label's switch holds, until nothing changes.
    """
    s_count = topology.n_switch
    tail, head, _ = topology.switch_arcs()
    label = np.arange(s_count)
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, head, label[tail])
        nxt = nxt[nxt]
        if np.array_equal(nxt, label):
            break
        label = nxt
    root = label == np.arange(s_count)
    return int(root.sum()), np.cumsum(root)[label] - 1


# -- sampling kernel ---------------------------------------------------------


def _cumulative_weights(distances: np.ndarray, alpha: float) -> np.ndarray:
    """Running sums of distance^(-alpha) along the last axis, written over ``distances``
    (which stays untouched when alpha is 0: the sums are then a read-only arange view).

    A row of a 2-D table is the same left fold as a cumsum of that row alone,
    so a table built once draws exactly what per-pick cumsums would.
    """
    if alpha == 0.0:
        return np.broadcast_to(np.arange(1.0, distances.shape[-1] + 1.0), distances.shape)
    distances **= -alpha  # the same power as ``distances ** -alpha``, in place
    return np.cumsum(distances, axis=-1, out=distances)


def _draw(cum: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Index (or ``size`` indices) into one cumulative-weight row, one ``rng.random()`` each."""
    if size is None:
        return min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), len(cum) - 1)
    return np.minimum(cum.searchsorted(rng.random(size) * cum[-1], side="right"), len(cum) - 1)


def sample_neighbor(
    source: int,
    candidates: Sequence[tuple[int, float]],
    alpha: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Pick a destination for ``source`` with probability l^(-alpha) / sum(l^(-alpha)).

    ``candidates`` holds (node id, Euclidean distance) pairs; the caller is
    responsible for excluding the source itself.  With ``size`` set, returns
    an array of that many independent picks (useful for distribution tests).
    A zero or negative distance is rejected: positions are distinct by
    construction, so a coincident pair signals a generator bug.
    """
    if len(candidates) == 0:
        raise ValueError(f"no candidates to sample for node {source}")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    ids = np.fromiter((c[0] for c in candidates), dtype=np.int64, count=len(candidates))
    dists = np.fromiter((c[1] for c in candidates), dtype=float, count=len(candidates))
    if np.any(dists <= 0):
        raise ValueError(f"non-positive candidate distance for node {source}")
    idx = _draw(_cumulative_weights(dists, float(alpha)), rng, size)
    return int(ids[idx]) if size is None else ids[idx]


# -- builders -----------------------------------------------------------------


def build(config: TopologyConfig) -> Topology:
    """Build whichever family the config names."""
    if config.family in CA_FAMILIES:
        return build_ca(config)
    return build_random_multitude(config)


def build_ca(config: TopologyConfig) -> Topology:
    """Unfolded square/cubic lattice with one processing node per switch.

    Switch nodes span the unit square/cube with spacing 1/(m-1); there is no
    wraparound.  Every switch links to its lattice neighbors (4 in 2D, 6 in
    3D); each processing node sits at its switch's position and attaches by a
    stub link of fixed length 0.01.
    """
    config.validate()
    if config.family not in CA_FAMILIES:
        raise ConfigError(f"build_ca cannot build family {config.family!r}")
    count = config.n_switch
    m = _lattice_side(config.family, count)
    dims = 2 if config.family == "2DCA" else 3
    spacing = 1.0 / (m - 1) if m > 1 else 0.0
    grid = np.arange(m) / (m - 1) if m > 1 else np.zeros(1)

    # switch (ix, iy[, iz]) has id (ix * m + iy)[ * m + iz] and sits at grid[ix], grid[iy][, grid[iz]]
    sw_pos = np.zeros((count, 3))
    sw_pos[:, :dims] = grid[np.indices((m,) * dims).reshape(dims, count).T]
    ids = np.arange(count).reshape((m,) * dims)
    along = [np.moveaxis(ids, axis, 0) for axis in range(dims)]

    # each switch links to its successor along every axis; processing node i
    # rides on switch i, and its stub length is nominal
    positions = np.vstack([sw_pos, sw_pos])
    a = np.concatenate([g[:-1].ravel() for g in along] + [ids.ravel()])
    b = np.concatenate([g[1:].ravel() for g in along] + [count + ids.ravel()])
    length = np.where(b < count, spacing, CA_STUB_LENGTH)

    topo = Topology(
        config.family,
        config.seed,
        count,
        count,
        positions,
        (a, b, length),
    )
    topo.validate()
    return topo


def _distinct_positions(rng: np.random.Generator, count: int, taken: np.ndarray) -> np.ndarray:
    """Uniform positions in the unit cube, a row re-drawn while it equals a row of
    ``taken`` or an earlier row.  Rows are re-drawn in index order, as a row-by-row
    scan would."""
    pos = rng.random((count, 3))
    while (i := _first_repeat(np.concatenate([taken, pos])) - len(taken)) >= 0:
        pos[i] = rng.random(3)
    return pos


def _first_repeat(rows: np.ndarray) -> int:
    """Lowest index of a row equal to a row before it, or -1."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep index order
    later = order[1:][(rows[order[1:]] == rows[order[:-1]]).all(axis=1)]
    return int(later.min()) if len(later) else -1


_ROW_BLOCK = 64  # rows per block of a build's distance tables; bounds the [block, S] temporaries


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between the broadcast rows of ``[..., 3]`` arrays ``a`` and
    ``b``, added x, y, z from the left as a ``sum`` over the coordinate axis does,
    one axis at a time."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for k in range(3):
        d = a[..., k] - b[..., k]
        d *= d
        out += d
    return out


def _switch_weights(sw_pos: np.ndarray, alpha: float) -> np.ndarray:
    """[S, S-1] running l^-alpha sums: row src weighs the other switches in id order,
    so candidate idx is switch idx + (idx >= src).

    Built in place, ``_ROW_BLOCK`` rows at a time, so no [S, S] distance matrix
    is held; a row is the fold it would be in a table built at once.
    """
    s = len(sw_pos)
    if alpha == 0.0:
        return _cumulative_weights(np.broadcast_to(1.0, (s, s - 1)), alpha)
    table = np.empty((s, s - 1))
    for lo in range(0, s, _ROW_BLOCK):
        rows = table[lo : lo + _ROW_BLOCK]
        d2 = _squared_distances(sw_pos[lo : lo + _ROW_BLOCK, None], sw_pos)
        np.sqrt(d2[np.arange(s) != np.arange(lo, lo + len(rows))[:, None]].reshape(rows.shape), out=rows)
        _cumulative_weights(rows, alpha)
    return table


def build_random_multitude(config: TopologyConfig) -> Topology:
    """Scatter nodes in the unit cube and wire switches by l^(-alpha) sampling.

    Link attempts number round(k_s * S / 2), one per link at the target
    average degree k_s.  Each attempt picks a uniform source switch and a
    destination proportional to l^(-alpha); a destination already linked to
    the source is re-drawn up to 64 times before the attempt is dropped.  For
    3DRMRealistic an attempt whose endpoints would exceed k_max is dropped
    outright, which can depress the realized average degree.  Afterwards the
    switch subgraph is bridged into a single component (see ensure_connected).
    """
    config.validate()
    if config.family not in RM_FAMILIES:
        raise ConfigError(f"build_random_multitude cannot build family {config.family!r}")
    n = config.n_processing
    s = config.n_switch
    alpha = config.resolved_alpha()
    realistic = config.family == "3DRMRealistic"
    k_max = config.k_max if realistic else None
    rng = np.random.default_rng(config.seed)

    pn_pos = _distinct_positions(rng, n, np.empty((0, 3)))
    sw_pos = _distinct_positions(rng, s, pn_pos)
    positions = np.vstack([sw_pos, pn_pos])

    # each processing node attaches to its nearest switch, a block of them at a time
    nearest = np.concatenate([
        _squared_distances(pn_pos[lo : lo + _ROW_BLOCK, None], sw_pos).argmin(axis=1) for lo in range(0, n, _ROW_BLOCK)
    ])

    src_ids: list[int] = []
    dst_ids: list[int] = []
    if s > 1:
        cdf = list(_switch_weights(sw_pos, alpha))

        degree = [0] * s
        linked: set[tuple[int, int]] = set()
        for _ in range(round(config.k_s * s / 2)):
            src = int(rng.integers(s))
            dst = -1
            for _ in range(DUPLICATE_RESAMPLE_LIMIT):
                pick = _draw(cdf[src], rng)
                pick += pick >= src
                if (src, pick) not in linked:
                    dst = pick
                    break
            if dst < 0:
                continue  # every re-draw hit an existing link; attempt lost
            if realistic and (degree[src] >= k_max or degree[dst] >= k_max):
                continue  # cap reached on either endpoint; attempt lost
            linked.update(((src, dst), (dst, src)))
            src_ids.append(src)
            dst_ids.append(dst)
            degree[src] += 1
            degree[dst] += 1

    # stubs, then switch links in attempt order; lengths from the positions, as the tables' are
    a = np.concatenate([nearest, np.array(src_ids, dtype=np.int64)])
    b = np.concatenate([s + np.arange(n), np.array(dst_ids, dtype=np.int64)])
    topo = Topology(
        config.family,
        config.seed,
        s,
        n,
        positions,
        (a, b, np.sqrt(_squared_distances(positions[a], positions[b]))),
        alpha=alpha,
        k_s=config.k_s,
        k_max=k_max,
    )
    topo = ensure_connected(topo, rng)
    topo.validate()
    return topo


def ensure_connected(topology: Topology, rng: np.random.Generator) -> Topology:
    """Bridge a multi-component switch subgraph into one component.

    Each repair link picks a uniform node in the smallest component and a
    destination in the rest of the graph proportional to l^(-alpha), so the
    repair wiring follows the same locality statistics as regular growth.
    Adds exactly (components - 1) links.  Lattice families are connected by
    construction and pass through unchanged, as does any already-connected
    input.  Raises GenerationError once REPAIR_ATTEMPT_BUDGET failed attempts
    accumulate, which only happens under k_max pressure.
    """
    if topology.family in CA_FAMILIES:
        return topology
    n_comp, label = _switch_components(topology)
    if n_comp <= 1:
        return topology

    alpha = topology.alpha if topology.alpha is not None else FAMILY_ALPHA[topology.family]
    k_max = topology.k_max
    positions = topology.positions[: topology.n_switch]
    degree = topology.switch_degrees().tolist()
    bridges: list[tuple[int, int, float]] = []

    # labels are numbered by lowest member: argmin picks the smallest component,
    # lowest first member on a tie, and a merge keeps the lower label
    size = np.bincount(label).astype(float)
    failures = 0
    for _ in range(n_comp - 1):
        comp = int(size.argmin())
        smallest, rest = np.flatnonzero(label == comp), np.flatnonzero(label != comp)
        while True:
            if failures >= REPAIR_ATTEMPT_BUDGET:
                raise GenerationError(
                    "connectivity repair exhausted its retry budget "
                    f"(family={topology.family}, k_max={k_max}); config is infeasible"
                )
            src = int(smallest[rng.integers(len(smallest))])
            dists = np.sqrt(_squared_distances(positions[rest], positions[src]))
            dst = int(rest[_draw(_cumulative_weights(dists, alpha), rng)])
            if k_max is None or (degree[src] < k_max and degree[dst] < k_max):
                break
            failures += 1
        bridges.append((src, dst, math.dist(positions[src], positions[dst])))
        degree[src] += 1
        degree[dst] += 1
        keep, gone = sorted((comp, int(label[dst])))
        label[label == gone] = keep
        size[keep] += size[gone]
        size[gone] = np.inf
    lo, hi, length = topology.link_arrays()
    src_ids, dst_ids, lengths = zip(*bridges)
    return topology.with_links(
        (np.concatenate([lo, src_ids]), np.concatenate([hi, dst_ids]), np.concatenate([length, lengths]))
    )


def remove_random_links(topology: Topology, count: int, rng: np.random.Generator) -> Topology:
    """Delete ``count`` uniformly chosen switch-to-switch links.

    Stub links and node positions are never touched, and connectivity is not
    repaired: the simulator must tolerate undeliverable messages after
    faults.
    """
    lo, hi, length = topology.link_arrays()
    switch_links = np.flatnonzero(hi < topology.n_switch)
    if count < 0 or count > len(switch_links):
        raise ConfigError(
            f"cannot remove {count} of {len(switch_links)} switch links"
        )
    if count == 0:
        return topology
    keep = np.ones(len(lo), dtype=bool)
    keep[switch_links[rng.choice(len(switch_links), size=count, replace=False)]] = False
    return topology.with_links((lo[keep], hi[keep], length[keep]))


# -- serialization -------------------------------------------------------------


def export_edge_list(topology: Topology) -> str:
    """Deterministic text form; round-trips through import_edge_list.

    Line 1 is ``# multitude-topology v1 family=<FAMILY> seed=<SEED>``, then
    one ``N <id> <P|S> <x> <y> <z>`` row per node in id order, then one
    ``L <a> <b> <length>`` row per link with a < b, sorted by (a, b).
    Floats are printed with repr (shortest exact round-trip form).
    """
    lines = [f"{EDGE_LIST_HEADER} family={topology.family} seed={topology.seed}"]
    for node_id, (x, y, z) in enumerate(topology.positions.tolist()):
        kind = "S" if node_id < topology.n_switch else "P"
        lines.append(f"N {node_id} {kind} {x!r} {y!r} {z!r}")
    lo, hi, length = topology.link_arrays()
    for a, b, ln in zip(lo.tolist(), hi.tolist(), length.tolist()):
        lines.append(f"L {a} {b} {ln!r}")
    return "\n".join(lines) + "\n"


def csv_line(cells: Sequence) -> str:
    """One CSV row: None is a blank cell, a float its repr (numpy's, for a numpy float), anything else its str."""
    return ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in cells)


def csv_text(header: str, lines: list[str]) -> str:
    """A CSV file's text: the header, then one line per row, newline-terminated."""
    return header + "\n" + "\n".join(lines) + "\n"


def import_edge_list(text: str) -> Topology:
    """Parse the edge-list format back into a Topology.

    The family label and seed come from the header.  The v1 format does not
    carry the generation parameters, and they are not restored: alpha is the
    family default (a non-default alpha is lost), k_s is None, and k_max is
    10 for 3DRMRealistic and None otherwise (a v2 header that carries all
    three is planned in ROADMAP.md).  A malformed or non-numeric row, or a
    node kind other than S or P, raises ConfigError, a processing node not
    wired to exactly one switch InvariantError.  A repeated node id raises
    ConfigError, a repeated link (in either direction) InvariantError.  The
    geometry is checked as ``Topology.validate`` checks it, with
    InvariantError: positions in the unit cube (z = 0 for 2DCA), lattice
    stubs of length 0.01 and every other length matching its end positions.
    The degree cap and connectivity are not checked: v1 does not carry k_max,
    and a faulted fabric is disconnected.
    """
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or not lines[0].startswith(EDGE_LIST_HEADER):
        raise ConfigError("not a multitude-topology v1 edge list")
    header: dict[str, str] = {}
    for token in lines[0][len(EDGE_LIST_HEADER):].split():
        key, _, value = token.partition("=")
        header[key] = value
    family = header.get("family", "")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r} in edge-list header")
    try:
        seed = int(header.get("seed", ""))
    except ValueError as exc:
        raise ConfigError("edge-list header is missing a valid seed") from exc

    node_rows = 0
    kinds: dict[int, str] = {}
    coords: dict[int, tuple[float, float, float]] = {}
    # every row is kept, so that the Topology constructor rejects a repeated link
    links: tuple[list[int], list[int], list[float]] = ([], [], [])
    for line in lines[1:]:
        parts = line.split()
        try:
            if parts[0] == "N" and len(parts) == 6:
                node_id = int(parts[1])
                kinds[node_id] = parts[2]
                coords[node_id] = (float(parts[3]), float(parts[4]), float(parts[5]))
                node_rows += 1
                continue
            if parts[0] == "L" and len(parts) == 4:
                for column, value in zip(links, (int(parts[1]), int(parts[2]), float(parts[3]))):
                    column.append(value)
                continue
        except ValueError as exc:
            raise ConfigError(f"non-numeric field in edge-list row: {line!r}") from exc
        raise ConfigError(f"malformed edge-list row: {line!r}")

    unknown = sorted(set(kinds.values()) - {"S", "P"})
    if unknown:
        raise ConfigError(f"unknown node kind {unknown[0]!r} in edge list; expected S or P")
    total = len(kinds)
    if node_rows != total:
        raise ConfigError("edge list repeats a node id")
    if sorted(kinds) != list(range(total)):
        raise ConfigError("edge list node ids must be contiguous from 0")
    n_switch = sum(1 for kind in kinds.values() if kind == "S")
    if any(kinds[i] != "S" for i in range(n_switch)):
        raise ConfigError("switch node ids must precede processing node ids")
    positions = np.array([coords[i] for i in range(total)])
    topo = Topology(
        family,
        seed,
        n_switch,
        total - n_switch,
        positions,
        links,
        alpha=FAMILY_ALPHA.get(family),
        k_s=None,
        k_max=10 if family == "3DRMRealistic" else None,
    )
    topo._validate_geometry()
    return topo
