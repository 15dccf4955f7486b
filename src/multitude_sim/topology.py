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
from enum import Enum
from typing import Iterator, Sequence

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
    "NodeKind",
    "Point3",
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


class ConfigError(ValueError):
    """Invalid topology or experiment configuration."""


class GenerationError(RuntimeError):
    """Generation could not satisfy its structural constraints within the retry budget."""


class InvariantError(ValueError):
    """A topology violates one of its structural invariants."""


class NodeKind(Enum):
    PROCESSING = "P"
    SWITCH = "S"


@dataclass(frozen=True)
class Point3:
    """Position in the unit cube; 2D families keep z = 0."""

    x: float
    y: float
    z: float

    def distance_to(self, other: "Point3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass
class TopologyConfig:
    """Parameters for one topology build.

    ``alpha`` defaults to the family's defining exponent when left None.
    ``raw_attempt_count`` switches the number of switch-link attempts from
    round(k_s * S / 2) to round(k_s * S); the halved count is the default so
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
    raw_attempt_count: bool = False

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
        if alpha is None or alpha < 0:
            raise ConfigError("alpha must be >= 0 for random-multitude families")
        pinned = {"3DRMGlobal": 0.0, "3DRMLocal": 3.0}
        if self.family in pinned and self.alpha is not None and float(self.alpha) != pinned[self.family]:
            raise ConfigError(
                f"{self.family} is defined by alpha={pinned[self.family]}; "
                "use 3DRMStandard to sweep the exponent"
            )
        if self.k_s <= 0:
            raise ConfigError("k_s must be positive")
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
    ``n_switch .. n_switch+n_processing-1``.  Links are undirected, stored
    once with endpoints ordered low id first, and carry a cached Euclidean
    length (the lattice-family stub links are pinned to 0.01).
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
        "_links",
        "_adjacency",
        "_switch_adjacency",
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
        links: dict[tuple[int, int], float],
        *,
        alpha: float | None = None,
        k_s: float | None = None,
        k_max: int | None = None,
    ):
        self.family = family
        self.seed = int(seed)
        self.alpha = alpha
        self.k_s = k_s
        self.k_max = k_max
        self.n_switch = int(n_switch)
        self.n_processing = int(n_processing)
        pos = np.array(positions, dtype=float)
        if pos.shape != (self.n_nodes, 3):
            raise ValueError(f"positions must have shape ({self.n_nodes}, 3)")
        pos.setflags(write=False)
        self._positions = pos

        clean: dict[tuple[int, int], float] = {}
        for (a, b), length in links.items():
            a, b = int(a), int(b)
            if a == b:
                raise InvariantError(f"self-loop on node {a}")
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
                raise InvariantError(f"link ({a}, {b}) references an unknown node")
            key = (a, b) if a < b else (b, a)
            if key in clean:
                raise InvariantError(f"duplicate link {key}")
            clean[key] = float(length)
        self._links = dict(sorted(clean.items()))

        adjacency: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for a, b in self._links:
            adjacency[a].append(b)
            adjacency[b].append(a)
        self._adjacency = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        self._switch_adjacency = tuple(
            tuple(nb for nb in self._adjacency[s] if nb < self.n_switch)
            for s in range(self.n_switch)
        )
        pn_switch = np.full(self.n_processing, -1, dtype=np.int64)
        for i in range(self.n_processing):
            nbrs = self._adjacency[self.n_switch + i]
            if len(nbrs) == 1 and nbrs[0] < self.n_switch:
                pn_switch[i] = nbrs[0]
        pn_switch.setflags(write=False)
        self._pn_switch = pn_switch
        self._switch_hops = None  # [S, S] hop counts, filled once by metrics._switch_hops

    # -- basic accessors ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.n_switch + self.n_processing

    @property
    def n_links(self) -> int:
        return len(self._links)

    @property
    def positions(self) -> np.ndarray:
        return self._positions

    @property
    def switch_ids(self) -> range:
        return range(self.n_switch)

    @property
    def processing_ids(self) -> range:
        return range(self.n_switch, self.n_nodes)

    def kind(self, node_id: int) -> NodeKind:
        return NodeKind.SWITCH if node_id < self.n_switch else NodeKind.PROCESSING

    def position(self, node_id: int) -> Point3:
        x, y, z = self._positions[node_id]
        return Point3(float(x), float(y), float(z))

    def nodes(self) -> Iterator[tuple[int, NodeKind, Point3]]:
        for i in range(self.n_nodes):
            yield i, self.kind(i), self.position(i)

    def link_items(self) -> Iterator[tuple[tuple[int, int], float]]:
        return iter(self._links.items())

    def link_dict(self) -> dict[tuple[int, int], float]:
        return dict(self._links)

    def has_link(self, a: int, b: int) -> bool:
        return ((a, b) if a < b else (b, a)) in self._links

    def link_length(self, a: int, b: int) -> float:
        return self._links[(a, b) if a < b else (b, a)]

    def switch_link_pairs(self) -> list[tuple[int, int]]:
        return [(a, b) for (a, b) in self._links if b < self.n_switch]

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        return self._adjacency[node_id]

    def switch_neighbors(self, switch_id: int) -> tuple[int, ...]:
        return self._switch_adjacency[switch_id]

    def switch_degree(self, switch_id: int) -> int:
        """Switch-to-switch degree (stub links excluded)."""
        return len(self._switch_adjacency[switch_id])

    def attached_switch(self, pn_id: int) -> int:
        return int(self._pn_switch[pn_id - self.n_switch])

    def pn_switches(self) -> np.ndarray:
        """Read-only attached switch per PN index; InvariantError names a PN that is no leaf."""
        bad = np.flatnonzero(self._pn_switch < 0)
        if len(bad):
            raise InvariantError(f"processing node {self.n_switch + bad[0]} must attach to exactly one switch node")
        return self._pn_switch

    def with_links(self, links: dict[tuple[int, int], float]) -> "Topology":
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

    def validate(self, require_connected: bool = True) -> None:
        """Raise InvariantError if any structural invariant is violated."""
        pos = self._positions
        if np.any(pos < -1e-12) or np.any(pos > 1 + 1e-12):
            raise InvariantError("node positions must lie in the unit cube")
        if self.family == "2DCA" and np.any(pos[:, 2] != 0.0):
            raise InvariantError("2DCA positions must have z = 0")
        self.pn_switches()
        for (a, b), length in self._links.items():
            is_stub = b >= self.n_switch
            if is_stub and self.family in CA_FAMILIES:
                if length != CA_STUB_LENGTH:
                    raise InvariantError(f"lattice stub {(a, b)} must have length {CA_STUB_LENGTH}")
                continue
            true_len = math.dist(pos[a], pos[b])
            if abs(length - true_len) > 1e-9:
                raise InvariantError(
                    f"link {(a, b)} caches length {length}, geometry says {true_len}"
                )
        if self.family == "3DRMRealistic":
            cap = self.k_max if self.k_max is not None else 0
            worst = max((self.switch_degree(s) for s in range(self.n_switch)), default=0)
            if worst > cap:
                raise InvariantError(f"switch degree {worst} exceeds k_max={cap}")
        if require_connected and _switch_components(self)[0] > 1:
            raise InvariantError("switch subgraph is not connected")


def _switch_components(topology: Topology) -> tuple[int, np.ndarray]:
    """(component count, per-switch component label) via iterative BFS."""
    s_count = topology.n_switch
    label = np.full(s_count, -1, dtype=np.int64)
    n_comp = 0
    for start in range(s_count):
        if label[start] >= 0:
            continue
        label[start] = n_comp
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in topology.switch_neighbors(node):
                    if label[nb] < 0:
                        label[nb] = n_comp
                        nxt.append(nb)
            frontier = nxt
        n_comp += 1
    return n_comp, label


# -- sampling kernel ---------------------------------------------------------


def _weighted_pick(ids, distances, alpha: float, rng: np.random.Generator, size=None):
    """Draw ids with probability proportional to distance^(-alpha)."""
    distances = np.asarray(distances, dtype=float)
    if alpha == 0.0:
        cum = np.arange(1.0, len(distances) + 1.0)
    else:
        cum = np.cumsum(distances ** -alpha)
    total = cum[-1]
    if size is None:
        idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
        return int(ids[min(idx, len(cum) - 1)])
    idx = np.searchsorted(cum, rng.random(size) * total, side="right")
    np.clip(idx, 0, len(cum) - 1, out=idx)
    return np.asarray(ids)[idx]


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
    return _weighted_pick(ids, dists, float(alpha), rng, size)


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

    grid = [0.0] if m == 1 else [i / (m - 1) for i in range(m)]
    sw_pos = np.zeros((count, 3))
    links: dict[tuple[int, int], float] = {}

    if dims == 2:
        def node_id(ix, iy):
            return ix * m + iy

        for ix in range(m):
            for iy in range(m):
                sw_pos[node_id(ix, iy)] = (grid[ix], grid[iy], 0.0)
        for ix in range(m):
            for iy in range(m):
                a = node_id(ix, iy)
                if ix + 1 < m:
                    links[(a, node_id(ix + 1, iy))] = spacing
                if iy + 1 < m:
                    links[(a, node_id(ix, iy + 1))] = spacing
    else:
        def node_id(ix, iy, iz):
            return (ix * m + iy) * m + iz

        for ix in range(m):
            for iy in range(m):
                for iz in range(m):
                    sw_pos[node_id(ix, iy, iz)] = (grid[ix], grid[iy], grid[iz])
        for ix in range(m):
            for iy in range(m):
                for iz in range(m):
                    a = node_id(ix, iy, iz)
                    if ix + 1 < m:
                        links[(a, node_id(ix + 1, iy, iz))] = spacing
                    if iy + 1 < m:
                        links[(a, node_id(ix, iy + 1, iz))] = spacing
                    if iz + 1 < m:
                        links[(a, node_id(ix, iy, iz + 1))] = spacing

    # processing node i rides on switch i; its stub length is nominal
    positions = np.vstack([sw_pos, sw_pos])
    for i in range(count):
        links[(i, count + i)] = CA_STUB_LENGTH

    topo = Topology(
        config.family,
        config.seed,
        count,
        count,
        positions,
        links,
    )
    topo.validate()
    return topo


def _distinct_positions(rng: np.random.Generator, count: int, taken: set) -> np.ndarray:
    """Uniform positions in the unit cube, re-drawn on exact coordinate collision."""
    pos = rng.random((count, 3))
    for i in range(count):
        key = tuple(pos[i])
        while key in taken:
            pos[i] = rng.random(3)
            key = tuple(pos[i])
        taken.add(key)
    return pos


def build_random_multitude(config: TopologyConfig) -> Topology:
    """Scatter nodes in the unit cube and wire switches by l^(-alpha) sampling.

    Link attempts number round(k_s * S / 2) (or round(k_s * S) with
    ``raw_attempt_count``).  Each attempt picks a uniform source switch and a
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

    taken: set = set()
    pn_pos = _distinct_positions(rng, n, taken)
    sw_pos = _distinct_positions(rng, s, taken)
    positions = np.vstack([sw_pos, pn_pos])

    links: dict[tuple[int, int], float] = {}

    # each processing node attaches to its nearest switch
    d2 = ((pn_pos[:, None, :] - sw_pos[None, :, :]) ** 2).sum(axis=2)
    nearest = d2.argmin(axis=1)
    for i in range(n):
        sw = int(nearest[i])
        links[(sw, s + i)] = math.sqrt(float(d2[i, sw]))

    if s > 1:
        diff = sw_pos[:, None, :] - sw_pos[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        all_ids = np.arange(s)
        cand_ids = [np.delete(all_ids, src) for src in range(s)]
        cand_dist = [np.delete(dist[src], src) for src in range(s)]

        attempts = round(config.k_s * s) if config.raw_attempt_count else round(config.k_s * s / 2)
        degree = [0] * s
        for _ in range(attempts):
            src = int(rng.integers(s))
            dst = -1
            for _ in range(DUPLICATE_RESAMPLE_LIMIT):
                pick = _weighted_pick(cand_ids[src], cand_dist[src], alpha, rng)
                if not _has(links, src, pick):
                    dst = pick
                    break
            if dst < 0:
                continue  # every re-draw hit an existing link; attempt lost
            if realistic and (degree[src] >= k_max or degree[dst] >= k_max):
                continue  # cap reached on either endpoint; attempt lost
            key = (src, dst) if src < dst else (dst, src)
            links[key] = float(dist[src, dst])
            degree[src] += 1
            degree[dst] += 1

    topo = Topology(
        config.family,
        config.seed,
        s,
        n,
        positions,
        links,
        alpha=alpha,
        k_s=config.k_s,
        k_max=k_max,
    )
    topo = ensure_connected(topo, rng)
    topo.validate()
    return topo


def _has(links: dict, a: int, b: int) -> bool:
    return ((a, b) if a < b else (b, a)) in links


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
    links = topology.link_dict()
    degree = [topology.switch_degree(s_id) for s_id in range(topology.n_switch)]

    components: dict[int, list[int]] = {}
    for node, comp in enumerate(label):
        components.setdefault(int(comp), []).append(node)
    groups = sorted(components.values(), key=lambda grp: (len(grp), grp[0]))

    failures = 0
    while len(groups) > 1:
        smallest = groups[0]
        rest = sorted(node for grp in groups[1:] for node in grp)
        placed = False
        while not placed:
            if failures >= REPAIR_ATTEMPT_BUDGET:
                raise GenerationError(
                    "connectivity repair exhausted its retry budget "
                    f"(family={topology.family}, k_max={k_max}); config is infeasible"
                )
            src = smallest[int(rng.integers(len(smallest)))]
            dists = np.sqrt(((positions[rest] - positions[src]) ** 2).sum(axis=1))
            dst = _weighted_pick(np.asarray(rest), dists, alpha, rng)
            if k_max is not None and (degree[src] >= k_max or degree[dst] >= k_max):
                failures += 1
                continue
            key = (src, dst) if src < dst else (dst, src)
            links[key] = float(math.dist(positions[src], positions[dst]))
            degree[src] += 1
            degree[dst] += 1
            placed = True
        merged = sorted(smallest + next(grp for grp in groups[1:] if dst in grp))
        groups = sorted(
            [grp for grp in groups[1:] if dst not in grp] + [merged],
            key=lambda grp: (len(grp), grp[0]),
        )
    return topology.with_links(links)


def remove_random_links(topology: Topology, count: int, rng: np.random.Generator) -> Topology:
    """Delete ``count`` uniformly chosen switch-to-switch links.

    Stub links and node positions are never touched, and connectivity is not
    repaired: the simulator must tolerate undeliverable messages after
    faults.
    """
    switch_links = topology.switch_link_pairs()
    if count < 0 or count > len(switch_links):
        raise ConfigError(
            f"cannot remove {count} of {len(switch_links)} switch links"
        )
    if count == 0:
        return topology
    doomed_idx = rng.choice(len(switch_links), size=count, replace=False)
    doomed = {switch_links[int(i)] for i in doomed_idx}
    links = {key: ln for key, ln in topology.link_items() if key not in doomed}
    return topology.with_links(links)


# -- serialization -------------------------------------------------------------


def export_edge_list(topology: Topology) -> str:
    """Deterministic text form; round-trips through import_edge_list.

    Line 1 is ``# multitude-topology v1 family=<FAMILY> seed=<SEED>``, then
    one ``N <id> <P|S> <x> <y> <z>`` row per node in id order, then one
    ``L <a> <b> <length>`` row per link with a < b, sorted by (a, b).
    Floats are printed with repr (shortest exact round-trip form).
    """
    lines = [f"{EDGE_LIST_HEADER} family={topology.family} seed={topology.seed}"]
    for node_id, kind, point in topology.nodes():
        lines.append(
            f"N {node_id} {kind.value} {float(point.x)!r} {float(point.y)!r} {float(point.z)!r}"
        )
    for (a, b), length in topology.link_items():
        lines.append(f"L {a} {b} {float(length)!r}")
    return "\n".join(lines) + "\n"


def import_edge_list(text: str) -> Topology:
    """Parse the edge-list format back into a Topology.

    The family label and seed come from the header; generation parameters
    that the format does not carry (alpha, k_s, k_max) are restored to the
    family defaults.  A malformed or non-numeric row raises ConfigError, a
    processing node not wired to exactly one switch InvariantError.
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

    kinds: dict[int, str] = {}
    coords: dict[int, tuple[float, float, float]] = {}
    links: dict[tuple[int, int], float] = {}
    for line in lines[1:]:
        parts = line.split()
        try:
            if parts[0] == "N" and len(parts) == 6:
                node_id = int(parts[1])
                kinds[node_id] = parts[2]
                coords[node_id] = (float(parts[3]), float(parts[4]), float(parts[5]))
                continue
            if parts[0] == "L" and len(parts) == 4:
                links[(int(parts[1]), int(parts[2]))] = float(parts[3])
                continue
        except ValueError as exc:
            raise ConfigError(f"non-numeric field in edge-list row: {line!r}") from exc
        raise ConfigError(f"malformed edge-list row: {line!r}")

    total = len(kinds)
    if sorted(kinds) != list(range(total)):
        raise ConfigError("edge list node ids must be contiguous from 0")
    n_switch = sum(1 for kind in kinds.values() if kind == "S")
    if any(kinds[i] != "S" for i in range(n_switch)):
        raise ConfigError("switch node ids must precede processing node ids")
    positions = np.array([coords[i] for i in range(total)])
    topology = Topology(
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
    topology.pn_switches()  # InvariantError unless every PN is a leaf on one switch
    return topology
