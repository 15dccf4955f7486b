"""Independent reference implementations used to check the package's results.

Everything here is deliberately separate from the package's own algorithms:
plain-dict BFS, a tuple-heap Dijkstra, and a union-find, all working off raw
edge lists rather than Topology accessors.  ``ReferenceSimulation`` is
the message engine as it was before the array-state rewrite: per-switch
deques of ``Message`` objects served one message at a time.
``record_fields`` reads its records, and ``column_fields`` the same fields
from the columns of ``Simulation.messages``, so the two engines compare.
``reference_run`` is ``simcore.run`` as it was before lanes, driving one
``ReferenceSimulation`` through the horizon and the drain.
``reference_build`` and ``reference_remove_random_links`` are
``topology.build`` and ``topology.remove_random_links`` as they were before
the array-backed topology: a cumsum over the candidates on every l^-alpha
pick, a dict of links checked one by one, and a BFS for the switch
components.  ``_switch_arcs`` and ``_lane_routing_tables`` are the switch-arc
builder that ``metrics`` ran on every call and the per-lane routing tables
that ``Simulation`` stitched together, before the switch arcs were built once
in the ``Topology`` constructor and lanes were read from their union.
``_disjoint_union`` is that union, which ``Simulation`` built at set-up
until each lane's arrays were read from its own topology; it is the
reference engine's view of a lane simulation's node ids.
``reference_relax`` is ``metrics._relax`` as it was before the
frontier-sparse kernel: dense Bellman-Ford rounds over 64 sources at a time,
each relaxing every arc out of a switch that improved for any of them.
``reference_switch_hops`` is ``metrics._switch_hops`` as it was before the
bit-parallel breadth-first search: that kernel run with unit weights.
"""

import heapq
import math
from collections import deque
from dataclasses import replace
from typing import Iterator

import numpy as np

from multitude_sim.simcore import (
    DRAIN_CAP_FACTOR,
    UNREACHABLE,
    Message,
    Routing,
    SimConfig,
    SimStats,
    compute_routing_tables,
)
from multitude_sim.topology import (
    CA_FAMILIES,
    CA_STUB_LENGTH,
    DUPLICATE_RESAMPLE_LIMIT,
    FAMILY_ALPHA,
    REPAIR_ATTEMPT_BUDGET,
    RM_FAMILIES,
    ConfigError,
    GenerationError,
    InvariantError,
    Topology,
    TopologyConfig,
    _lattice_side,
)


def edge_list(topology):
    """[(a, b, length), ...] pulled out once so oracles don't touch adjacency."""
    lo, hi, length = topology.link_arrays()
    return list(zip(lo.tolist(), hi.tolist(), length.tolist()))


def link_triple(links):
    """(a, b, length) lists of a {(a, b): length} dict, in its iteration order:
    the link form ``Topology`` takes for the dict ``ReferenceTopology`` takes."""
    return [a for a, _ in links], [b for _, b in links], list(links.values())


def adjacency_from_edges(n_nodes, edges):
    adj = {i: [] for i in range(n_nodes)}
    for a, b, length in edges:
        adj[a].append((b, length))
        adj[b].append((a, length))
    return adj


def bfs_edge_distances(n_nodes, edges, source):
    """Unweighted distances from source; unreachable nodes are absent."""
    adj = adjacency_from_edges(n_nodes, edges)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for node in frontier:
            for nb, _ in adj[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def dijkstra_distances(n_nodes, edges, source):
    """Weighted distances from source; unreachable nodes are absent."""
    adj = adjacency_from_edges(n_nodes, edges)
    dist = {}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for nb, length in adj[node]:
            if nb not in dist:
                heapq.heappush(heap, (d + length, nb))
    return dist


def pn_hops_oracle(topology):
    """Hop counts (switches on path) between every ordered PN pair via BFS."""
    edges = edge_list(topology)
    n = topology.n_processing
    offset = topology.n_switch
    out = {}
    for i in range(n):
        dist = bfs_edge_distances(topology.n_nodes, edges, offset + i)
        for j in range(n):
            if i == j:
                continue
            d = dist.get(offset + j)
            out[(i, j)] = None if d is None else d - 1
    return out


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def switch_component_count(topology):
    """Number of switch-subgraph components via union-find over raw links."""
    uf = UnionFind(topology.n_switch)
    for a, b, _ in edge_list(topology):
        if b < topology.n_switch:
            uf.union(a, b)
    return len({uf.find(s) for s in range(topology.n_switch)})


def next_hop_oracle(topology):
    """Shortest-path next hop for every (switch, PN index) pair via BFS.

    One plain BFS over switch links from each destination PN's switch; a
    switch forwards to its lowest-id neighbour one BFS level closer.  Values
    use the routing table's markers: -1 at the destination's own switch, -2
    where no path exists.
    """
    s_count = topology.n_switch
    edges = edge_list(topology)
    switch_edges = [(a, b, ln) for a, b, ln in edges if b < s_count]
    adj = adjacency_from_edges(s_count, switch_edges)
    home = {b - s_count: a for a, b, _ in edges if b >= s_count}
    out = {}
    for pn in range(topology.n_processing):
        dist = bfs_edge_distances(s_count, switch_edges, home[pn])
        for sw in range(s_count):
            if sw == home[pn]:
                out[(sw, pn)] = -1
            elif sw not in dist:
                out[(sw, pn)] = -2
            else:
                out[(sw, pn)] = min(nb for nb, _ in adj[sw] if dist.get(nb) == dist[sw] - 1)
    return out


def _switch_arcs(topology: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both directions of every switch link as (tail, head, length), sorted by (head, tail)."""
    lo, hi, length = topology.link_arrays()
    switch_link = hi < topology.n_switch
    lo, hi, length = lo[switch_link].astype(np.int32), hi[switch_link].astype(np.int32), length[switch_link]
    tail, head = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    order = np.lexsort((tail, head))
    return tail[order], head[order], np.concatenate([length, length])[order]


_BLOCK = 64  # sources relaxed together


def reference_relax(arcs, n_switch: int, seeds: np.ndarray, values: np.ndarray, unreachable) -> np.ndarray:
    """Vectorised Bellman-Ford over (tail, head, weight) arcs, ``_BLOCK`` sources at a time.

    Column k of the [n_switch, len(seeds)] result starts at ``values[k]`` on
    switch ``seeds[k]``; ``unreachable`` must exceed every real distance.  A
    round relaxes only the arcs leaving switches improved in the round before.
    """
    tail, head, weight = arcs
    out = np.empty((n_switch, len(seeds)), dtype=values.dtype)
    for lo in range(0, len(seeds), _BLOCK):
        frontier = seeds[lo : lo + _BLOCK]
        dist = np.full((n_switch, len(frontier)), unreachable, dtype=values.dtype)
        dist[frontier, np.arange(len(frontier))] = values[lo : lo + _BLOCK]
        while len(live := np.flatnonzero(np.isin(tail, frontier))):
            targets = head[live]
            starts = np.flatnonzero(np.diff(targets, prepend=-1))
            best = np.minimum.reduceat(dist[tail[live]] + weight[live, None], starts, axis=0)
            targets = targets[starts]
            current = dist[targets]
            dist[targets] = np.minimum(best, current)
            frontier = targets[(best < current).any(axis=1)]
        out[:, lo : lo + _BLOCK] = dist
    return out


def reference_switch_hops(topology: Topology) -> np.ndarray:
    """[S, S] int32 switch-to-switch link counts, S where unreachable; read-only."""
    s_count = topology.n_switch
    tail, head, _ = topology.switch_arcs()
    unit = (tail, head, np.ones(len(tail), dtype=np.int32))
    hops = reference_relax(unit, s_count, np.arange(s_count), np.zeros(s_count, dtype=np.int32), s_count)
    hops.setflags(write=False)
    return hops


def _lane_routing_tables(topologies: list[Topology], starts: list[int]) -> np.ndarray:
    """Next-hop table over all lanes: each lane's own table, shifted to its
    switch ids, on the diagonal; no lane reaches another's PNs."""
    tables = [compute_routing_tables(t) for t in topologies]
    if len(tables) == 1:
        return tables[0]
    shape = (sum(t.shape[0] for t in tables), sum(t.shape[1] for t in tables))
    out = np.full(shape, UNREACHABLE, dtype=np.int32)
    col = 0
    for table, lo in zip(tables, starts):
        out[lo : lo + table.shape[0], col : col + table.shape[1]] = np.where(
            table >= 0, table + lo, table
        )
        col += table.shape[1]
    return out


def _disjoint_union(parts: list[Topology]) -> Topology:
    """One topology holding ``parts`` side by side: their switches in order,
    then their processing nodes in order, each part's ids kept in sequence."""
    if len(parts) == 1:
        return parts[0]
    s_total = sum(t.n_switch for t in parts)
    ends, lengths = [], []
    switch_base, pn_base = 0, s_total
    for t in parts:
        lo, hi, length = t.link_arrays()
        ends += [np.where(ids < t.n_switch, ids + switch_base, ids + pn_base - t.n_switch) for ids in (lo, hi)]
        lengths.append(length)
        switch_base += t.n_switch
        pn_base += t.n_processing
    positions = np.concatenate(
        [t.positions[: t.n_switch] for t in parts] + [t.positions[t.n_switch :] for t in parts]
    )
    family = "+".join(dict.fromkeys(t.family for t in parts))
    links = (np.concatenate(ends[0::2]), np.concatenate(ends[1::2]), np.concatenate(lengths))
    return Topology(family, parts[0].seed, s_total, pn_base - s_total, positions, links)


def record_fields(messages) -> list[tuple]:
    """(id, src, dst, injected_at, hops, payload) of each ``Message`` record, in order."""
    return [(m.id, m.src, m.dst, m.injected_at, m.hops_taken, m.payload) for m in messages]


def column_fields(columns: dict[str, np.ndarray]) -> list[tuple]:
    """``record_fields`` from ``Simulation.messages`` columns; a NaN payload reads None."""
    fields = [columns[name].tolist() for name in ("id", "src", "dst", "injected_at", "hops")]
    payloads = [None if np.isnan(p) else p for p in columns["payload"].tolist()]
    return list(zip(*fields, payloads))


class ReferenceSimulation:
    """Mutable simulation state; step() advances one synchronous update."""

    def __init__(self, topology: Topology, config: SimConfig):
        config.validate()
        self.topology = topology
        self.config = config
        self.ttl = config.ttl if config.ttl is not None else 100 * topology.n_switch
        self.rng = np.random.default_rng(config.seed)
        self.routing_table = (  # [switch, PN index]
            compute_routing_tables(topology)[:, topology.pn_switches()]
            if config.routing is Routing.SHORTEST_PATH
            else None
        )
        s_count = topology.n_switch
        self._s_count = s_count
        self._n_count = topology.n_processing
        self._pn_switch = topology.pn_switches().tolist()
        tail, _, _ = topology.switch_arcs()  # grouped by head, tails ascending
        self._switch_neighbors = [
            tuple(nbrs.tolist()) for nbrs in np.split(tail, np.cumsum(topology.switch_degrees())[:-1])
        ]
        self.buffers: list[deque[Message]] = [deque() for _ in range(s_count)]
        self.step_index = 0
        self._next_msg_id = 0

        self.injected = 0
        self.delivered = 0
        self.dropped_ttl = 0
        self.dropped_buffer = 0
        self.unreachable_dropped = 0
        self.max_buffer_occupancy = 0
        self._hops_sum = 0
        self._latency_sum = 0
        self.delivered_this_step: list[Message] = []
        self.dropped_this_step: list[Message] = []

    # -- bookkeeping ---------------------------------------------------------

    def in_flight(self) -> int:
        return sum(len(buf) for buf in self.buffers)

    def iter_in_flight(self) -> Iterator[Message]:
        for buf in self.buffers:
            yield from buf

    def conservation_ok(self) -> bool:
        accounted = (
            self.delivered
            + self.dropped_ttl
            + self.dropped_buffer
            + self.unreachable_dropped
            + self.in_flight()
        )
        return accounted == self.injected

    # -- message entry ---------------------------------------------------------

    def inject(self, src: int, dst: int, payload: float | None = None) -> Message | None:
        """Create a message at src's switch; returns None if it is dropped on entry.

        Entering the attached switch is the stub traversal, so a freshly
        buffered message already counts 1 hop.  Under shortest-path routing a
        destination with no path is discarded immediately (counted as
        unreachable, not as a buffer drop).
        """
        s_count = self._s_count
        if not (s_count <= src < self.topology.n_nodes) or not (
            s_count <= dst < self.topology.n_nodes
        ):
            raise ValueError("src and dst must be processing-node ids")
        if src == dst:
            raise ValueError("a message needs distinct src and dst")
        msg = Message(self._next_msg_id, src, dst, self.step_index, payload=payload)
        self._next_msg_id += 1
        self.injected += 1
        switch = self._pn_switch[src - s_count]
        if (
            self.routing_table is not None
            and self.routing_table[switch, dst - s_count] == UNREACHABLE
        ):
            self.unreachable_dropped += 1
            return None
        buf = self.buffers[switch]
        if len(buf) >= self.config.buffer_capacity:
            self.dropped_buffer += 1
            self.dropped_this_step.append(msg)
            return None
        msg.hops_taken = 1
        buf.append(msg)
        if len(buf) > self.max_buffer_occupancy:
            self.max_buffer_occupancy = len(buf)
        return msg

    # -- the synchronous update -------------------------------------------------

    def step(self, inject: bool = True) -> None:
        self.step_index += 1
        self.delivered_this_step = []
        self.dropped_this_step = []
        s_count = self._s_count
        n_count = self._n_count
        rng = self.rng

        # phase 1: traffic injection
        rate = self.config.injection_rate if inject else 0.0
        if rate > 0.0 and n_count >= 2:
            coins = rng.random(n_count)
            injectors = np.nonzero(coins < rate)[0]
            if len(injectors):
                picks = rng.integers(0, n_count - 1, size=len(injectors))
                for src_idx, pick in zip(injectors, picks):
                    dst_idx = int(pick) + 1 if pick >= src_idx else int(pick)
                    self.inject(s_count + int(src_idx), s_count + dst_idx)

        # phase 2: forwarding
        wandering = self.routing_table is None
        channels = self.config.channels
        serve_counts = [min(channels, len(self.buffers[sw])) for sw in range(s_count)]
        wander_draws = None
        draw_idx = 0
        if wandering:
            total = sum(serve_counts)
            if total:
                wander_draws = rng.random(total)
        staged: list[tuple[int, Message]] = []
        for sw in range(s_count):
            buf = self.buffers[sw]
            for _ in range(serve_counts[sw]):
                msg = buf.popleft()
                dst_idx = msg.dst - s_count
                if self._pn_switch[dst_idx] == sw:
                    self.delivered += 1
                    self._hops_sum += msg.hops_taken
                    self._latency_sum += self.step_index - msg.injected_at + 1
                    self.delivered_this_step.append(msg)
                    if wandering and wander_draws is not None:
                        draw_idx += 1  # keep the draw stream aligned per serviced message
                    continue
                if wandering:
                    nbrs = self._switch_neighbors[sw]
                    draw = wander_draws[draw_idx]
                    draw_idx += 1
                    if not nbrs:
                        buf.append(msg)  # isolated switch: message can only wait
                        continue
                    nxt = nbrs[int(draw * len(nbrs))]
                else:
                    nxt = int(self.routing_table[sw, dst_idx])
                    if nxt == UNREACHABLE:  # only possible via direct inject() misuse
                        self.unreachable_dropped += 1
                        continue
                staged.append((nxt, msg))

        # phase 3: commit in message-id order (canonical, order-independent)
        staged.sort(key=lambda item: item[1].id)
        capacity = self.config.buffer_capacity
        for dest, msg in staged:
            msg.hops_taken += 1
            if msg.hops_taken > self.ttl:
                self.dropped_ttl += 1
                self.dropped_this_step.append(msg)
                continue
            buf = self.buffers[dest]
            if len(buf) >= capacity:
                self.dropped_buffer += 1
                self.dropped_this_step.append(msg)
                continue
            buf.append(msg)
            if len(buf) > self.max_buffer_occupancy:
                self.max_buffer_occupancy = len(buf)

    def stats(self) -> SimStats:
        delivered = self.delivered
        horizon = self.config.horizon
        return SimStats(
            injected=self.injected,
            delivered=delivered,
            dropped_ttl=self.dropped_ttl,
            dropped_buffer=self.dropped_buffer,
            unreachable_dropped=self.unreachable_dropped,
            in_flight_at_end=self.in_flight(),
            avg_hops_delivered=self._hops_sum / delivered if delivered else 0.0,
            avg_latency=self._latency_sum / delivered if delivered else 0.0,
            throughput_per_switch=(
                delivered / (horizon * self._s_count) if horizon > 0 else 0.0
            ),
            max_buffer_occupancy=self.max_buffer_occupancy,
        )


def reference_run(topology: Topology, config: SimConfig) -> SimStats:
    """Run ``horizon`` injected steps, then drain in-flight traffic.

    The drain phase repeats steps with injection disabled until no message
    remains buffered (or a cap of 50 * horizon extra steps is hit), so hop and
    latency averages are not biased toward short paths cut off at the end of
    measurement.
    """
    sim = ReferenceSimulation(topology, config)
    for _ in range(config.horizon):
        sim.step(inject=True)
    drained = 0
    cap = DRAIN_CAP_FACTOR * config.horizon
    while sim.in_flight() > 0 and drained < cap:
        sim.step(inject=False)
        drained += 1
    return replace(sim.stats(), drain_steps=drained, drain_capped=sim.in_flight() > 0)


class ReferenceTopology:
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
    def processing_ids(self) -> range:
        return range(self.n_switch, self.n_nodes)

    def link_items(self) -> Iterator[tuple[tuple[int, int], float]]:
        return iter(self._links.items())

    def link_dict(self) -> dict[tuple[int, int], float]:
        return dict(self._links)

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

    def with_links(self, links: dict[tuple[int, int], float]) -> "ReferenceTopology":
        """New topology with the same nodes and metadata but a different link set."""
        return ReferenceTopology(
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
        if _switch_components(self)[0] > 1:
            raise InvariantError("switch subgraph is not connected")


def _switch_components(topology: ReferenceTopology) -> tuple[int, np.ndarray]:
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


def reference_build_ca(config: TopologyConfig) -> ReferenceTopology:
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

    topo = ReferenceTopology(
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


def reference_build_random_multitude(config: TopologyConfig) -> ReferenceTopology:
    """Scatter nodes in the unit cube and wire switches by l^(-alpha) sampling.

    Link attempts number round(k_s * S / 2).  Each attempt picks a uniform
    source switch and a destination proportional to l^(-alpha); a destination
    already linked to the source is re-drawn up to 64 times before the
    attempt is dropped.  For 3DRMRealistic an attempt whose endpoints would
    exceed k_max is dropped outright, which can depress the realized average
    degree.  Afterwards the switch subgraph is bridged into a single
    component (see ensure_connected).
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

        attempts = round(config.k_s * s / 2)
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

    topo = ReferenceTopology(
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
    topo = reference_ensure_connected(topo, rng)
    topo.validate()
    return topo


def _has(links: dict, a: int, b: int) -> bool:
    return ((a, b) if a < b else (b, a)) in links


def reference_ensure_connected(topology: ReferenceTopology, rng: np.random.Generator) -> ReferenceTopology:
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


def reference_remove_random_links(
    topology: ReferenceTopology, count: int, rng: np.random.Generator
) -> ReferenceTopology:
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


def reference_build(config: TopologyConfig) -> ReferenceTopology:
    if config.family in CA_FAMILIES:
        return reference_build_ca(config)
    return reference_build_random_multitude(config)
