"""Independent reference implementations used to check the package's results.

Everything here is deliberately separate from the package's own algorithms:
plain-dict BFS, a tuple-heap Dijkstra, and a union-find, all working off raw
edge lists rather than Topology accessors.  ``ReferenceSimulation`` is
the message engine as it was before the array-state rewrite: per-switch
deques of ``Message`` objects served one message at a time.
"""

import heapq
from collections import deque
from typing import Iterator

import numpy as np

from multitude_sim.simcore import (
    UNREACHABLE,
    Message,
    Routing,
    SimConfig,
    SimStats,
    compute_routing_tables,
)
from multitude_sim.topology import Topology


def edge_list(topology):
    """[(a, b, length), ...] pulled out once so oracles don't touch adjacency."""
    return [(a, b, ln) for (a, b), ln in topology.link_items()]


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


class ReferenceSimulation:
    """Mutable simulation state; step() advances one synchronous update."""

    def __init__(self, topology: Topology, config: SimConfig):
        config.validate()
        self.topology = topology
        self.config = config
        self.ttl = config.ttl if config.ttl is not None else 100 * topology.n_switch
        self.rng = np.random.default_rng(config.seed)
        self.routing_table = (
            compute_routing_tables(topology)
            if config.routing is Routing.SHORTEST_PATH
            else None
        )
        s_count = topology.n_switch
        self._s_count = s_count
        self._n_count = topology.n_processing
        self._pn_switch = topology.pn_switches().tolist()
        self._switch_neighbors = [topology.switch_neighbors(s) for s in range(s_count)]
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
