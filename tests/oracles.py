"""Independent reference implementations used to check the package's results.

Everything here is deliberately separate from the package's own algorithms:
plain-dict BFS, a tuple-heap Dijkstra, and a union-find, all working off raw
edge lists rather than Topology accessors.
"""

import heapq


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
