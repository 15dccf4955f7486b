"""Static graph analytics over topologies: hops, weighted paths, clustering.

Paths are always evaluated between processing-node pairs.  The hop count of a
path is the number of switch nodes on it, so two processing nodes sharing a
switch are 1 hop apart and lattice neighbors are (Manhattan distance + 1)
apart.  PNs are degree-1 leaves, so every metric reads the switch arcs that
the Topology builds once (``Topology.switch_arcs``).  Hop counts read the
switch hop matrix that the Topology computes on first use and keeps
(``Topology.switch_hops``), as simcore's routing tables do; the hop mean
weighs each switch by its PN count.  Path lengths come from one float
kernel, ``_relax``: a Bellman-Ford seeded with stub lengths whose frontier
is the (source, switch) entries that improved in the round before, expanded
over the switch's arcs, which hold every link in both directions.  Float
rounding is monotone, so in any relaxation order the result is the left
fold ``stub_i + l_1 + ... + stub_j`` of a Dijkstra from the PN, bit for
bit.  The kernel yields a block of sources at a time, and the path-length
mean folds each block as it comes, so neither mean holds an N x N or S x N
array; ``pn_hop_matrix`` and ``pn_distance_matrix`` build the N x N
matrices for callers that want them.  Clustering and the degree histogram
read the same arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .topology import ConfigError, Topology, csv_line

__all__ = [
    "DisconnectedTopologyError",
    "MetricsReport",
    "METRICS_CSV_HEADER",
    "pn_hop_matrix",
    "pn_distance_matrix",
    "average_hops",
    "average_path_length",
    "clustering_coefficient",
    "degree_histogram",
    "compute_metrics",
]

METRICS_CSV_HEADER = "family,seed,N,S,alpha,ks,avg_hops,avg_path_length,clustering,unreachable"


class DisconnectedTopologyError(ValueError):
    """Raised when a metric needs a connected topology but finds none."""


@dataclass
class MetricsReport:
    """One topology's static metrics; avg_path_length is NaN when disconnected."""

    avg_hops: float
    avg_path_length: float
    clustering_coefficient: float
    unreachable_pairs: int

    def csv_row(self, topology: Topology) -> str:
        return csv_line([topology.family, topology.seed, topology.n_processing, topology.n_switch, topology.alpha,
                         topology.k_s, self.avg_hops, self.avg_path_length, self.clustering_coefficient,
                         self.unreachable_pairs])


_BLOCK = 32  # sources relaxed together; bounds the frontier's candidate arrays


def _relax(topology: Topology, seeds: np.ndarray, values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Frontier-sparse Bellman-Ford over the switch arcs, ``_BLOCK`` sources at a time.

    Yields (first source, float [block, n_switch] distances) per block of
    sources: row k starts at ``values[k]`` on switch ``seeds[k]`` and is inf
    where unreachable.  A block is one flat source-major vector; the frontier
    is the flat indices of the entries that improved in the round before.
    Arcs are grouped by head and every link is stored both ways with one
    length, so the arcs into a switch list its neighbours as tails: an entry
    expands over them to its index plus each arc's ``tail - head``, and one
    ``np.minimum.at`` scatters the candidates.  The bits do not depend on the
    order: float rounding is monotone, so the fixed point is the minimum over
    paths of their left-fold sums.
    """
    tail, head, weight = topology.switch_arcs()
    s_count = topology.n_switch
    degree = topology.switch_degrees()
    end = np.cumsum(degree)  # the arcs into switch u end at end[u]
    shift = tail.astype(np.int64) - head  # flat step from an arc's head entry to its tail's
    for lo in range(0, len(seeds), _BLOCK):
        block = np.full((min(_BLOCK, len(seeds) - lo), s_count), np.inf)
        flat = block.reshape(-1)
        frontier = np.arange(len(block)) * s_count + seeds[lo : lo + _BLOCK]
        flat[frontier] = values[lo : lo + _BLOCK]
        while len(frontier):
            switch = frontier % s_count
            count = degree[switch]
            entry = np.repeat(frontier, count)
            arc = np.repeat(end[switch] - np.cumsum(count), count) + np.arange(len(entry))
            before = flat.copy()
            np.minimum.at(flat, entry + shift[arc], flat[entry] + weight[arc])
            frontier = np.flatnonzero(flat < before)
        yield lo, block


def pn_hop_matrix(topology: Topology) -> np.ndarray:
    """Minimum hop counts between all processing-node pairs, as an [N, N] int32 array.

    Entry [i, j] is the number of switch nodes on a minimum-hop path between
    PNs i and j (PN i is node ``n_switch + i``, in ``pn_switches()`` order),
    -1 when unreachable, 0 on the diagonal: switch link count plus one.
    ``average_hops`` reads the [S, S] switch hop matrix instead of this one.
    """
    pn_switch = topology.pn_switches()
    hops = topology.switch_hops()[np.ix_(pn_switch, pn_switch)]
    hops = np.where(hops < topology.n_switch, hops + 1, -1)
    np.fill_diagonal(hops, 0)
    return hops


def average_hops(topology: Topology) -> tuple[float, int]:
    """Mean minimum hop count over reachable ordered PN pairs.

    Returns (mean, number of unreachable unordered pairs); unreachable pairs
    only appear after fault injection.  The mean is NaN if nothing is
    reachable.  It is the mean of ``pn_hop_matrix``'s positive entries, read
    off the switch hop matrix with each switch weighted by its PN count:
    the hop sum and the pair count are exact integers, so their quotient is
    that mean bit for bit.
    """
    n = topology.n_processing
    if n < 2:
        raise ConfigError("average_hops needs at least 2 processing nodes")
    s_count = topology.n_switch
    pns = np.bincount(topology.pn_switches(), minlength=s_count)
    hops = topology.switch_hops()
    reached = total = 0  # over ordered PN pairs, each PN with itself included
    for lo in range(0, s_count, _BLOCK):
        rows = hops[lo : lo + _BLOCK]
        reach = rows < s_count
        reached += int(pns[lo : lo + _BLOCK] @ (reach @ pns))
        total += int(pns[lo : lo + _BLOCK] @ (np.where(reach, rows + 1, 0) @ pns))
    unreachable = (n * n - reached) // 2
    if reached == n:  # a PN with itself is 1 switch away, and nothing else is reachable
        return float("nan"), unreachable
    return (total - n) / (reached - n), unreachable


def _pn_distance_rows(topology: Topology) -> Iterator[tuple[int, np.ndarray]]:
    """Yields (first PN, [block, N] rows of ``pn_distance_matrix``), the diagonal not yet zeroed.

    The kernel runs from each PN i seeded at its switch with its stub; [i, j] adds j's stub.
    """
    pn_switch = topology.pn_switches()
    s_count = topology.n_switch
    _, hi, length = topology.link_arrays()
    stub = hi >= s_count  # every PN is a leaf, so these are its links, one each
    stubs = np.empty(topology.n_processing)
    stubs[hi[stub] - s_count] = length[stub]
    for lo, block in _relax(topology, pn_switch, stubs):
        yield lo, block[:, pn_switch] + stubs


def pn_distance_matrix(topology: Topology) -> np.ndarray:
    """Euclidean-weighted shortest path lengths between all PN pairs, as an [N, N]
    float array (inf if unreachable).  ``average_path_length`` folds the same
    rows block by block instead of holding this matrix."""
    dist = np.empty((topology.n_processing,) * 2)
    for lo, rows in _pn_distance_rows(topology):
        dist[lo : lo + len(rows)] = rows
    np.fill_diagonal(dist, 0.0)
    return dist


def average_path_length(topology: Topology) -> float:
    """Mean weighted shortest path over unordered distinct PN pairs, stubs included.

    The upper triangle of ``pn_distance_matrix`` is folded from the left in
    row order, one block of rows at a time: a block's running sum starts from
    the one before, so it is the left fold of the whole triangle, bit for
    bit (``np.sum`` would be pairwise).  The first non-finite pair in row
    order raises DisconnectedTopologyError.
    """
    n = topology.n_processing
    if n < 2:
        raise ConfigError("average_path_length needs at least 2 processing nodes")
    total = np.float64(0.0)  # 0.0 + x is x, so the first block's fold starts at its first pair
    for lo, block in _pn_distance_rows(topology):
        in_upper = np.arange(n) > np.arange(lo, lo + len(block))[:, None]
        upper = block[in_upper]  # row-major, so in row order
        broken = np.flatnonzero(~np.isfinite(upper))
        if len(broken):
            rows, cols = np.nonzero(in_upper)
            raise DisconnectedTopologyError(
                f"processing nodes {lo + rows[broken[0]]} and {cols[broken[0]]} have no connecting path"
            )
        if len(upper):
            upper[0] += total
            total = np.cumsum(upper)[-1]
    return total / (n * (n - 1) // 2)


def clustering_coefficient(topology: Topology) -> float:
    """Mean local clustering over switch nodes of degree >= 2.

    Local clustering of a switch is (links among its switch neighbors) /
    (k * (k - 1) / 2).  Degree-0/1 switches have no defined value and are
    excluded from the mean rather than counted as zero.
    """
    tail, head, _ = topology.switch_arcs()
    s_count = topology.n_switch
    k = topology.switch_degrees()
    # every pair p < q of arcs into one switch is a pair of its neighbours
    later = np.repeat(np.cumsum(k), k) - np.arange(len(head)) - 1
    first = np.repeat(np.arange(len(head)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    arc_key = head.astype(np.int64) * s_count + tail  # ascending: arcs are sorted by (head, tail)
    closed = np.isin(tail[first].astype(np.int64) * s_count + tail[second], arc_key)
    triangles = np.bincount(head[first][closed], minlength=s_count)
    counted = k >= 2
    if not counted.any():
        raise ValueError("no switch node has degree >= 2; clustering is undefined")
    local = triangles[counted] / (k[counted] * (k[counted] - 1) / 2)
    return float(np.cumsum(local)[-1] / len(local))  # switch-order left fold; np.sum is pairwise


def degree_histogram(topology: Topology) -> dict[int, int]:
    """Switch-to-switch degree -> switch-node count."""
    degrees, counts = np.unique(topology.switch_degrees(), return_counts=True)
    return dict(zip(degrees.tolist(), counts.tolist()))


def compute_metrics(topology: Topology) -> MetricsReport:
    """All static metrics at once; path length degrades to NaN after faults."""
    avg, unreachable = average_hops(topology)
    try:
        path_length = float(average_path_length(topology))  # csv_line writes a numpy float as np.float64(...)
    except DisconnectedTopologyError:
        path_length = float("nan")
    try:
        clustering = clustering_coefficient(topology)
    except ValueError:
        clustering = float("nan")
    return MetricsReport(
        avg_hops=avg,
        avg_path_length=path_length,
        clustering_coefficient=clustering,
        unreachable_pairs=unreachable,
    )
