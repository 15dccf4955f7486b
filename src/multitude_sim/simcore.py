"""Synchronous message-passing engine over a topology.

Each step runs three phases:

1. injection -- every processing node independently creates a message to a
   uniformly random other processing node with probability p_I and enqueues
   it at its attached switch (counting a buffer drop if the FIFO is full),
   in message-id order;
2. forwarding -- every switch dequeues up to C messages; each is delivered
   if its destination hangs off this switch, otherwise sent toward the next
   hop (shortest-path table by destination switch, read off the topology's
   switch hop matrix ``Topology.switch_hops``, or a uniformly random switch
   neighbor) into a staging area;
3. commit -- staged messages enter their destination buffers in message-id
   order, hop counters increment, and messages whose hop count exceeds the
   TTL are dropped.

The stage/commit split means a message crosses at most one switch link per
step and the outcome does not depend on the order switches are visited.
Each phase is one fixed sequence of whole-array operations over
structure-of-arrays message state (see ``Simulation``): a step's new
messages enter as one batch, through the entry routine that
``Simulation.inject`` and the sync task also use for their own traffic,
and its deliveries and drops stay columns that ``Simulation.messages`` reads.
Everything is driven by one seeded generator consumed in fixed id order, so
a (topology, config) pair always produces identical statistics.  Runs that
differ only in topology and seed can share one simulation as lanes
(``run_many``); each lane reads its own topology's arrays and routing
table, keeps its own generator and gets the statistics it would get alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .topology import ConfigError, Topology, csv_line

__all__ = [
    "Routing",
    "SimConfig",
    "Message",
    "SimStats",
    "Simulation",
    "compute_routing_tables",
    "run",
    "run_many",
    "LOCAL",
    "UNREACHABLE",
    "SIM_CSV_HEADER",
]

# routing-table markers
LOCAL = -1        # destination's processing node hangs off this switch
UNREACHABLE = -2  # no path from this switch to the destination

SIM_CSV_HEADER = (
    "family,seed,N,S,alpha,ks,routing,pI,C,M,T,"
    "delivered,dropped_ttl,dropped_buffer,unreachable,avg_hops,avg_latency,throughput"
)


class Routing(Enum):
    SHORTEST_PATH = "ShortestPath"
    RANDOM_WANDERING = "RandomWandering"


@dataclass
class SimConfig:
    """Traffic and switch parameters for one run.

    ``ttl`` bounds the hop count of a message before it is discarded
    (None resolves to 100 * n_switch, a cover-time safeguard that only
    random wandering ever approaches).
    """

    injection_rate: float = 0.1
    channels: int = 6
    buffer_capacity: int = 100
    horizon: int = 500
    routing: Routing = Routing.SHORTEST_PATH
    ttl: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if not 0.0 <= self.injection_rate <= 1.0:
            raise ConfigError("injection_rate must lie in [0, 1]")
        if self.channels < 0:
            raise ConfigError("channels must be >= 0")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.ttl is not None and self.ttl < 1:
            raise ConfigError("ttl must be >= 1 when set")
        if not isinstance(self.routing, Routing):
            raise ConfigError(f"routing must be a Routing value, got {self.routing!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")


@dataclass(slots=True)
class Message:
    """One routed unit of traffic; hops_taken counts switch nodes visited."""

    id: int
    src: int
    dst: int
    injected_at: int
    hops_taken: int = 0
    payload: float | None = None


@dataclass
class SimStats:
    """Aggregate delivery statistics for one run.

    ``throughput_per_switch`` divides every delivery, drain phase included,
    by ``horizon * S``.  ``drain_steps`` counts the injection-free steps
    ``run`` took after the horizon, and ``drain_capped`` is true when the
    drain stopped at its cap with messages still in flight; neither is a
    CSV column.
    """

    injected: int
    delivered: int
    dropped_ttl: int
    dropped_buffer: int
    unreachable_dropped: int
    in_flight_at_end: int
    avg_hops_delivered: float
    avg_latency: float
    throughput_per_switch: float
    max_buffer_occupancy: int
    drain_steps: int = 0
    drain_capped: bool = False

    def csv_row(self, topology: Topology, config: SimConfig) -> str:
        # the seed column is the traffic seed, not the topology's
        return csv_line([
            topology.family, config.seed, topology.n_processing, topology.n_switch, topology.alpha, topology.k_s,
            config.routing.value, float(config.injection_rate), config.channels, config.buffer_capacity,
            config.horizon, self.delivered, self.dropped_ttl, self.dropped_buffer, self.unreachable_dropped,
            float(self.avg_hops_delivered), float(self.avg_latency), float(self.throughput_per_switch),
        ])


_TABLE_BLOCK = 64  # destination switches per block; bounds the [arcs, block] arrays


def compute_routing_tables(topology: Topology) -> np.ndarray:
    """Next-hop table by destination switch: int32 [S, S], entry [switch, dest switch]
    is the neighbor switch id.

    From the switch hop matrix (``Topology.switch_hops``) a switch picks
    its lowest-id neighbor one hop closer to the destination switch,
    reading the topology's switch arcs.
    LOCAL marks the destination itself, UNREACHABLE a missing path
    (possible after fault injection).  A message to PN j reads column
    ``pn_switches()[j]``; the table does not grow with the PN count.
    """
    s_count = topology.n_switch
    hops = topology.switch_hops()
    # arcs sorted by (head, tail); read swapped, they are grouped by switch
    # with neighbors ascending, so a group minimum is the lowest-id choice
    nbr, sw, _ = topology.switch_arcs()
    starts = np.flatnonzero(np.diff(sw, prepend=-1))
    table = np.full((s_count, s_count), UNREACHABLE, dtype=np.int32)
    for lo in range(0, s_count, _TABLE_BLOCK):  # [S, S] by destination switch
        cols = hops[:, lo : lo + _TABLE_BLOCK]
        closer = np.where(cols[nbr] == cols[sw] - 1, nbr[:, None], s_count)
        best = np.minimum.reduceat(closer, starts, axis=0)
        table[sw[starts], lo : lo + _TABLE_BLOCK] = np.where(best < s_count, best, UNREACHABLE)
    np.fill_diagonal(table, LOCAL)
    return table


def _flat_routing(topologies: list[Topology], starts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's ``compute_routing_tables``, shifted to global switch ids and
    stored flat, and each switch's row offset: the next hop from switch ``sw``
    toward destination switch ``d`` of its lane is ``next_hop[route_row[sw] + d]``."""
    tables, rows, base = [], [], 0
    for topology, lo in zip(topologies, starts):
        n = topology.n_switch
        table = compute_routing_tables(topology)
        np.add(table, lo, out=table, where=table >= 0)
        tables.append(table.ravel())
        rows.append(np.arange(base - lo, base - lo + n * n, n))
        base += n * n
    return np.concatenate(tables), np.concatenate(rows)


# initial ring width cap; the paper's buffer capacity (M = 100) never widens it
_RING_WIDTH = 128

# message pool rows, one column per buffered message
_ID, _SRC, _DST, _BORN, _HOPS, _DSW, _PAYLOAD = range(7)
# the payload row holds a float's bits (written through a float64 view);
# None is stored as -1, the bits of a NaN that float arithmetic never produces
_NO_PAYLOAD = -1
_NO_ROWS = np.zeros((7, 0), dtype=np.int64)  # no messages, as pool columns

# the delivery log is folded into the per-lane sums at this many entries or messages
_LOG_ENTRIES = 64
_LOG_MESSAGES = 1024


def _records(columns: dict[str, np.ndarray]) -> list[Message]:
    """Message records from ``Simulation.messages`` columns, in their order."""
    *fields, payload = columns.values()
    payloads = np.where(payload.view(np.int64) == _NO_PAYLOAD, None, payload).tolist()
    return list(map(Message, *(field.tolist() for field in fields), payloads))


class Simulation:
    """Mutable simulation state; step() advances one synchronous update.

    A simulation runs one or more independent lanes in lockstep:
    ``Simulation(topology, config)`` has one, ``Simulation.lanes(...)`` one
    per topology.  Lane k's switches follow those of lanes 0..k-1, and its
    processing nodes follow all switches and the PNs of lanes 0..k-1.  At
    set-up the neighbour lists, degrees and PN attachments are each lane's
    own, shifted to these ids and concatenated; no union topology is built.
    Under shortest-path routing the lanes' ``[S_k, S_k]`` tables are stored
    flat (``_flat_routing``); a message looks up its next hop by its
    destination switch (pool row ``_DSW``), which lies in its own lane, so
    no cross-lane entry is kept.
    Each lane has its own generator, its own TTL (100 * its
    switch count when unset) and its own counters; one step serves every
    lane with the same array operations, and a lane's outcome is exactly
    that of a simulation of its topology alone.  ``stats(lane)`` gives one
    lane's counts and statistics.

    Messages are held as structure-of-arrays state.  The int64 pool
    ``_pool`` has one column per buffered message (rows: id, src, dst,
    injected_at, hops, destination switch, payload bits) and a stack of free
    columns (``_free[:_top]``), so it grows with the peak number in flight,
    not with the ids issued.  Switch s's FIFO is row s of the flat
    ``[S, width]`` ring of pool columns: ``_occ[s]`` entries from column
    ``_head[s]``, wrapping at ``width`` (a power of two, doubled when a
    buffer needs more).  New messages, a step's drawn batch
    (``_inject_batch``), a caller's (``inject``) or the sync task's, enter
    through one routine, ``_enter``; a step's staged messages are committed
    as one batch, and both are placed by ``_enqueue``.  A step keeps its
    delivered and dropped messages as pool columns only; ``messages(view)``
    reads them, or the buffered messages, as named columns.  Two views remain
    only for the benchmark's tracer, until it reads the program's own counts
    (ROADMAP item 2): ``buffers`` and ``delivered_this_step``, which builds
    ``Message`` records from the columns (``_records``) on every read.
    Each step's delivered columns also go to a log that is folded into the
    per-lane delivery sums now and then, so a step pays no per-lane
    arithmetic for its deliveries.
    """

    def __init__(self, topology: Topology, config: SimConfig):
        self._setup([topology], config, [config.seed])

    @classmethod
    def lanes(
        cls, topologies: Sequence[Topology], config: SimConfig, seeds: Sequence[int]
    ) -> "Simulation":
        """One simulation running ``topologies`` side by side, lane k seeded with ``seeds[k]``."""
        if len(topologies) != len(seeds) or not topologies:
            raise ConfigError("lanes need one seed per topology and at least one topology")
        sim = cls.__new__(cls)
        sim._setup(list(topologies), config, list(seeds))
        return sim

    def _setup(self, topologies: list[Topology], config: SimConfig, seeds: list[int]) -> None:
        for seed in seeds:  # the lanes' seeds stand in for config.seed
            replace(config, seed=seed).validate()
        pns = [t.n_processing for t in topologies]
        if min(pns) < 2:
            raise ConfigError("a simulation needs at least 2 processing nodes in every lane")
        self.config = config
        sizes = [t.n_switch for t in topologies]
        s_count, n_count = sum(sizes), sum(pns)
        self._s_count = s_count
        self._switches = np.arange(s_count)
        # lane k's switches come after those of lanes 0..k-1, and so do its PNs after all switches
        self._lane_start = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        starts = self._lane_start.tolist()
        self._lane_bounds = [(lo, lo + n) for lo, n in zip(starts, sizes)]
        self._lane_of = np.repeat(np.arange(len(topologies)), sizes)
        self._pn_switch = np.concatenate([t.pn_switches() + lo for t, lo in zip(topologies, starts)])

        # wandering takes neighbour int(draw * degree) of the switch's ascending
        # list; an isolated switch lists itself, so its messages stay put
        tail = np.concatenate([t.switch_arcs()[0] + lo for t, lo in zip(topologies, starts)])
        degree = np.concatenate([t.switch_degrees() for t in topologies])
        isolated = np.flatnonzero(degree == 0)
        self._neighbors = np.insert(tail, (np.cumsum(degree) - degree)[isolated], isolated).astype(np.intp)
        self._degree = np.maximum(degree, 1)
        self._first_neighbor = np.cumsum(self._degree) - self._degree
        self._next_hop = None
        if config.routing is Routing.SHORTEST_PATH:
            self._next_hop, self._route_row = _flat_routing(topologies, starts)
        self._stays = self._next_hop is None and len(isolated) > 0

        # per-lane generators, injection sources (generator, first PN id, PN count) and TTLs
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._sources = list(zip(self._rngs, np.cumsum([s_count] + pns[:-1]).tolist(), pns))
        ttls = [config.ttl if config.ttl is not None else 100 * n for n in sizes]
        # one TTL for every lane, or a TTL per switch when lane sizes set different ones
        self._ttl = int(ttls[0]) if len(set(ttls)) == 1 else np.repeat(ttls, sizes)

        self._occ = np.zeros(s_count, dtype=np.intp)
        self._head = np.zeros(s_count, dtype=np.intp)
        self._set_width(1 << (min(config.buffer_capacity, _RING_WIDTH) - 1).bit_length())
        # a step serves at most min(C, M) messages per switch and enters at most one per PN
        self._iota = np.arange(max(s_count * min(config.channels, config.buffer_capacity), n_count))
        self._pool = np.zeros((7, 0), dtype=np.int64)
        self._free = np.zeros(0, dtype=np.intp)
        self._top = 0
        self._grow_pool(s_count * min(config.buffer_capacity, 16))  # pages are touched as used
        self._in_flight = 0
        self.step_index = 0
        self._next_msg_id = 0

        n_lanes = len(topologies)
        self._injected = np.zeros(n_lanes, dtype=np.int64)
        self._unreachable = np.zeros(n_lanes, dtype=np.int64)
        self._dropped_ttl = np.zeros(n_lanes, dtype=np.int64)
        self._dropped_buffer = np.zeros(n_lanes, dtype=np.int64)
        self._delivered = np.zeros(n_lanes, dtype=np.int64)
        self._hops_sum = np.zeros(n_lanes, dtype=np.int64)
        self._latency_sum = np.zeros(n_lanes, dtype=np.int64)
        # occupancy peak per lane; a commit whose fullest buffer stays at or
        # below _peak_floor (the lowest lane peak) cannot raise any of them
        self._peaks = np.zeros(n_lanes, dtype=np.intp)
        self._peak_floor = 0
        self._log: list[tuple[int, np.ndarray]] = []  # (step, delivered columns) not yet folded
        self._logged = 0
        self._delivered_rows = self._dropped_rows = _NO_ROWS  # the last step's, as pool columns

    # -- bookkeeping ---------------------------------------------------------

    def messages(self, view: str) -> dict[str, np.ndarray]:
        """Read-only columns id, src, dst, injected_at, hops and payload (float64, NaN for none) of a view:
        "delivered", the last step's deliveries in (switch, FIFO) order; "dropped", its entry, then commit
        drops, each in id order, then the entry drops since; "buffered", switch by switch in FIFO order."""
        if view == "buffered":
            rows = self._pool.take(self._fifo(self._occ)[0], axis=1)
        else:
            rows = {"delivered": self._delivered_rows, "dropped": self._dropped_rows}[view]
        rows.flags.writeable = False  # the delivered columns are also the delivery log's
        return dict(zip(("id", "src", "dst", "injected_at", "hops"), rows), payload=rows[_PAYLOAD].view(np.float64))

    @property
    def delivered_this_step(self) -> list[Message]:
        """Records of the messages the last step delivered, in (switch, FIFO) order."""
        return _records(self.messages("delivered"))

    @property
    def buffers(self) -> list[range]:
        """One sized item per switch, whose len() is that switch's occupancy."""
        return list(map(range, self._occ.tolist()))

    def lane_in_flight(self) -> list[int]:
        """Buffered messages per lane."""
        return np.add.reduceat(self._occ, self._lane_start).tolist()

    def conservation_ok(self) -> bool:
        """Whether every lane accounts for each message it injected: delivered, dropped or in flight."""
        return all(
            s.delivered + s.dropped_ttl + s.dropped_buffer + s.unreachable_dropped + s.in_flight_at_end == s.injected
            for s in map(self.stats, range(len(self._lane_bounds)))
        )

    def stats(self, lane: int = 0) -> SimStats:
        """Statistics of one lane (the only one by default)."""
        self._fold()
        lo, hi = self._lane_bounds[lane]
        occ = self._occ[lo:hi]
        delivered = self._delivered.item(lane)
        horizon = self.config.horizon
        return SimStats(
            injected=self._injected.item(lane),
            delivered=delivered,
            dropped_ttl=self._dropped_ttl.item(lane),
            dropped_buffer=self._dropped_buffer.item(lane),
            unreachable_dropped=self._unreachable.item(lane),
            in_flight_at_end=int(occ.sum()),
            avg_hops_delivered=self._hops_sum.item(lane) / delivered if delivered else 0.0,
            avg_latency=self._latency_sum.item(lane) / delivered if delivered else 0.0,
            throughput_per_switch=(
                delivered / (horizon * (hi - lo)) if horizon > 0 else 0.0
            ),
            max_buffer_occupancy=self._peaks.item(lane),
        )

    def close_lane(self, lane: int) -> SimStats:
        """A lane's final statistics; its buffered messages are then discarded,
        uncounted, so that it takes no further part in the steps."""
        stats = self.stats(lane)
        if stats.in_flight_at_end:
            held = np.where(self._lane_of == lane, self._occ, 0)
            self._release(self._fifo(held)[0])
            self._occ -= held
        return stats

    def _fold(self) -> None:
        """Add the logged deliveries to the per-lane delivery, hop and latency sums."""
        if not self._log:
            return
        steps, parts = zip(*self._log)
        rows = np.concatenate(parts, axis=1)
        lane = self._lane_of[rows[_DSW]]
        arrived = np.repeat(np.array(steps) + 1, [part.shape[1] for part in parts])
        np.add.at(self._delivered, lane, 1)
        np.add.at(self._hops_sum, lane, rows[_HOPS])
        np.add.at(self._latency_sum, lane, arrived - rows[_BORN])
        self._log = []
        self._logged = 0

    # -- array state ------------------------------------------------------------

    def _set_width(self, width: int) -> None:
        """Allocate an empty ring of ``width`` columns per switch (a power of two)."""
        self._width = width
        self._mask = width - 1
        self._base = self._switches * width
        self._ring = np.zeros(self._s_count * width, dtype=np.intp)

    def _fifo(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pool columns and switches of each switch's first ``counts[s]`` messages,
        in (switch, FIFO) order."""
        sw = self._switches.repeat(counts)
        rank = self._arange(len(sw))
        first = self._head - (counts.cumsum() - counts)  # head less the switch's offset in sw
        return self._ring[self._base[sw] + ((first[sw] + rank) & self._mask)], sw

    def _arange(self, n: int) -> np.ndarray:
        """``np.arange(n)``, sliced from the preallocated ``_iota`` when it is long enough."""
        return self._iota[:n] if n <= len(self._iota) else np.arange(n)

    def _widen(self, need: int) -> None:
        """Double the ring until a switch holds ``need`` messages; FIFOs restart at column 0."""
        occ = self._occ
        slots, sw = self._fifo(occ)
        place = np.arange(len(sw)) - (occ.cumsum() - occ)[sw]
        width = self._width
        while width < need:
            width *= 2
        self._set_width(width)
        self._ring[self._base[sw] + place] = slots
        self._head[:] = 0

    def _grow_pool(self, size: int) -> None:
        """Widen the pool to ``size`` columns; the new ones go on the free stack."""
        old = self._pool.shape[1]
        pool = np.zeros((7, size), dtype=np.int64)
        pool[:, :old] = self._pool
        self._pool = pool
        self._id, _, _, _, self._hops, self._dsw, _ = pool
        free = np.zeros(size, dtype=np.intp)
        free[: self._top] = self._free[: self._top]
        free[self._top : self._top + size - old] = np.arange(size - 1, old - 1, -1)
        self._free = free
        self._top += size - old

    def _release(self, slots: np.ndarray) -> None:
        """Return the pool columns of messages leaving the network to the free stack."""
        top = self._top + len(slots)
        self._free[self._top : top] = slots
        self._top = top
        self._in_flight -= len(slots)

    def _draw(self, served: np.ndarray, sw: np.ndarray) -> np.ndarray:
        """One uniform draw per served message: each lane's from its own
        generator, concatenated lane by lane in (switch, FIFO) order."""
        if len(self._rngs) == 1:
            return self._rngs[0].random(len(sw))
        counts = np.add.reduceat(served, self._lane_start).tolist()
        # random(0) advances no generator, so a lane with nothing to serve is skipped
        return np.concatenate([rng.random(n) for rng, n in zip(self._rngs, counts) if n])

    # -- message entry ---------------------------------------------------------

    def inject(self, src: ArrayLike, dst: ArrayLike, payload: ArrayLike | None = None) -> int:
        """Create messages from processing nodes ``src`` to ``dst``; returns
        how many were buffered.

        ``src``, ``dst`` and ``payload`` are scalars or equal-length arrays.
        The messages take the next ids in array order, and each has the
        outcome it would have if they entered one at a time in that order
        (see ``_enter``).  Entering the attached switch is the stub traversal, so a freshly buffered message
        already counts 1 hop.  Under shortest-path routing a destination with
        no path is discarded immediately (counted as unreachable, not as a
        buffer drop).
        """
        src = np.asarray(src, dtype=np.int64).reshape(-1)
        dst = np.asarray(dst, dtype=np.int64).reshape(-1)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have the same length")
        pns = np.concatenate([src, dst]) - self._s_count
        if np.any((pns < 0) | (pns >= len(self._pn_switch))):
            raise ValueError("src and dst must be processing-node ids")
        if np.any(src == dst):
            raise ValueError("a message needs distinct src and dst")
        lanes = self._lane_of[self._pn_switch[pns]]
        if np.any(lanes[: len(src)] != lanes[len(src) :]):
            raise ValueError("src and dst must lie in the same lane")
        if payload is not None:
            payload = np.broadcast_to(np.asarray(payload, dtype=np.float64), src.shape).view(np.int64)
        return self._enter(src, dst, _NO_PAYLOAD if payload is None else payload)

    def _enter(self, src: np.ndarray, dst: np.ndarray, payload: np.ndarray | int) -> int:
        """Enter messages ``src[i] -> dst[i]`` (processing-node ids, payload
        bits) with the next ids, in array order; returns how many were buffered.

        A reachable message enters while its rank among the reachable entries
        at its source switch, in id order, is below the room left in that
        switch's buffer.  Entry drops join the step's dropped columns in id
        order, with 0 hops.  The ring widens at most once and the pool
        grows at most once.
        """
        count = len(src)
        s_count = self._s_count
        sw = self._pn_switch[src - s_count]
        lane = self._lane_of[sw]
        self._injected += np.bincount(lane, minlength=len(self._injected))
        rows = np.empty((7, count), dtype=np.int64)
        rows[_ID] = np.arange(self._next_msg_id, self._next_msg_id + count)
        self._next_msg_id += count
        rows[_SRC], rows[_DST], rows[_BORN], rows[_HOPS] = src, dst, self.step_index, 1
        rows[_DSW], rows[_PAYLOAD] = self._pn_switch[dst - s_count], payload
        if self._next_hop is not None:
            lost = self._next_hop[self._route_row[sw] + rows[_DSW]] == UNREACHABLE
            if np.count_nonzero(lost):
                np.add.at(self._unreachable, lane[lost], 1)
                kept = ~lost
                rows, sw, lane = rows[:, kept], sw[kept], lane[kept]
        order = sw.argsort(kind="stable")
        rank = np.empty_like(order)
        rank[order] = self._arange(len(sw)) - sw[order].searchsorted(sw[order])
        tail = self._occ[sw] + rank
        enter = tail < self.config.buffer_capacity
        if np.count_nonzero(enter) < len(enter):
            full = ~enter
            np.add.at(self._dropped_buffer, lane[full], 1)
            dropped = rows[:, full]
            dropped[_HOPS] = 0
            self._dropped_rows = np.concatenate([self._dropped_rows, dropped], axis=1)
            rows, sw, tail = rows[:, enter], sw[enter], tail[enter]
        need = len(sw)
        if not need:
            return 0
        # columns come off the free stack in id order, as one message at a time takes them
        if need > self._top:
            old = self._pool.shape[1]
            size = 2 * old
            while self._top + size - old < need:
                size *= 2
            self._grow_pool(size)
        slots = self._free[self._top - need : self._top][::-1]
        self._top -= need
        self._in_flight += need
        self._pool[:, slots] = rows
        self._enqueue(slots, sw, tail)
        return need

    # -- the synchronous update -------------------------------------------------

    def step(self, inject: bool = True) -> None:
        self.step_index += 1
        self._delivered_rows = self._dropped_rows = _NO_ROWS

        rate = self.config.injection_rate if inject else 0.0
        if rate > 0.0:
            self._inject_batch(rate)
        if self._in_flight and self.config.channels:
            self._forward_and_commit()

    def _inject_batch(self, rate: float) -> None:
        """Phase 1: each lane's new messages, drawn from its own generator,
        enter through ``_enter`` with ids in (lane, source PN) order."""
        srcs, dsts = [], []
        for rng, first_pn, n_count in self._sources:
            src = np.flatnonzero(rng.random(n_count) < rate)
            if len(src):
                pick = rng.integers(0, n_count - 1, size=len(src))
                srcs.append(src + first_pn)
                dsts.append(pick + (pick >= src) + first_pn)
        if srcs:
            self._enter(np.concatenate(srcs), np.concatenate(dsts), _NO_PAYLOAD)

    def _forward_and_commit(self) -> None:
        """Phases 2 and 3 as whole-array operations, in the per-message order.

        Forwarding serves each switch's first min(C, occupancy) messages in
        (switch, FIFO) order; random wandering spends one draw per served
        message, deliveries included.  Commit takes the staged messages of
        each destination buffer in id order: a TTL check, then acceptance
        while the rank among surviving arrivals is below the room left after
        forwarding.  A message served at an isolated switch goes back to the
        tail of its own buffer with its hop count unchanged.
        """
        occ, head, wandering = self._occ, self._head, self._next_hop is None

        # phase 2: forwarding
        served = np.minimum(occ, self.config.channels)
        slots, sw = self._fifo(served)
        head += served
        head &= self._mask
        occ -= served
        deliver = self._dsw[slots] == sw
        if wandering:
            pick = (self._draw(served, sw) * self._degree[sw]).astype(np.intp)
            dest = self._neighbors[self._first_neighbor[sw] + pick]
        else:
            # widened to intp, so that the commit's sort keys cannot overflow
            dest = self._next_hop[self._route_row[sw] + self._dsw[slots]].astype(np.intp)
            lost = dest == UNREACHABLE
            if np.count_nonzero(lost):
                np.add.at(self._unreachable, self._lane_of[sw[lost]], 1)
                self._release(slots[lost])
        delivered = np.count_nonzero(deliver)
        if delivered:
            done = slots[deliver]
            self._delivered_rows = self._pool.take(done, axis=1)
            self._log.append((self.step_index, self._delivered_rows))
            self._logged += delivered
            if len(self._log) >= _LOG_ENTRIES or self._logged >= _LOG_MESSAGES:
                self._fold()
            self._release(done)
        if not wandering:
            staged = dest >= 0  # neither LOCAL nor UNREACHABLE
            slots, dest = slots[staged], dest[staged]
        elif delivered:
            staged = ~deliver
            slots, dest, sw = slots[staged], dest[staged], sw[staged]
        if not len(slots):
            return

        # phase 3: commit
        key = self._id[slots]
        hops = self._hops[slots] + 1
        if self._stays:
            stay = dest == sw
            hops -= stay
            # a buffer that takes stayers takes nothing else; keep their FIFO order
            key = np.where(stay, self._iota[: len(slots)], key)
        self._hops[slots] = hops
        alive = hops <= (self._ttl if isinstance(self._ttl, int) else self._ttl[dest])
        dropped = slots[:0]
        if np.count_nonzero(alive) < len(alive):
            dead = ~alive
            dropped = slots[dead]
            np.add.at(self._dropped_ttl, self._lane_of[dest[dead]], 1)
            slots, dest, key = slots[alive], dest[alive], key[alive]
        order = (dest * self._next_msg_id + key).argsort()
        slots, dest = slots[order], dest[order]
        tail = occ[dest] + self._iota[: len(dest)] - dest.searchsorted(dest)
        accept = tail < self.config.buffer_capacity
        if np.count_nonzero(accept) < len(accept):
            full = ~accept
            np.add.at(self._dropped_buffer, self._lane_of[dest[full]], 1)
            dropped = np.concatenate([dropped, slots[full]])
            slots, dest, tail = slots[accept], dest[accept], tail[accept]
        if len(dropped):
            dropped = dropped[self._id[dropped].argsort()]
            self._dropped_rows = np.concatenate([self._dropped_rows, self._pool.take(dropped, axis=1)], axis=1)
            self._release(dropped)
        if len(slots):
            self._enqueue(slots, dest, tail)

    def _enqueue(self, slots: np.ndarray, dest: np.ndarray, tail: np.ndarray) -> None:
        """Put pool columns ``slots`` at FIFO positions ``tail`` of switches
        ``dest`` (past their occupancy), widening the ring if a buffer needs it."""
        top = int(tail.max()) + 1
        if top > self._width:
            self._widen(top)
        self._ring[self._base[dest] + ((self._head[dest] + tail) & self._mask)] = slots
        self._occ += np.bincount(dest, minlength=self._s_count)
        if top > self._peak_floor:
            tops = np.zeros_like(self._peaks)
            np.maximum.at(tops, self._lane_of[dest], tail + 1)
            np.maximum(self._peaks, tops, out=self._peaks)
            self._peak_floor = int(self._peaks.min())


DRAIN_CAP_FACTOR = 50


def run_many(jobs: Sequence[tuple[Topology, SimConfig]]) -> list[SimStats]:
    """``run`` for each (topology, config) job, as lanes of one simulation.

    The configs may differ only in ``seed``.  The lanes step in lockstep, each
    over its own topology; a lane leaves the drain when it is
    empty or at the cap, and each job gets exactly the ``SimStats`` that
    ``run`` gives it alone, ``drain_steps`` and ``drain_capped`` included.
    """
    if not jobs:
        return []
    config = jobs[0][1]
    if any(replace(c, seed=config.seed) != config for _, c in jobs):
        raise ConfigError("run_many jobs may differ only in topology and SimConfig.seed")
    sim = Simulation.lanes([t for t, _ in jobs], config, [c.seed for _, c in jobs])
    for _ in range(config.horizon):
        sim.step(inject=True)
    cap = DRAIN_CAP_FACTOR * config.horizon
    results: list[SimStats | None] = [None] * len(jobs)
    running = list(range(len(jobs)))
    drained = 0
    while True:
        left = sim.lane_in_flight()
        for lane in running:
            if left[lane] == 0 or drained >= cap:
                stats = sim.close_lane(lane)
                results[lane] = replace(stats, drain_steps=drained, drain_capped=left[lane] > 0)
        running = [lane for lane in running if results[lane] is None]
        if not running:
            return results
        sim.step(inject=False)
        drained += 1


def run(topology: Topology, config: SimConfig) -> SimStats:
    """Run ``horizon`` injected steps, then drain in-flight traffic.

    The drain phase repeats steps with injection disabled until no message
    remains buffered (or a cap of 50 * horizon extra steps is hit), so hop and
    latency averages are not biased toward short paths cut off at the end of
    measurement.
    """
    return run_many([(topology, config)])[0]
