"""Synchronous message-passing engine over a topology.

Each step runs three phases:

1. injection -- every processing node independently creates a message to a
   uniformly random other processing node with probability p_I and enqueues
   it at its attached switch (counting a buffer drop if the FIFO is full);
2. forwarding -- every switch dequeues up to C messages; each is delivered
   if its destination hangs off this switch, otherwise sent toward the next
   hop (shortest-path table or a uniformly random switch neighbor) into a
   staging area;
3. commit -- staged messages enter their destination buffers in message-id
   order, hop counters increment, and messages whose hop count exceeds the
   TTL are dropped.

The stage/commit split means a message crosses at most one switch link per
step and the outcome does not depend on the order switches are visited.
Phases 2 and 3 are one fixed sequence of whole-array operations over
structure-of-arrays message state (see ``Simulation``); only injection goes
message by message, through ``Simulation.inject``.
Everything is driven by one seeded generator consumed in fixed id order, so
a (topology, config) pair always produces identical statistics.  Runs that
differ only in topology and seed can share one simulation as lanes over
the disjoint union of their topologies (``run_many``); each lane keeps its
own generator and gets the statistics it would get alone.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .metrics import _BLOCK, _switch_arcs, _switch_hops
from .topology import ConfigError, Topology

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
        alpha = "" if topology.alpha is None else repr(float(topology.alpha))
        k_s = "" if topology.k_s is None else repr(float(topology.k_s))
        return ",".join(
            [
                topology.family,
                str(config.seed),
                str(topology.n_processing),
                str(topology.n_switch),
                alpha,
                k_s,
                config.routing.value,
                repr(float(config.injection_rate)),
                str(config.channels),
                str(config.buffer_capacity),
                str(config.horizon),
                str(self.delivered),
                str(self.dropped_ttl),
                str(self.dropped_buffer),
                str(self.unreachable_dropped),
                repr(float(self.avg_hops_delivered)),
                repr(float(self.avg_latency)),
                repr(float(self.throughput_per_switch)),
            ]
        )


def compute_routing_tables(topology: Topology) -> np.ndarray:
    """Next-hop table: entry [switch, pn_index] is the neighbor switch id.

    From the switch hop matrix (``metrics`` relaxation kernel) a switch picks
    its lowest-id neighbor one hop closer to the destination PN's switch.
    LOCAL marks the destination's own switch, UNREACHABLE a missing path
    (possible after fault injection).
    """
    pn_switch = topology.pn_switches()
    s_count = topology.n_switch
    hops = _switch_hops(topology)
    # arcs sorted by (head, tail); read swapped, they are grouped by switch
    # with neighbors ascending, so a group minimum is the lowest-id choice
    nbr, sw, _ = _switch_arcs(topology)
    starts = np.flatnonzero(np.diff(sw, prepend=-1))
    table = np.full((s_count, s_count), UNREACHABLE, dtype=np.int32)
    for lo in range(0, s_count, _BLOCK):  # [S, S] by destination switch
        cols = hops[:, lo : lo + _BLOCK]
        closer = np.where(cols[nbr] == cols[sw] - 1, nbr[:, None], s_count)
        best = np.minimum.reduceat(closer, starts, axis=0)
        table[sw[starts], lo : lo + _BLOCK] = np.where(best < s_count, best, UNREACHABLE)
    np.fill_diagonal(table, LOCAL)
    return table[:, pn_switch]


# initial ring width cap; the paper's buffer capacity (M = 100) never widens it
_RING_WIDTH = 128

# message pool rows, one column per buffered message
_ID, _SRC, _DST, _BORN, _HOPS, _DSW, _PAYLOAD = range(7)
# the payload row holds a float's bits (written through a float64 view);
# None is stored as -1, the bits of a NaN that float arithmetic never produces
_NO_PAYLOAD = -1

# the delivery log is folded into the per-lane sums at this many entries or messages
_LOG_ENTRIES = 64
_LOG_MESSAGES = 1024


def _records(rows: np.ndarray) -> list[Message]:
    """Message records from pool columns (``_pool.take(slots, axis=1)``)."""
    ids, srcs, dsts, born, hops, _, bits = rows.tolist()
    values = rows[_PAYLOAD].view(np.float64).tolist()
    payloads = [None if p == _NO_PAYLOAD else v for p, v in zip(bits, values)]
    return list(map(Message, ids, srcs, dsts, born, hops, payloads))


class _SwitchBuffer:
    """A read-only view of one switch's FIFO in a live simulation.

    len() is the switch's occupancy; iteration yields its records in FIFO order.
    """

    __slots__ = ("_sim", "_switch")

    def __init__(self, sim: "Simulation", switch: int):
        self._sim = sim
        self._switch = switch

    def __len__(self) -> int:
        return self._sim._occ.item(self._switch)

    def __iter__(self) -> Iterator[Message]:
        sim = self._sim
        counts = np.where(sim._switches == self._switch, sim._occ, 0)
        return iter(_records(sim._pool.take(sim._fifo(counts)[0], axis=1)))

    def __getitem__(self, index: int) -> Message:
        return list(self)[index]


class Simulation:
    """Mutable simulation state; step() advances one synchronous update.

    A simulation runs one or more independent lanes in lockstep:
    ``Simulation(topology, config)`` has one, ``Simulation.lanes(...)`` one
    per topology.  Lane k's switches follow those of lanes 0..k-1, and its
    processing nodes follow all switches and the PNs of lanes 0..k-1, so
    node ids are those of the disjoint union of the topologies (``topology``
    builds that union when it is first read).  Each lane has its own
    generator, its own TTL (100 * its switch count when unset) and its own
    counters; one step serves every lane with the same array operations,
    and a lane's outcome is exactly that of a simulation of its topology
    alone.  The public counters (``injected``, ``delivered``, ...) are
    totals over the lanes; ``stats(lane)`` gives one lane's statistics.

    Messages are held as structure-of-arrays state.  The int64 pool
    ``_pool`` has one column per buffered message (rows: id, src, dst,
    injected_at, hops, destination switch, payload bits) and a stack of free
    columns (``_free[:_top]``), so it grows with the peak number in flight,
    not with the ids issued.  Switch s's FIFO is row s of the flat
    ``[S, width]`` ring of pool columns: ``_occ[s]`` entries from column
    ``_head[s]``, wrapping at ``width`` (a power of two, doubled when a
    buffer needs more).  ``Message`` records are built from pool
    columns only when they are read: ``delivered_this_step`` keeps a copy of
    the delivered columns and builds its records on first access;
    ``dropped_this_step``, ``buffers`` and ``iter_in_flight()`` build theirs
    when they are filled or read.  Each step's delivered columns also go to
    a log that is folded into the per-lane delivery sums now and then, so a
    step pays no per-lane arithmetic for its deliveries.
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

    @property
    def topology(self) -> Topology:
        """The simulated topology; with several lanes, their disjoint union, built on first use."""
        if self._topology is None:
            self._topology = _disjoint_union(self._lane_topologies)
        return self._topology

    def _setup(self, topologies: list[Topology], config: SimConfig, seeds: list[int]) -> None:
        config.validate()
        self.config = config
        self._lane_topologies = topologies
        self._topology = topologies[0] if len(topologies) == 1 else None
        sizes = [t.n_switch for t in topologies]
        s_count = sum(sizes)
        n_count = sum(t.n_processing for t in topologies)
        self._s_count = s_count
        self._n_nodes = s_count + n_count
        self._switches = np.arange(s_count)
        # lane k's switches come after those of lanes 0..k-1, and so do its PNs after all switches
        self._lane_start = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        starts = self._lane_start.tolist()
        self._lane_bounds = [(lo, lo + n) for lo, n in zip(starts, sizes)]
        self._lane_of = np.repeat(np.arange(len(topologies)), sizes)
        self._switch_lane = self._lane_of.tolist()
        self._pn_switch = [
            sw + lo for t, lo in zip(topologies, starts) for sw in t.pn_switches().tolist()
        ]

        # wandering takes neighbour int(draw * degree) of the switch's tuple;
        # an isolated switch lists itself, so its messages stay put
        nbrs = [
            tuple(nb + lo for nb in t.switch_neighbors(s)) or (s + lo,)
            for t, lo in zip(topologies, starts)
            for s in range(t.n_switch)
        ]
        degree = [len(n) for n in nbrs]
        self._neighbors = np.array([nb for n in nbrs for nb in n], dtype=np.intp)
        self._first_neighbor = np.cumsum([0] + degree[:-1], dtype=np.intp)
        self._degree = np.array(degree, dtype=np.intp)
        self.routing_table = None
        if config.routing is Routing.SHORTEST_PATH:
            self.routing_table = self._lane_routing_tables(topologies, starts)
            # flat next hops, entry _route_row[sw] + dst; intp keeps sort keys from overflowing
            self._next_hop = self.routing_table.astype(np.intp).ravel()
            self._route_row = self._switches * n_count - s_count
        self._stays = self.routing_table is None and any(
            t.switch_degree(s) == 0 for t in topologies for s in range(t.n_switch)
        )

        # per-lane generators, injection sources and TTLs
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._sources = []  # (generator, first PN id, PN count) of lanes that inject
        first_pn = s_count
        for rng, t in zip(self._rngs, topologies):
            if t.n_processing >= 2:
                self._sources.append((rng, first_pn, t.n_processing))
            first_pn += t.n_processing
        ttls = [config.ttl if config.ttl is not None else 100 * n for n in sizes]
        # one TTL for every lane, or a TTL per switch when lane sizes set different ones
        self._ttl = int(ttls[0]) if len(set(ttls)) == 1 else np.repeat(ttls, sizes)

        self._occ = np.zeros(s_count, dtype=np.intp)
        self._head = np.zeros(s_count, dtype=np.intp)
        self._set_width(1 << (min(config.buffer_capacity, _RING_WIDTH) - 1).bit_length())
        # a step serves at most min(C, M) messages per switch
        self._iota = np.arange(s_count * min(config.channels, config.buffer_capacity))
        self._pool = np.zeros((7, 0), dtype=np.int64)
        self._free = np.zeros(0, dtype=np.intp)
        self._top = 0
        self._grow_pool(s_count * min(config.buffer_capacity, 16))  # pages are touched as used
        self._in_flight = 0
        # views of the FIFOs; a weak proxy keeps the simulation free of reference cycles
        owner = weakref.proxy(self)
        self.buffers = tuple(_SwitchBuffer(owner, s) for s in range(s_count))
        self.step_index = 0
        self._next_msg_id = 0

        # per-lane counters: injected is bumped per message, the others by array
        n_lanes = len(topologies)
        self._injected = [0] * n_lanes
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
        self._delivered_rows = self._pool[:, :0]
        self._delivered_records: list[Message] | None = []
        self.dropped_this_step: list[Message] = []

    # -- bookkeeping ---------------------------------------------------------

    @property
    def injected(self) -> int:
        return sum(self._injected)

    @property
    def delivered(self) -> int:
        self._fold()
        return int(self._delivered.sum())

    @property
    def dropped_ttl(self) -> int:
        return int(self._dropped_ttl.sum())

    @property
    def dropped_buffer(self) -> int:
        return int(self._dropped_buffer.sum())

    @property
    def unreachable_dropped(self) -> int:
        return int(self._unreachable.sum())

    @property
    def max_buffer_occupancy(self) -> int:
        return int(self._peaks.max())

    @property
    def delivered_this_step(self) -> list[Message]:
        """Records of the messages the last step delivered, in (switch, FIFO) order."""
        if self._delivered_records is None:
            self._delivered_records = _records(self._delivered_rows)
        return self._delivered_records

    def in_flight(self) -> int:
        return self._in_flight

    def lane_in_flight(self) -> list[int]:
        """Buffered messages per lane."""
        return np.add.reduceat(self._occ, self._lane_start).tolist()

    def iter_in_flight(self) -> Iterator[Message]:
        """Records of every buffered message, switch by switch in FIFO order."""
        return iter(_records(self._pool.take(self._fifo(self._occ)[0], axis=1)))

    def conservation_ok(self) -> bool:
        accounted = (
            self.delivered
            + self.dropped_ttl
            + self.dropped_buffer
            + self.unreachable_dropped
            + self.in_flight()
        )
        return accounted == self.injected

    def stats(self, lane: int = 0) -> SimStats:
        """Statistics of one lane (the only one by default)."""
        self._fold()
        lo, hi = self._lane_bounds[lane]
        occ = self._occ[lo:hi]
        delivered = self._delivered.item(lane)
        horizon = self.config.horizon
        return SimStats(
            injected=self._injected[lane],
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

    @staticmethod
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
        n = len(sw)
        rank = self._iota[:n] if n <= len(self._iota) else np.arange(n)
        first = self._head - (counts.cumsum() - counts)  # head less the switch's offset in sw
        return self._ring[self._base[sw] + ((first[sw] + rank) & self._mask)], sw

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
        self._id, _, self._dst, _, self._hops, self._dsw, payload = pool
        self._payload = payload.view(np.float64)
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

    def inject(self, src: int, dst: int, payload: float | None = None) -> Message | None:
        """Create a message at src's switch; returns None if it is dropped on entry.

        Entering the attached switch is the stub traversal, so a freshly
        buffered message already counts 1 hop.  Under shortest-path routing a
        destination with no path is discarded immediately (counted as
        unreachable, not as a buffer drop).  The returned record is the
        message as it entered; later records of it are built afresh.
        """
        s_count = self._s_count
        if not (s_count <= src < self._n_nodes) or not (s_count <= dst < self._n_nodes):
            raise ValueError("src and dst must be processing-node ids")
        if src == dst:
            raise ValueError("a message needs distinct src and dst")
        switch = self._pn_switch[src - s_count]
        target = self._pn_switch[dst - s_count]
        lane = self._switch_lane[switch]
        if self._switch_lane[target] != lane:
            raise ValueError("src and dst must lie in the same lane")
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        self._injected[lane] += 1
        if (
            self.routing_table is not None
            and self.routing_table[switch, dst - s_count] == UNREACHABLE
        ):
            self._unreachable[lane] += 1
            return None
        occ = self._occ.item(switch)
        if occ >= self.config.buffer_capacity:
            self._dropped_buffer[lane] += 1
            self.dropped_this_step.append(Message(msg_id, src, dst, self.step_index, payload=payload))
            return None
        if occ == self._width:
            self._widen(occ + 1)
        if not self._top:
            self._grow_pool(2 * self._pool.shape[1])
        self._top -= 1
        slot = self._free.item(self._top)
        self._pool[:, slot] = (msg_id, src, dst, self.step_index, 1, target, _NO_PAYLOAD)
        if payload is not None:
            self._payload[slot] = payload
        self._ring[switch * self._width + ((self._head.item(switch) + occ) & self._mask)] = slot
        self._occ[switch] = occ + 1
        self._in_flight += 1
        if occ >= self._peaks.item(lane):
            self._peaks[lane] = occ + 1
        return Message(msg_id, src, dst, self.step_index, 1, payload)

    # -- the synchronous update -------------------------------------------------

    def step(self, inject: bool = True) -> None:
        self.step_index += 1
        self._delivered_records = []
        self.dropped_this_step = []

        # phase 1: traffic injection, lane by lane from each lane's generator
        rate = self.config.injection_rate if inject else 0.0
        if rate > 0.0:
            for rng, first_pn, n_count in self._sources:
                coins = rng.random(n_count)
                injectors = np.nonzero(coins < rate)[0]
                if len(injectors):
                    picks = rng.integers(0, n_count - 1, size=len(injectors))
                    for src_idx, pick in zip(injectors.tolist(), picks.tolist()):
                        dst_idx = pick + 1 if pick >= src_idx else pick
                        self.inject(first_pn + src_idx, first_pn + dst_idx)

        if self._in_flight and self.config.channels:
            self._forward_and_commit()

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
        occ, head, wandering = self._occ, self._head, self.routing_table is None

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
            dest = self._next_hop[self._route_row[sw] + self._dst[slots]]
            lost = dest == UNREACHABLE
            if np.count_nonzero(lost):
                np.add.at(self._unreachable, self._lane_of[sw[lost]], 1)
                self._release(slots[lost])
        delivered = np.count_nonzero(deliver)
        if delivered:
            done = slots[deliver]
            self._delivered_rows = self._pool.take(done, axis=1)
            self._delivered_records = None
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
            self.dropped_this_step += _records(self._pool.take(dropped, axis=1))
            self._release(dropped)
        if not len(slots):
            return
        top = int(tail.max()) + 1
        if top > self._width:
            self._widen(top)
        self._ring[self._base[dest] + ((head[dest] + tail) & self._mask)] = slots
        occ += np.bincount(dest, minlength=self._s_count)
        if top > self._peak_floor:
            tops = np.zeros_like(self._peaks)
            np.maximum.at(tops, self._lane_of[dest], tail + 1)
            np.maximum(self._peaks, tops, out=self._peaks)
            self._peak_floor = int(self._peaks.min())


DRAIN_CAP_FACTOR = 50


def _disjoint_union(parts: Sequence[Topology]) -> Topology:
    """One topology holding ``parts`` side by side: their switches in order,
    then their processing nodes in order, each part's ids kept in sequence."""
    if len(parts) == 1:
        return parts[0]
    s_total = sum(t.n_switch for t in parts)
    links: dict[tuple[int, int], float] = {}
    switch_base, pn_base = 0, s_total
    for t in parts:
        shift = np.where(np.arange(t.n_nodes) < t.n_switch, switch_base, pn_base - t.n_switch)
        for (a, b), length in t.link_items():
            links[(a + shift.item(a), b + shift.item(b))] = length
        switch_base += t.n_switch
        pn_base += t.n_processing
    positions = np.concatenate(
        [t.positions[: t.n_switch] for t in parts] + [t.positions[t.n_switch :] for t in parts]
    )
    family = "+".join(dict.fromkeys(t.family for t in parts))
    return Topology(family, parts[0].seed, s_total, pn_base - s_total, positions, links)


def run_many(jobs: Sequence[tuple[Topology, SimConfig]]) -> list[SimStats]:
    """``run`` for each (topology, config) job, as lanes of one simulation.

    The configs may differ only in ``seed``.  The lanes step in lockstep over
    the disjoint union of the topologies; a lane leaves the drain when it is
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
