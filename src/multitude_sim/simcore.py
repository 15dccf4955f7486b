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
a (topology, config) pair always produces identical statistics.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

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
        return iter(sim._records(sim._fifo(counts)[0]))

    def __getitem__(self, index: int) -> Message:
        return list(self)[index]


class Simulation:
    """Mutable simulation state; step() advances one synchronous update.

    Messages are held as structure-of-arrays state.  The pool ``_pool`` has
    one int64 column per buffered message (rows: id, dst, injected_at, hops,
    destination switch) and a stack of free columns, so it grows with the
    peak number in flight, not with the ids issued.  Switch s's FIFO is row
    s of the flat ``[S, width]`` ring of pool columns: ``_occ[s]`` entries
    from column ``_head[s]``, wrapping at ``width`` (a power of two).  Each
    column also keeps the ``Message`` record ``inject`` returned; the step
    never touches it, and its ``hops_taken`` is brought up to date when the
    record is handed out in ``delivered_this_step``, ``dropped_this_step``,
    ``buffers`` or ``iter_in_flight()``.
    """

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
        n_count = topology.n_processing
        self._s_count = s_count
        self._n_count = n_count
        self._pn_switch = topology.pn_switches().tolist()
        self._switches = np.arange(s_count)
        if self.routing_table is not None:
            # flat next hops, entry _route_row[sw] + dst; intp keeps sort keys from overflowing
            self._next_hop = self.routing_table.astype(np.intp).ravel()
            self._route_row = self._switches * n_count - s_count
        # wandering takes neighbour int(draw * degree) of the switch's tuple;
        # an isolated switch lists itself, so its messages stay put
        nbrs = [topology.switch_neighbors(s) or (s,) for s in range(s_count)]
        degree = [len(n) for n in nbrs]
        self._neighbors = np.array([nb for n in nbrs for nb in n], dtype=np.intp)
        self._first_neighbor = np.cumsum([0] + degree[:-1], dtype=np.intp)
        self._degree = np.array(degree, dtype=np.intp)
        self._stays = self.routing_table is None and any(
            topology.switch_degree(s) == 0 for s in range(s_count)
        )

        self._occ = np.zeros(s_count, dtype=np.intp)
        self._head = np.zeros(s_count, dtype=np.intp)
        self._set_width(1 << (min(config.buffer_capacity, _RING_WIDTH) - 1).bit_length())
        self._pool = np.zeros((5, max(s_count, 16)), dtype=np.int64)
        self._id, self._dst, self._born, self._hops, self._dsw = self._pool
        self._messages: list[Message | None] = [None] * self._pool.shape[1]
        self._free = list(range(self._pool.shape[1] - 1, -1, -1))
        self._in_flight = 0
        # views of the FIFOs; a weak proxy keeps the simulation free of reference cycles
        owner = weakref.proxy(self)
        self.buffers = tuple(_SwitchBuffer(owner, s) for s in range(s_count))
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
        return self._in_flight

    def iter_in_flight(self) -> Iterator[Message]:
        """Records of every buffered message, switch by switch in FIFO order."""
        return iter(self._records(self._fifo(self._occ)[0]))

    def conservation_ok(self) -> bool:
        accounted = (
            self.delivered
            + self.dropped_ttl
            + self.dropped_buffer
            + self.unreachable_dropped
            + self.in_flight()
        )
        return accounted == self.injected

    # -- array state ------------------------------------------------------------

    def _set_width(self, width: int) -> None:
        """Allocate an empty ring of ``width`` columns per switch (a power of two)."""
        self._width = width
        self._mask = width - 1
        self._base = self._switches * width
        self._iota = np.arange(len(self._switches) * width)
        self._ring = np.zeros(len(self._switches) * width, dtype=np.intp)

    def _fifo(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pool columns, switches and FIFO positions of each switch's first ``counts[s]``
        messages, in (switch, FIFO) order."""
        sw = self._switches.repeat(counts)
        lane = self._iota[: len(sw)] - (counts.cumsum() - counts)[sw]
        return self._ring[self._base[sw] + ((self._head[sw] + lane) & self._mask)], sw, lane

    def _widen(self, need: int) -> None:
        """Double the ring until a switch holds ``need`` messages; FIFOs restart at column 0."""
        slots, sw, lane = self._fifo(self._occ)
        width = self._width
        while width < need:
            width *= 2
        self._set_width(width)
        self._ring[self._base[sw] + lane] = slots
        self._head[:] = 0

    def _records(self, slots: np.ndarray) -> list[Message]:
        """The records of ``slots``, with hop counts brought up to date."""
        messages = self._messages
        records = [messages[k] for k in slots.tolist()]
        for msg, hops in zip(records, self._hops[slots].tolist()):
            msg.hops_taken = hops
        return records

    def _release(self, slots: np.ndarray) -> list[Message]:
        """Records of messages leaving the network; their pool columns become free."""
        records = self._records(slots)
        self._free += slots.tolist()
        self._in_flight -= len(slots)
        return records

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
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        self.injected += 1
        switch = self._pn_switch[src - s_count]
        if (
            self.routing_table is not None
            and self.routing_table[switch, dst - s_count] == UNREACHABLE
        ):
            self.unreachable_dropped += 1
            return None
        occ = self._occ.item(switch)
        if occ >= self.config.buffer_capacity:
            self.dropped_buffer += 1
            self.dropped_this_step.append(Message(msg_id, src, dst, self.step_index, payload=payload))
            return None
        if occ == self._width:
            self._widen(occ + 1)
        if not self._free:  # double the pool
            size = self._pool.shape[1]
            self._pool = np.concatenate([self._pool, np.zeros_like(self._pool)], axis=1)
            self._id, self._dst, self._born, self._hops, self._dsw = self._pool
            self._messages += [None] * size
            self._free = list(range(2 * size - 1, size - 1, -1))
        slot = self._free.pop()
        msg = Message(msg_id, src, dst, self.step_index, 1, payload)
        self._pool[:, slot] = (msg_id, dst, self.step_index, 1, self._pn_switch[dst - s_count])
        self._messages[slot] = msg
        self._ring[switch * self._width + ((self._head.item(switch) + occ) & self._mask)] = slot
        self._occ[switch] = occ + 1
        self._in_flight += 1
        if occ + 1 > self.max_buffer_occupancy:
            self.max_buffer_occupancy = occ + 1
        return msg

    # -- the synchronous update -------------------------------------------------

    def step(self, inject: bool = True) -> None:
        self.step_index += 1
        self.delivered_this_step = []
        self.dropped_this_step = []
        s_count = self._s_count
        n_count = self._n_count

        # phase 1: traffic injection
        rate = self.config.injection_rate if inject else 0.0
        if rate > 0.0 and n_count >= 2:
            coins = self.rng.random(n_count)
            injectors = np.nonzero(coins < rate)[0]
            if len(injectors):
                picks = self.rng.integers(0, n_count - 1, size=len(injectors))
                for src_idx, pick in zip(injectors.tolist(), picks.tolist()):
                    dst_idx = pick + 1 if pick >= src_idx else pick
                    self.inject(s_count + src_idx, s_count + dst_idx)

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
        slots, sw, _ = self._fifo(served)
        head += served
        head &= self._mask
        occ -= served
        deliver = self._dsw[slots] == sw
        if wandering:
            pick = (self.rng.random(len(slots)) * self._degree[sw]).astype(np.intp)
            dest = self._neighbors[self._first_neighbor[sw] + pick]
        else:
            dest = self._next_hop[self._route_row[sw] + self._dst[slots]]
            lost = slots[dest == UNREACHABLE]
            if len(lost):
                self.unreachable_dropped += len(lost)
                self._release(lost)
        if np.count_nonzero(deliver):
            done = slots[deliver]
            count = len(done)
            self.delivered += count
            self._hops_sum += int(self._hops[done].sum())
            self._latency_sum += count * (self.step_index + 1) - int(self._born[done].sum())
            self.delivered_this_step = self._release(done)
        if not wandering:
            staged = dest >= 0  # neither LOCAL nor UNREACHABLE
            slots, dest = slots[staged], dest[staged]
        elif self.delivered_this_step:
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
        alive = hops <= self.ttl
        dropped = slots[:0]
        if np.count_nonzero(alive) < len(alive):
            dropped = slots[~alive]
            self.dropped_ttl += len(dropped)
            slots, dest, key = slots[alive], dest[alive], key[alive]
        order = (dest * self._next_msg_id + key).argsort()
        slots, dest = slots[order], dest[order]
        tail = occ[dest] + self._iota[: len(dest)] - dest.searchsorted(dest)
        accept = tail < self.config.buffer_capacity
        if np.count_nonzero(accept) < len(accept):
            full = slots[~accept]
            self.dropped_buffer += len(full)
            dropped = np.concatenate([dropped, full])
            slots, dest, tail = slots[accept], dest[accept], tail[accept]
        if len(dropped):
            self.dropped_this_step += self._release(dropped[self._id[dropped].argsort()])
        if not len(slots):
            return
        top = int(tail.max()) + 1
        if top > self._width:
            self._widen(top)
        self._ring[self._base[dest] + ((head[dest] + tail) & self._mask)] = slots
        occ += np.bincount(dest, minlength=self._s_count)
        if top > self.max_buffer_occupancy:
            self.max_buffer_occupancy = top

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


DRAIN_CAP_FACTOR = 50


def run(topology: Topology, config: SimConfig) -> SimStats:
    """Run ``horizon`` injected steps, then drain in-flight traffic.

    The drain phase repeats steps with injection disabled until no message
    remains buffered (or a cap of 50 * horizon extra steps is hit), so hop and
    latency averages are not biased toward short paths cut off at the end of
    measurement.
    """
    sim = Simulation(topology, config)
    for _ in range(config.horizon):
        sim.step(inject=True)
    drained = 0
    cap = DRAIN_CAP_FACTOR * config.horizon
    while sim.in_flight() > 0 and drained < cap:
        sim.step(inject=False)
        drained += 1
    return replace(sim.stats(), drain_steps=drained, drain_capped=sim.in_flight() > 0)
