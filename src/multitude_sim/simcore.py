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
Everything is driven by one seeded generator consumed in fixed id order, so
a (topology, config) pair always produces identical statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
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
    """Aggregate delivery statistics for one run."""

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


class Simulation:
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
    return sim.stats()
