"""Outside-in span tracer: times the program's layers from the benchmark.

``Tracer.installed()`` swaps the public functions that callers resolve at
call time (module attributes and ``Simulation`` methods) for wrappers, and
puts the originals back on exit.  Each wrapped call records one span (name,
parent span, start, end) in memory; ``summary()`` turns the spans into
per-layer self times and exact work counters.  A layer's self time is the
summed duration of its spans minus the duration of their child spans.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from multitude_sim import harness, metrics, simcore, synctask, topology

ROOT_SPAN = "bench"
COUNT_SPAN = "bench.count"

# (owner, attribute, span name): every name the workloads' calls resolve
_TARGETS = [
    (harness, "run_experiment", "harness"),
    (harness, "build", "topology.build"),
    (topology, "build", "topology.build"),
    (harness, "remove_random_links", "topology.remove_links"),
    (metrics, "pn_hop_matrix", "metrics.pn_hop_matrix"),
    (metrics, "pn_distance_matrix", "metrics.pn_distance_matrix"),
    (metrics, "average_hops", "metrics.other"),
    (metrics, "average_path_length", "metrics.other"),
    (metrics, "clustering_coefficient", "metrics.other"),
    (metrics, "degree_histogram", "metrics.other"),
    (metrics, "compute_metrics", "metrics.other"),
    (simcore, "compute_routing_tables", "simcore.routing_tables"),
    (synctask, "run_sync_task", "synctask"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._injected_at: list[int] | None = None  # per-switch entries during one step

    # -- span recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0)
        self._stack.append(sid)
        self.starts.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = perf_counter_ns()
        self._stack.pop()

    def _caller(self) -> str | None:
        parent = self._stack[-1]
        return self.names[parent] if parent >= 0 else None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    # -- wrappers that also count work ----------------------------------------

    def _wrap_run(self, fn):
        def traced(topology, config):
            sid = self._open("simcore.run")
            try:
                stats = fn(topology, config)
            finally:
                self._close(sid)
            self.counts["simcore.drain_capped_runs"] += stats.in_flight_at_end > 0
            return stats

        return traced

    def _wrap_step(self, fn):
        # the counting runs in COUNT_SPAN spans, so it is not charged to the
        # caller's self time (simcore.run or synctask)
        def traced(sim, inject=True):
            caller = self._caller()
            cid = self._open(COUNT_SPAN)
            queued = [len(buf) for buf in sim.buffers]
            self._injected_at = [0] * len(queued) if inject else None
            self._close(cid)
            sid = self._open("simcore.step")
            try:
                fn(sim, inject)
            finally:
                self._close(sid)
            cid = self._open(COUNT_SPAN)
            if self._injected_at is not None:
                queued = [q + i for q, i in zip(queued, self._injected_at)]
                self._injected_at = None
            channels = sim.config.channels
            delivered = sim.delivered_this_step
            c = self.counts
            c["simcore.steps"] += 1
            c["simcore.drain_steps"] += caller == "simcore.run" and not inject
            c["simcore.msgs_served"] += sum(min(channels, q) for q in queued)
            c["simcore.switch_steps"] += len(queued)
            c["simcore.msg_hops_delivered"] += sum(m.hops_taken for m in delivered)
            if caller == "synctask":
                c["synctask.deliveries"] += len(delivered)
            self._close(cid)

        return traced

    def _wrap_inject(self, fn):
        # no span: inject is part of a step, or of the sync task's own work
        def counted(sim, src, dst, payload=None):
            msg = fn(sim, src, dst, payload)
            if msg is not None and self._injected_at is not None:
                self._injected_at[sim.topology.attached_switch(src)] += 1
            return msg

        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        sim_cls = simcore.Simulation
        patches = [
            (owner, attr, self.wrap(name, getattr(owner, attr))) for owner, attr, name in _TARGETS
        ]
        patches += [(mod, "run", self._wrap_run(getattr(mod, "run"))) for mod in (harness, simcore)]
        patches += [
            (sim_cls, "step", self._wrap_step(sim_cls.step)),
            (sim_cls, "inject", self._wrap_inject(sim_cls.inject)),
        ]
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- reduction ------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer self times (s) and work counters for everything recorded."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[sid]
        self_ns: Counter[str] = Counter()
        for sid, name in enumerate(self.names):
            self_ns[name] += dur[sid] - child[sid]
        out = {metric: self_ns[name] / 1e9 for name, metric in SELF_TIMES.items()}
        c = self.counts
        steps = c["simcore.steps"]
        return {
            **out,
            "simcore.step_us": out["simcore.step_s"] / steps * 1e6 if steps else 0.0,
            "topology.build_calls": self.names.count("topology.build"),
            "simcore.steps": steps,
            "simcore.drain_steps": c["simcore.drain_steps"],
            "simcore.drain_capped_runs": c["simcore.drain_capped_runs"],
            "simcore.msg_hops_delivered": c["simcore.msg_hops_delivered"],
            "synctask.deliveries": c["synctask.deliveries"],
            "simcore.served_per_switch_step": (
                c["simcore.msgs_served"] / c["simcore.switch_steps"] if steps else 0.0
            ),
        }

    def write(self, path: Path) -> None:
        """Spans as JSON: a name table and [name index, parent, start ns, end ns] rows."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [
            [index[n], p, s, e] for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        path.write_text(json.dumps({"names": table, "spans": rows}, separators=(",", ":")))


# span name -> the metric reporting its self time; ``bench`` is the
# benchmark's own code between calls into the program, ``bench.count`` the
# tracer's work counting around each step
SELF_TIMES = {
    "harness": "harness.self_s",
    "topology.build": "topology.build_s",
    "topology.remove_links": "topology.remove_links_s",
    "metrics.pn_hop_matrix": "metrics.pn_hop_matrix_s",
    "metrics.pn_distance_matrix": "metrics.pn_distance_matrix_s",
    "metrics.other": "metrics.other_s",
    "simcore.routing_tables": "simcore.routing_tables_s",
    "simcore.run": "simcore.run_self_s",
    "simcore.step": "simcore.step_s",
    "synctask": "synctask.self_s",
    ROOT_SPAN: "bench.self_s",
    COUNT_SPAN: "bench.count_s",
}
