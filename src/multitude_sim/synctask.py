"""Gossip frequency averaging over the simulated interconnect.

Every processing node holds an oscillator frequency in [0, 1].  At step 0
each node sends its frequency to a uniformly random other node; the payload
travels through the message engine under random wandering.  Whenever a node
receives a value it averages it into its own frequency and immediately sends
the updated value to a new random node, so exactly one payload message per
node circulates forever.  Within a step, deliveries are applied one at a time
in a seeded random permutation of the nodes, which resolves "simultaneous"
arrivals deterministically; a step's sends then enter the engine as one
batch, in the order they were made.  The per-step standard deviation of the
frequencies is the convergence signal.

A payload message lost to the TTL (or, in pathological configs, to a full
buffer) would silently kill one gossip stream; the sender therefore re-emits
its current frequency at the start of the next step, preserving the
one-message-per-node population.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .simcore import Routing, SimConfig, Simulation
from .topology import ConfigError, Topology, csv_line

__all__ = [
    "SYNC_THRESHOLDS",
    "SYNC_CSV_HEADER",
    "SyncTrace",
    "run_sync_task",
    "trace_csv_rows",
]

SYNC_THRESHOLDS = (0.1, 0.05, 0.01)
SYNC_CSV_HEADER = "family,seed,N,S,alpha,step,stddev"

# entropy tag separating the task's draws from the engine's wandering draws
_TASK_STREAM = 0x5CA1AB1E


@dataclass
class SyncTrace:
    """Standard-deviation trace plus steps-to-threshold summary."""

    family: str
    seed: int
    n_processing: int
    n_switch: int
    alpha: float | None
    stddevs: list[float]
    steps_to_threshold: dict[float, int | None]


def run_sync_task(
    topology: Topology,
    config: SimConfig,
    initial_values: Sequence[float] | None = None,
    on_step: Callable[[int, np.ndarray, Simulation], None] | None = None,
) -> SyncTrace:
    """Run the averaging task for ``config.horizon`` steps and record the std-dev trace.

    ``initial_values`` overrides the seeded uniform initialization (useful
    for fixed-point tests).  ``on_step(step, frequencies, sim)`` is invoked
    after each step for invariant checking; the frequency array is read-only.
    """
    n = topology.n_processing
    s_count = topology.n_switch
    if config.routing is not Routing.RANDOM_WANDERING:
        raise ConfigError("the synchronization task runs under random wandering")

    sim = Simulation(topology, replace(config, injection_rate=0.0))
    task_rng = np.random.default_rng([int(config.seed), _TASK_STREAM])

    if initial_values is None:
        freqs = task_rng.random(n)
    else:
        freqs = np.asarray(initial_values, dtype=float).copy()
        if freqs.shape != (n,):
            raise ConfigError(f"initial_values must hold {n} entries")
        if not np.all((freqs >= 0) & (freqs <= 1)):  # NaN fails both comparisons
            raise ConfigError("initial frequencies must lie in [0, 1]")

    window: list[tuple[int, int, float]] = []  # emits since the last send: (src PN, dst PN, payload)

    def emit(pn_idx: int) -> None:
        pick = int(task_rng.integers(n - 1))
        window.append((pn_idx, pick + 1 if pick >= pn_idx else pick, float(freqs[pn_idx])))

    def send() -> list[int]:
        """Enter the window as one batch in emit order, skipping ``inject``'s checks of endpoints the
        task draws itself; returns the PNs whose payload was lost since the last send."""
        if window:
            src, dst, payload = zip(*window)
            sim._enter(s_count + np.array(src), s_count + np.array(dst), np.array(payload).view(np.int64))
            window.clear()
        # the drop columns list the step's losses and then the batch's entry
        # drops, so each lost payload is replaced exactly once
        return (sim.messages("dropped")["src"] - s_count).tolist()

    for pn in range(n):
        emit(pn)
    pending_reemit = send()  # pn indices whose payload was lost last step

    stddevs = [float(np.std(freqs))]
    view = freqs.view()
    view.setflags(write=False)

    for step in range(1, config.horizon + 1):
        sim.step(inject=False)

        for pn in sorted(pending_reemit):
            emit(pn)

        # receivers in a fresh permutation order, each one's arrivals in id order
        rank = task_rng.permutation(n).argsort()
        got = sim.messages("delivered")
        order = np.lexsort((got["id"], rank[got["dst"] - s_count]))
        for pn, payload in zip((got["dst"][order] - s_count).tolist(), got["payload"][order].tolist()):
            freqs[pn] = (freqs[pn] + payload) / 2.0
            emit(pn)
        pending_reemit = send()

        stddevs.append(float(np.std(freqs)))
        if on_step is not None:
            on_step(step, view, sim)

    thresholds: dict[float, int | None] = {}
    for thr in SYNC_THRESHOLDS:
        hit = next((i for i, sd in enumerate(stddevs) if sd < thr), None)
        thresholds[thr] = hit

    return SyncTrace(
        family=topology.family,
        seed=config.seed,
        n_processing=n,
        n_switch=s_count,
        alpha=topology.alpha,
        stddevs=stddevs,
        steps_to_threshold=thresholds,
    )


def trace_csv_rows(trace: SyncTrace) -> list[str]:
    """Trace rows plus one summary row (`step` column = "summary").

    The summary packs steps-to-threshold as `thr:steps` pairs separated by
    ';' ("-" when the threshold was never reached), keeping the file plain
    7-column CSV.
    """
    prefix = csv_line([trace.family, trace.seed, trace.n_processing, trace.n_switch, trace.alpha])
    rows = [f"{prefix},{step},{sd!r}" for step, sd in enumerate(trace.stddevs)]
    summary = ";".join(
        f"{thr}:{trace.steps_to_threshold[thr] if trace.steps_to_threshold[thr] is not None else '-'}"
        for thr in SYNC_THRESHOLDS
    )
    rows.append(f"{prefix},summary,{summary}")
    return rows
