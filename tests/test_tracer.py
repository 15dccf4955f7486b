"""The benchmark's span tracer still runs against the program.

``perfbench/spans.py`` swaps the program's public names for timing wrappers,
so renaming or deleting one of them breaks ``perfbench/run.py --trace 1``.
This test loads the tracer and the workloads by path and runs one traced pass
of the small ``TINY`` workload in-process.  Spans recorded in a worker
process are lost, so the test also pins where the builds run.
"""

import importlib.util
import sys
from pathlib import Path

from multitude_sim import Topology, simcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_tiny_pass_counts_work_in_every_layer(monkeypatch):
    spans, workloads = _load(monkeypatch, "spans"), _load(monkeypatch, "workloads")
    step = simcore.Simulation.step
    tracer = spans.Tracer()
    with tracer.installed():
        for call in workloads.TINY.calls(0):
            assert call.problems(call()) == {}
    assert simcore.Simulation.step is step  # the originals are back
    summary = tracer.summary()
    assert summary["simcore.steps"] > 0
    assert summary["synctask.deliveries"] > 0
    # 8 scaling, 1 fabric, 16 robustness and 2 sync builds, as perfbench/selftest.py counts:
    # the robustness builds stay in this process while their lane runs go to workers
    assert summary["topology.build_calls"] == 8 + 1 + 16 + 2
    # the inject wrapper reads it on a path no workload reaches
    assert callable(Topology.attached_switch)
