"""What the package loads on import: the path the benchmark's set-up time measures.

The benchmark's set-up imports ``multitude_sim`` and builds one fabric in a
fresh interpreter.  That loads only the package and its topology module, and
the harness leaves the process-pool modules to the first sweep that sends
work to worker processes.  Each check runs in a fresh interpreter, because
this test process has imported everything already.
"""

import subprocess
import sys


def _loaded(statement: str) -> set[str]:
    code = f"import sys; {statement}; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_package_import_and_build_load_only_topology():
    loaded = _loaded("import multitude_sim as m; m.build(m.TopologyConfig('3DRMStandard', 64, 64, seed=0))")
    assert {name for name in loaded if name.split(".")[0] == "multitude_sim"} == {
        "multitude_sim",
        "multitude_sim.topology",
    }


def test_harness_import_loads_no_process_pool():
    loaded = _loaded("import multitude_sim.harness")
    assert "multitude_sim.harness" in loaded
    assert not loaded & {"concurrent.futures", "multiprocessing"}
