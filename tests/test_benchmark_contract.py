"""The benchmark's output contract, checked in the test suite.

Each workload of ``BENCHMARK.json`` runs once in a ``perfbench/worker.py``
process on the first seed of its pool in ``perfbench/reference.json``, and
every output must match the pinned reference, as ``perfbench/run.py`` checks
it.  This catches a renamed function that the benchmark calls, or a drifted
output, before a benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from leakbench.cli import figure_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    """perfbench's ``run`` module, which imports its ``worker`` module by plain name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run

        yield run
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_reference(bench, workload, tmp_path):
    reference = json.loads(bench.REFERENCE.read_text(encoding="utf-8"))
    seed = min(int(s) for s in reference[workload])
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
           "--inputs", json.dumps([seed]), "--result", str(result)]
    proc = subprocess.run(
        cmd, env=bench.worker_env(), capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    outputs = json.loads(result.read_text(encoding="utf-8"))["outputs"]
    attempted, failed = bench.check_outputs(workload, [seed], outputs, reference)
    assert attempted > 0 and failed == 0, outputs


def test_perfbench_scenarios_are_the_bundled_configs(bench):
    # perfbench/worker.py keeps its own copy of each bundled scenario's gate set
    # and noise spec; it must stay the packaged config's.
    import worker

    for figure, gateset, noise in worker.FIGURES.values():
        cfg = figure_config(figure)
        assert (gateset, noise) == (cfg.gateset, cfg.noise), figure
    assert sorted(figure for figure, _, _ in worker.FIGURES.values()) == ["fig1", "fig2"]
