"""What a run's ``manifest.json`` records beside its outputs and timings.

Both ``simulate`` and ``reproduce`` record the command they parsed and the
environment their bytes rest on: "same seed, same bytes" holds for one
Python, one numpy (NEP 19 lets numpy change its ``Generator`` streams between
versions) and one platform.
``reproduce`` also records the health of its run: the fit's convergence and
the per-length z-scores against the exact mean.
"""

import json
import platform
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import leakbench.cli as cli
from leakbench.cli import EXIT_OK, main

NOISELESS = {"gateset": "pauli", "m_list": [1, 5], "n_sequences": 4, "seed": 7}

ENVIRONMENT = {
    "python": platform.python_version(),
    "numpy": np.__version__,
    "platform": sys.platform,
    "machine": platform.machine(),
}


def _manifest(out) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_simulate_and_reproduce_record_their_environment(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(NOISELESS))
    runs = {
        "sim": ["simulate", "--config", str(config)],
        "rep": ["reproduce", "fig1"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == EXIT_OK
        assert _manifest(tmp_path / name)["environment"] == ENVIRONMENT
    assert "health" not in _manifest(tmp_path / "sim")


def test_simulate_and_reproduce_record_the_command_they_parsed(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(NOISELESS))
    runs = {
        "sim": ["simulate", "--config", str(config), "--shots", "10"],
        "rep": ["reproduce", "fig1", "--seed", "3", "--jobs", "1"],
    }
    for name, argv in runs.items():
        command = [*argv, "--out", str(tmp_path / name)]
        assert main(tuple(command)) == EXIT_OK
        assert _manifest(tmp_path / name)["command"] == command
    # Without arguments, main parses the process's own.
    command = ["simulate", "--config", str(config), "--out", str(tmp_path / "argv")]
    monkeypatch.setattr(sys, "argv", ["leakbench", *command])
    assert main() == EXIT_OK
    assert _manifest(tmp_path / "argv")["command"] == command


def test_the_environment_is_read_once_per_process_without_platform_platform(
    tmp_path, monkeypatch, request
):
    calls = []
    monkeypatch.setattr(platform, "python_version", lambda: calls.append(1) or "3.x")
    monkeypatch.setattr(platform, "platform", lambda *a, **k: pytest.fail("platform.platform()"))
    cli._environment.cache_clear()
    request.addfinalizer(cli._environment.cache_clear)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(NOISELESS))
    for name in ("a", "b"):
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / name)]) == EXIT_OK
        assert _manifest(tmp_path / name)["environment"]["python"] == "3.x"
    assert calls == [1]


@pytest.mark.parametrize("figure, seed", [("fig1", 3), ("fig2", 5)])
def test_reproduce_records_the_fit_and_z_health(tmp_path, capsys, figure, seed):
    out = tmp_path / "rep"
    assert main(["reproduce", figure, "--out", str(out), "--seed", str(seed)]) in (
        EXIT_OK, cli.EXIT_PROPERTY_FAILURE
    )
    fit = json.loads((out / "fit.json").read_text())
    per_length = json.loads((out / "report.json").read_text())["per_length"]
    health = _manifest(out)["health"]
    keys = ("converged", "flags", "chi2_per_dof", "n_iterations")
    assert health["fit"] == {key: fit[key] for key in keys}
    zs = [row["z"] for row in per_length if row["z"] is not None]
    assert len(zs) == len(per_length) == health["z"]["dof"]
    assert health["z"]["max_abs"] == max(abs(z) for z in zs)
    assert health["z"]["sum_sq"] == pytest.approx(sum(z * z for z in zs), rel=1e-12)


def test_a_z_summary_without_a_z_is_empty():
    result = SimpleNamespace(converged=True, flags=[], chi2_per_dof=None, n_iterations=0)
    health = cli._health(result, [{"z": None}, {"z": None}])
    assert health["z"] == {"max_abs": None, "sum_sq": 0.0, "dof": 0}
