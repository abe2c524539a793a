"""The CLI's one error boundary: commands raise, ``main`` reports.

Every command, its output writes included, ends an error in one stderr line
and an exit code of ``cli.ERRORS``; none ends in a traceback.
"""

import json

import numpy as np
import pytest

import leakbench.cli as cli
from leakbench.cli import EXIT_CONFIG_ERROR, EXIT_SIMULATION_ERROR, main
from leakbench.protocol import DecayDataset

NOISELESS = {"gateset": "pauli", "m_list": [1, 5, 10], "n_sequences": 5, "seed": 7}


def argv_of(command: str, tmp_path, out) -> list:
    """The argv of ``command`` writing to ``out`` (the fit's output file's directory for fit)."""
    if command == "simulate":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(NOISELESS))
        return ["simulate", "--config", str(config), "--out", str(out)]
    if command == "fit":
        ms = np.arange(10, 101, 10)
        dataset = tmp_path / "decay.csv"
        DecayDataset.from_arrays(ms, 0.97 * 0.985 ** (ms - 1)).to_csv(str(dataset))
        return ["fit", str(dataset), "--model", "single-exp", "--out", str(out / "fit.json")]
    return ["reproduce", "fig1", "--out", str(out)]


@pytest.mark.parametrize("command", ["simulate", "fit", "reproduce"])
def test_dangling_symlink_out_is_a_config_error_before_the_run(tmp_path, monkeypatch, capsys,
                                                               command):
    for name in ("run_experiment", "fit"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the run started"))
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing", target_is_directory=True)
    assert main(argv_of(command, tmp_path, link)) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"config error: cannot create output directory {str(link)!r}: "
        f"{str(link)!r} is not a writable directory\n"
    )
    assert not (tmp_path / "missing").exists()


def fail(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


@pytest.mark.parametrize("command, name, exc", [
    ("check", "run_checks", RuntimeError("a check crashed")),
    ("fit", "fit", RuntimeError("the fit crashed")),
    ("simulate", "_write_run", OSError("disk full")),
    ("reproduce", "_write_run", OSError("disk full")),
])
def test_an_unexpected_error_of_any_command_is_one_simulation_error_line(
    tmp_path, monkeypatch, capsys, command, name, exc
):
    monkeypatch.setattr(cli, name, fail(exc))
    argv = ["check"] if command == "check" else argv_of(command, tmp_path, tmp_path / "out")
    assert main(argv) == EXIT_SIMULATION_ERROR
    assert capsys.readouterr().err == f"simulation error: {exc}\n"
