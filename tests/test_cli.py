import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from helpers import run_python
from reference import (
    decay_eigenvalues,
    filter_diagnostics,
    incoherent_survival,
    numeric_rank,
    transfer_block,
)

import leakbench as lb
import leakbench.cli as cli
import leakbench.noise as noise
from leakbench.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_FIT_ERROR,
    EXIT_OK,
    EXIT_SIMULATION_ERROR,
    FIGURES,
    _gate_independent_assignment,
    build_parser,
    check_filter_diagnostics,
    check_sequence_average_closed_form,
    check_shelving_unitary,
    check_twirl_closed_form,
    check_twirl_idempotent,
    figure_config,
    main,
    reproduce_figure,
    run_checks,
)
from leakbench.gatesets import GateSet, PAULI_X, PAULIS, average_noise
from leakbench.liouville import SpaceSpec, matrix_to_pairs
from leakbench.noise import RandomStream, ShelvingNoiseSampler
from leakbench.protocol import (
    DecayDataset,
    ExperimentConfig,
    _experiment_components,
    brute_force_expectation,
    exact_expectations,
    predicted_expectation,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SCENARIOS = resources.files("leakbench") / "scenarios"


def write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


NOISELESS = {
    "gateset": "pauli",
    "noise": None,
    "m_list": [1, 5, 10],
    "n_sequences": 5,
    "shots": None,
    "seed": 7,
    "spam": None,
}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_noiseless(tmp_path, capsys):
    cfg_path = write_config(tmp_path, NOISELESS)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    ds = DecayDataset.from_csv(str(out / "decay.csv"))
    assert np.allclose(ds.means, 1.0)
    rows = json.loads((out / "decay.json").read_text())["dataset"]
    assert all(sorted(r) == ["m", "mean", "n", "sem"] for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert any(p.endswith("decay.csv") for p in manifest["outputs"])


def test_simulate_deterministic_output(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {**NOISELESS, "noise": {"id": "filter", "params": {}}, "seed": 13},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "decay.csv").read_bytes() == (out2 / "decay.csv").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = write_config(
        tmp_path, {**NOISELESS, "noise": {"id": "filter", "params": {}}}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", cfg_path, "--out", str(out1)])
    main(["simulate", "--config", cfg_path, "--out", str(out2), "--seed", "99"])
    assert (out1 / "decay.csv").read_bytes() != (out2 / "decay.csv").read_bytes()


def test_simulate_fig1_config_shape(tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(SCENARIOS / "fig1.json"), "--out", str(out)])
    assert code == EXIT_OK
    ds = DecayDataset.from_csv(str(out / "decay.csv"))
    assert list(ds.ms.astype(int)) == list(range(10, 101, 10))
    assert all(n == 30 for n in ds.counts)


def test_simulate_bad_config(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["simulate", "--config", missing, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR
    bad = write_config(tmp_path, {"gateset": "pauli"})
    assert main(["simulate", "--config", bad, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR


def test_simulate_unknown_gateset_is_simulation_error(tmp_path):
    cfg_path = write_config(tmp_path, {**NOISELESS, "gateset": "clifford"})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_SIMULATION_ERROR


def test_simulate_non_integral_length_and_negative_seed_are_config_errors(tmp_path, capsys):
    out = str(tmp_path / "out")
    fractional = write_config(tmp_path, {**NOISELESS, "m_list": [1.7]})
    assert main(["simulate", "--config", fractional, "--out", out]) == EXIT_CONFIG_ERROR
    assert "m_list" in capsys.readouterr().err
    cfg_path = write_config(tmp_path, NOISELESS)
    code = main(["simulate", "--config", cfg_path, "--out", out, "--seed", "-1"])
    assert code == EXIT_CONFIG_ERROR
    assert "seed" in capsys.readouterr().err
    negative = write_config(tmp_path, {**NOISELESS, "seed": -4})
    assert main(["simulate", "--config", negative, "--out", out]) == EXIT_CONFIG_ERROR
    assert "seed" in capsys.readouterr().err


def test_simulate_non_string_gateset_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**NOISELESS, "gateset": 5})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and "gateset" in err
    assert not out.exists()


def test_simulate_repeated_length_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**NOISELESS, "m_list": [10, 20, 20, 30]})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and "m_list" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, key",
    [
        ({"n_sequence": 3}, "n_sequence"),
        ({"noise": {"id": "shelving", "params": {"sigma": 0.5}}}, "sigma"),
        ({"noise": {"id": "filter", "params": {"seeds": 4}}}, "seeds"),
        ({"noise": {"id": "none", "params": {"seed": 4}}}, "seed"),
        ({"noise": {"id": "filter", "parameters": {}}}, "parameters"),
        ({"noise": {"id": "thermal"}}, "thermal"),
        ({"spam": {"rh0": [[1, 0]]}}, "rh0"),
    ],
)
def test_simulate_unknown_config_key_is_config_error(tmp_path, capsys, change, key):
    cfg_path = write_config(tmp_path, {**NOISELESS, **change})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: bad ")
    assert f"{key}: unknown key" in err or f"got {json.dumps(key)}" in err
    assert not out.exists()


SHELVING = {**NOISELESS, "gateset": "shelving"}
FILTER_GATE = {"p": 0.01, "r": [0, 0, 1]}


@pytest.mark.parametrize(
    "base, params, key",
    [
        (SHELVING, {"sigma_gamma": float("nan")}, "noise.params.sigma_gamma"),
        (SHELVING, {"phi": float("inf")}, "noise.params.phi"),
        (SHELVING, {"sigma_gamma": -1}, "noise.params.sigma_gamma"),
        (SHELVING, {"seed": -4}, "noise.params.seed"),
        (NOISELESS, {"gates": [{"p": 0.01, "r": [float("nan"), 0, 0]}] * 4}, "gates[0].r"),
        (NOISELESS, {"gates": [FILTER_GATE] * 3 + [{"p": 1.5, "r": [1, 0, 0]}]}, "gates[3].p"),
        (NOISELESS, {"gates": [FILTER_GATE, {"p": 0.01}] * 2}, "gates[1].r"),
        (NOISELESS, {"gates": [FILTER_GATE] * 3}, "noise.params.gates"),
        (SHELVING, {"sigma_gamma": 1e308}, "noise.params.sigma_gamma"),
    ],
)
def test_simulate_bad_noise_value_is_config_error(tmp_path, capsys, base, params, key):
    noise = {"id": "shelving" if base is SHELVING else "filter", "params": params}
    cfg_path = write_config(tmp_path, {**base, "noise": noise})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


def test_simulate_refuses_overflowing_angles_before_any_warning(tmp_path):
    # numpy's normals stay below 13.71 in magnitude: every angle of sigma_gamma = 1e307
    # is finite, and some of 1e308's overflow.
    stderr = {}
    for sigma_gamma, code in ((1e308, EXIT_CONFIG_ERROR), (1e307, EXIT_OK)):
        noise = {"id": "shelving", "params": {"sigma_gamma": sigma_gamma}}
        cfg_path = write_config(tmp_path, {**SHELVING, "noise": noise})
        out = tmp_path / f"out-{sigma_gamma:g}"
        result = run_python("-m", "leakbench", "simulate", "--config", cfg_path, "--out", str(out))
        assert result.returncode == code, result.stderr
        stderr[sigma_gamma] = result.stderr
    assert stderr[1e308].startswith("config error: bad noise.params.sigma_gamma: ")
    assert stderr[1e308].count("\n") == 1 and "Warning" not in stderr[1e308]
    assert stderr[1e307] == ""


@pytest.mark.parametrize(
    "change, key",
    [
        ({"seed": True}, "seed"),
        ({"n_sequences": True}, "n_sequences"),
        ({"shots": True}, "shots"),
        ({"m_list": "123"}, "m_list"),
        ({"m_list": 10}, "m_list"),
        ({"spam": {"rho": matrix_to_pairs(np.eye(2))}}, "spam.rho"),
        ({"spam": {"rho": matrix_to_pairs(np.diag([1.05, -0.05]))}}, "spam.rho"),
        ({"spam": {"effect": matrix_to_pairs(np.diag([1.2, 0.0]))}}, "spam.effect"),
        ({"gateset": "no-such-gateset.json"}, "gateset"),
        ({"gateset": "not-json.json"}, "gateset"),
        ({"gateset": "no-gates.json"}, "gateset"),
        ({"gateset": "non-unitary.json"}, "gateset"),
    ],
    ids=[
        "bool-seed",
        "bool-n-sequences",
        "bool-shots",
        "string-m-list",
        "number-m-list",
        "rho-trace-2",
        "rho-negative",
        "effect-above-identity",
        "missing-gateset-file",
        "gateset-file-not-json",
        "gateset-file-without-gates",
        "gateset-file-non-unitary-gate",
    ],
)
def test_simulate_malformed_input_is_config_error(tmp_path, monkeypatch, capsys, change, key):
    monkeypatch.chdir(tmp_path)
    for name, text in MALFORMED_GATESET_FILES.items():
        (tmp_path / name).write_text(text)
    cfg_path = write_config(tmp_path, {**NOISELESS, **change})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not out.exists()


#: Gate-set files that exist but hold no valid gate set, by name.
MALFORMED_GATESET_FILES = {
    "not-json.json": "{not json",
    "no-gates.json": json.dumps({"d1": 2}),
    "non-unitary.json": json.dumps({"d1": 2, "gates": [matrix_to_pairs(2 * np.eye(2))]}),
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"m_list": [1, 10**30]}, "bad m_list[1]: expected an integer in [1, 9223372036854775807]"),
        ({"n_sequences": 10**30}, "bad n_sequences: expected an integer in [1, 9223372036854775807]"),
        ({"shots": 10**30}, "bad shots: expected an integer in [1, 9223372036854775807]"),
        ({"spam": {"rho": "x"}}, 'bad spam.rho: expected a list of [re, im] number pairs, got "x"'),
        (
            {"spam": {"prep": {"d1": 2, "kraus": [[[1, 0, 0]] * 4]}}},
            "bad spam.prep.kraus[0]: expected a list of [re, im] number pairs",
        ),
    ],
    ids=["huge-length", "huge-n-sequences", "huge-shots", "rho-string", "prep-triples"],
)
def test_simulate_config_error_says_what_was_expected(tmp_path, capsys, change, message):
    cfg_path = write_config(tmp_path, {**NOISELESS, **change})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


def test_simulate_spam_on_the_wrong_space_is_config_error(tmp_path, capsys):
    from leakbench.liouville import channel_to_dict

    qutrit_identity = channel_to_dict(lb.Channel(SpaceSpec(2, 1), [np.eye(3)]))
    out = tmp_path / "out"
    for spam, key in (
        ({"prep": qutrit_identity}, "spam.prep"),
        ({"meas": qutrit_identity}, "spam.meas"),
        ({"rho": [[1, 0], [0, 0], [0, 0]]}, "spam.rho"),
        ({"effect": [[1, 0]] * 9}, "spam.effect"),
    ):
        cfg_path = write_config(tmp_path, {**NOISELESS, "spam": spam})
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not out.exists()


def test_bundled_configs_load():
    for path in sorted(CONFIGS.glob("*.json")):
        ExperimentConfig.from_json_file(str(path))
    for figure in FIGURES:
        packaged = ExperimentConfig.from_json_file(str(SCENARIOS / f"{figure}.json"))
        assert packaged == figure_config(figure)
        assert figure_config(figure, seed=5) == ExperimentConfig.from_dict(
            {**packaged.to_dict(), "seed": 5}
        )


def test_scenario_files_resolve_as_package_resources():
    files = resources.files("leakbench") / "scenarios"
    names = sorted(p.name for p in files.iterdir() if p.name.endswith(".json"))
    assert names == ["fig1.json", "fig2.json"]
    for name in names:
        doc = json.loads((files / name).read_text(encoding="utf-8"))
        assert ExperimentConfig.from_dict(doc).to_dict() == doc


def _subcommand(name: str) -> argparse.ArgumentParser:
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices[name]


def test_reproduce_choices_are_the_packaged_scenarios():
    (figure,) = [a for a in _subcommand("reproduce")._actions if a.dest == "figure"]
    packaged = [p.name[: -len(".json")] for p in SCENARIOS.iterdir() if p.name.endswith(".json")]
    assert sorted(figure.choices) == sorted(packaged) == sorted(FIGURES)


def test_reproduce_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["reproduce", "fig1", "--out", str(out), "--seed", "-1"]) == EXIT_CONFIG_ERROR
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_reproduce_fit_nonconvergence_is_a_fit_error(tmp_path, monkeypatch, capsys):
    import leakbench.fitting as fitting

    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
    out = tmp_path / "rep"
    assert main(["reproduce", "fig1", "--out", str(out)]) == EXIT_FIT_ERROR
    assert capsys.readouterr().err.startswith("fit error: single-exp fit did not converge")
    assert not out.exists()


def test_reproduce_reads_its_scenario_once(tmp_path, monkeypatch, capsys):
    from leakbench import cli

    reads = []
    monkeypatch.setattr(
        cli, "figure_config", lambda *a, **k: reads.append(a) or figure_config(*a, **k)
    )
    assert main(["reproduce", "fig1", "--out", str(tmp_path / "rep"), "--seed", "3"]) in (0, 1)
    assert reads == [("fig1", 3)]
    manifest = json.loads((tmp_path / "rep" / "manifest.json").read_text())
    assert manifest["config"] == figure_config("fig1", 3).to_dict()


def test_bundled_configs_match_figure_definitions(tmp_path, capsys):
    # simulate on a packaged scenario file is reproduce at its default seed.
    for figure in ("fig1", "fig2"):
        sim, rep = tmp_path / f"sim-{figure}", tmp_path / f"rep-{figure}"
        config = str(SCENARIOS / f"{figure}.json")
        assert main(["simulate", "--config", config, "--out", str(sim)]) == EXIT_OK
        assert main(["reproduce", figure, "--out", str(rep)]) == EXIT_OK
        assert (sim / "decay.csv").read_bytes() == (rep / "decay.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "reproduce"])
@pytest.mark.parametrize("jobs", ["0", "-3", "1.5", "two"])
def test_jobs_must_be_a_positive_integer(tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    args = ["--config", write_config(tmp_path, NOISELESS)] if command == "simulate" else ["fig1"]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--out", str(out), "--jobs", jobs])
    assert exc.value.code == EXIT_CONFIG_ERROR
    assert f"argument --jobs: must be a positive integer, got '{jobs}'" in capsys.readouterr().err
    assert not out.exists()
    assert main([command, *args, "--out", str(out), "--jobs", "1"]) == EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_command_recovers_synthetic(tmp_path, capsys):
    ms = np.arange(10, 101, 10)
    ys = 0.97 * 0.985 ** (ms - 1)
    ds = DecayDataset.from_arrays(ms, ys)
    csv_path = tmp_path / "decay.csv"
    ds.to_csv(str(csv_path))
    assert main(["fit", str(csv_path), "--model", "single-exp"]) == EXIT_OK
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert abs(doc["params"]["decay"] - 0.985) < 1e-8
    assert abs(doc["params"]["amplitude"] - 0.97) < 1e-8
    assert doc["converged"]
    summary = capsys.readouterr().out
    assert "single-exp" in summary and "decay" in summary


def test_fit_command_custom_out_and_unweighted(tmp_path):
    ms = np.arange(10, 101, 10)
    ys = 0.5 * 0.99 ** (ms - 1) + 0.45
    ds = DecayDataset.from_arrays(ms, ys, np.full_like(ys, 0.001))
    json_path = tmp_path / "decay.json"
    ds.to_json(str(json_path))
    out = tmp_path / "result.json"
    code = main(
        ["fit", str(json_path), "--model", "tp-constrained", "--out", str(out), "--unweighted"]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert not doc["weighted"]
    assert abs(doc["params"]["decay"] - 0.99) < 1e-6


def test_fit_command_insufficient_data(tmp_path):
    ds = DecayDataset.from_arrays([10, 20], [0.9, 0.8])
    csv_path = tmp_path / "decay.csv"
    ds.to_csv(str(csv_path))
    assert main(["fit", str(csv_path), "--model", "single-exp"]) == EXIT_CONFIG_ERROR


def _write_points(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, ["m", "mean", "sem", "n"])
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize(
    "row, field, value, message",
    [
        (1, "mean", "nan", "means must lie in [0, 1], got nan at m = 20"),
        (2, "sem", "-0.01", "sems must be finite and >= 0, got -0.01 at m = 30"),
        (3, "sem", "nan", "sems must be finite and >= 0, got nan at m = 40"),
        (5, "sem", "inf", "sems must be finite and >= 0, got inf at m = 60"),
        (4, "m", "-5", "lengths must be >= 1, got -5.0 at m = -5"),
        (0, "m", "0", "lengths must be >= 1, got 0.0 at m = 0"),
    ],
)
def test_fit_command_rejects_malformed_points(tmp_path, capsys, row, field, value, message):
    rows = [
        {"m": m, "mean": repr(0.97 * 0.985 ** (m - 1)), "sem": "0.001", "n": 30}
        for m in range(10, 101, 10)
    ]
    rows[row][field] = value
    csv_path = tmp_path / "decay.csv"
    _write_points(csv_path, rows)
    assert main(["fit", str(csv_path), "--model", "single-exp"]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read dataset: bad dataset[{row}].{field}: expected ")
    assert err.rstrip("\n").rsplit(", got ", 1)[1] in (value, json.dumps(value))  # nan is text
    assert not (tmp_path / "fit.json").exists()
    unweighted = ["fit", str(csv_path), "--model", "single-exp", "--unweighted"]
    assert main(unweighted) == EXIT_CONFIG_ERROR
    # A library caller reaches fit without the file's reading: fit refuses the point itself.
    rows[row][field] = float(value)
    columns = [[float(r[key]) for r in rows] for key in ("m", "mean", "sem")]
    with pytest.raises(ValueError) as info:
        lb.fit("single-exp", DecayDataset.from_arrays(*columns))
    assert str(info.value) == message


def test_fit_command_writes_a_double_exp_fit(tmp_path, capsys):
    ms = np.arange(10, 101, 10)
    ys = 0.6 * 0.99 ** (ms - 1) + 0.3 * 0.95 ** (ms - 1)
    csv_path = tmp_path / "decay.csv"
    DecayDataset.from_arrays(ms, ys, np.full(ms.size, 0.001)).to_csv(str(csv_path))
    assert main(["fit", str(csv_path), "--model", "double-exp"]) == EXIT_OK
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["converged"] is True and doc["degenerate"] is False
    assert abs(doc["params"]["decay_minus"] - 0.95) < 1e-6
    assert capsys.readouterr().out.startswith("double-exp: amp_plus = 0.600000")


def test_fit_command_nonconvergence_exit_code(tmp_path, monkeypatch):
    import leakbench.fitting as fitting

    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(3)
    ms = np.arange(10, 101, 10)
    ys = np.clip(0.5 * 0.992 ** (ms - 1) + 0.47 + rng.normal(0, 0.003, size=ms.size), 0, 1)
    ds = DecayDataset.from_arrays(ms, ys, np.full_like(ys, 0.003))
    csv_path = tmp_path / "decay.csv"
    ds.to_csv(str(csv_path))
    code = main(["fit", str(csv_path), "--model", "tp-constrained"])
    assert code == 4
    doc = json.loads((tmp_path / "fit.json").read_text())
    assert doc["converged"] is False and "params" in doc


@pytest.mark.parametrize("command", ["simulate", "fit", "reproduce"])
def test_uncreatable_out_is_a_config_error_before_the_run(tmp_path, monkeypatch, capsys, command):
    from leakbench import cli

    for name in ("run_experiment", "fit", "reproduce_figure"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the run started"))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    csv_path = tmp_path / "decay.csv"
    ms = np.arange(10, 101, 10)
    DecayDataset.from_arrays(ms, 0.97 * 0.985 ** (ms - 1)).to_csv(str(csv_path))
    argv = {
        "simulate": ["simulate", "--config", write_config(tmp_path, NOISELESS), "--out", str(out)],
        "fit": ["fit", str(csv_path), "--model", "single-exp", "--out", str(out / "fit.json")],
        "reproduce": ["reproduce", "fig1", "--out", str(out)],
    }[command]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (
        f"config error: cannot create output directory {str(out)!r}: "
        f"{str(blocker)!r} is not a writable directory\n"
    )
    if command == "fit":
        into_dir = ["fit", str(csv_path), "--model", "single-exp", "--out", str(tmp_path)]
        assert main(into_dir) == EXIT_CONFIG_ERROR
        message = f"config error: fit output {str(tmp_path)!r} is a directory\n"
        assert capsys.readouterr().err == message


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_fig1(tmp_path, capsys):
    out = tmp_path / "rep"
    code = main(["reproduce", "fig1", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["pass"]
    assert report["r_squared"] >= 0.99
    assert abs(report["fitted_decay"] - report["oracle_decay"]) <= 3 * report["fitted_stderr"]
    assert (report["oracle_method"], report["oracle_samples"]) == ("closed-form", None)
    for name in ("decay.csv", "decay.json", "fit.json", "manifest.json"):
        assert (out / name).exists()
    assert "PASS" in capsys.readouterr().out


def test_reproduce_fig1_per_length_exact_means(tmp_path):
    out = tmp_path / "rep"
    assert main(["reproduce", "fig1", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    dataset = DecayDataset.from_csv(str(out / "decay.csv"))
    gs, noise, spam, _ = _experiment_components(figure_config("fig1"))
    exact = exact_expectations(dataset.ms.astype(int), gs, noise, spam)
    rows = report["per_length"]
    assert [r["m"] for r in rows] == list(range(10, 101, 10))
    for r, p, e in zip(rows, dataset.points, exact):
        assert (r["m"], r["mean"], r["sem"], r["exact_mean"]) == (p.m, p.mean, p.sem, e)
        assert r["z"] == (p.mean - e) / p.sem
        assert abs(r["z"]) < 4
    decay_rows = json.loads((out / "decay.json").read_text())["dataset"]
    assert decay_rows == [{**r, "n": p.n} for r, p in zip(rows, dataset.points)]
    assert DecayDataset.from_json(str(out / "decay.json")).points == dataset.points


def test_reproduce_fig2_per_length_uses_the_oracle_channel():
    dataset, _, report = reproduce_figure("fig2", oracle_samples=20_000)
    assert (report["oracle_method"], report["oracle_samples"]) == ("monte-carlo", 20_000)
    rows = report["per_length"]
    assert [r["m"] for r in rows] == [p.m for p in dataset.points]
    exact = [r["exact_mean"] for r in rows]
    assert all(1.0 > a > b > 0.5 for a, b in zip(exact, exact[1:]))
    assert all(abs(r["z"]) < 5 for r in rows)


@pytest.mark.parametrize(
    "figure, seed", [("fig1", None), ("fig1", 1), ("fig1", 77), ("fig1", 5150), ("fig2", None)]
)
def test_reproduce_oracle_matches_the_trace_formulas(figure, seed):
    """The oracle is Tr[E(I/d)] of the averaged filter noise for fig1, and the smaller
    closed-form root of the Monte Carlo channel's 2 x 2 block for fig2 (at 20,000
    samples here, drawn from the stream the run's oracle draws from)."""
    _, _, report = reproduce_figure(figure, seed=seed, oracle_samples=20_000)
    cfg = figure_config(figure, seed)
    gs, noise_model, _, _ = _experiment_components(cfg)
    if noise_model.stochastic:
        stream = RandomStream(cfg.seed).child(cli.ORACLE_KEY)
        avg = lb.averaged_coherent_channel(noise_model.sampler.params, 20_000, stream)
        expected = decay_eigenvalues(transfer_block(avg))[1]
    else:
        expected = incoherent_survival(average_noise(noise_model))
    assert abs(report["oracle_decay"] - expected) < 1e-12


def test_reproduce_fig1_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "fig1", "--out", str(out1), "--seed", "5150"]) in (0, 1)
    assert main(["reproduce", "fig1", "--out", str(out2), "--seed", "5150"]) in (0, 1)
    assert (out1 / "decay.csv").read_bytes() == (out2 / "decay.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_reproduce_fig2_byte_identical_serial_and_parallel(tmp_path, capsys):
    blobs = []
    for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"])):
        out = tmp_path / name
        assert main(["reproduce", "fig2", "--out", str(out), "--seed", "101", *extra]) == EXIT_OK
        assert "fig2 PASS" in capsys.readouterr().out
        blobs.append((out / "decay.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


#: The disjoint parts of the simulate stage of a serial run.
SIMULATE_PARTS = ["build", "sample", "evolve", "aggregate"]


def _assert_stage_timings(out, stages, parts=()):
    """The disjoint ``stages`` fit in the duration, and the ``parts`` of simulate in it."""
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert sorted(timings) == sorted([*stages, *parts])
    assert all(t >= 0.0 for t in timings.values())
    assert sum(timings[s] for s in stages) <= manifest["duration_seconds"]
    assert sum(timings[p] for p in parts) <= timings["simulate"]
    assert manifest["peak_rss_mb"] > 0.0


def test_manifest_records_stage_timings(tmp_path):
    cfg_path = write_config(tmp_path, NOISELESS)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    _assert_stage_timings(out, ["simulate", "write"], SIMULATE_PARTS)
    out = tmp_path / "sim-jobs"
    assert main(["simulate", "--config", cfg_path, "--out", str(out), "--jobs", "2"]) == 0
    _assert_stage_timings(out, ["simulate", "write"], ["build", "aggregate"])
    out = tmp_path / "rep"
    assert main(["reproduce", "fig1", "--out", str(out)]) == EXIT_OK
    _assert_stage_timings(out, ["simulate", "fit", "oracle", "exact", "write"], SIMULATE_PARTS)
    for name in ("decay.csv", "decay.json", "report.json"):
        assert "timings" not in (out / name).read_text()


def test_manifest_peak_rss_is_null_without_resource(tmp_path, monkeypatch):
    # A platform without the resource module (Windows) records null.
    monkeypatch.setitem(sys.modules, "resource", None)
    cfg_path = write_config(tmp_path, NOISELESS)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "sim")]) == 0
    assert json.loads((tmp_path / "sim" / "manifest.json").read_text())["peak_rss_mb"] is None


@pytest.mark.parametrize("platform, megabytes", [("linux", 2.0**20), ("darwin", 1024.0)])
def test_peak_rss_units(monkeypatch, platform, megabytes):
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    usage = SimpleNamespace(ru_maxrss=2**30)
    fake = SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage)
    monkeypatch.setitem(sys.modules, "resource", fake)
    monkeypatch.setattr(sys, "platform", platform)
    assert cli._peak_rss_mb() == megabytes


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import leakbench.cli as cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["fit", "missing.csv", "--model", "single-exp"]) == EXIT_CONFIG_ERROR
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out == build_parser().format_help()


def test_check_command_passes(capsys):
    assert main(["check"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_python_dash_m_runs_the_cli():
    result = run_python("-m", "leakbench", "check")
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.count("PASS") == 8


def test_import_does_not_load_the_process_pool():
    code = "import sys, leakbench; print('concurrent.futures.process' in sys.modules)"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_reproduce_fig1_does_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 20 ms and 1 MB) on its first call.
    code = (
        "import sys; from leakbench.cli import main; "
        f"code = main(['reproduce', 'fig1', '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{EXIT_OK} False"


def test_corrupted_gateset_fails_idempotence_check():
    bad_gate = np.eye(2) + 0.01 * PAULI_X
    gs = GateSet(SpaceSpec(2, 0), [np.eye(2), bad_gate], label="corrupt", validate=False)
    passed, detail = check_twirl_idempotent(gs)
    assert not passed
    assert "G^2" in detail


def test_twirl_closed_form_check():
    assert check_twirl_closed_form(lb.pauli_gateset())[0]
    assert check_twirl_closed_form(lb.shelving_gateset())[0]
    assert check_twirl_closed_form(lb.signed_design_gateset(PAULIS, PAULIS, label="blocks"))[0]
    ix = GateSet(SpaceSpec(2, 0), [np.eye(2), PAULI_X], label="ix")
    assert not check_twirl_closed_form(ix)[0]
    assert numeric_rank(lb.twirl(ix).matrix) > 1


def test_twirl_closed_form_check_phase_invariant():
    rng = np.random.default_rng(67)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
    gs = GateSet(SpaceSpec(2, 0), [ph * g for ph, g in zip(phases, PAULIS)], label="phased")
    assert check_twirl_closed_form(gs)[0]


def test_closed_form_check_covers_both_sets():
    for gs in (lb.pauli_gateset(), lb.shelving_gateset()):
        # The check's one pass over m = 1..4 against one closed-form call per length.
        na = _gate_independent_assignment(gs)
        worst = max(
            abs(brute_force_expectation(m, gs, na) - predicted_expectation(m, gs, average_noise(na)))
            for m in range(1, 5)
        )
        expected = f"max |exact average - closed form| = {worst:.2e}"
        assert check_sequence_average_closed_form(gs) == (True, expected)


def test_filter_check_is_the_per_channel_loop():
    assert check_filter_diagnostics() == filter_diagnostics()


def test_filter_check_fails_on_a_trace_increasing_channel(monkeypatch):
    monkeypatch.setattr(cli, "filter_kraus", lambda p, bloch: 1.01 * noise.filter_kraus(p, bloch))
    assert check_filter_diagnostics() == (False, "filter channel failed CP / trace-nonincreasing")


def test_filter_check_fails_on_a_partial_transpose_choi(monkeypatch):
    # The CP half: with each Choi matrix partially transposed, a filter channel
    # near the identity has a Choi eigenvalue near -1.
    def partial_transpose(lio, d):
        choi = lb.liouville.liouville_to_choi(lio, d)
        blocks = choi.reshape(choi.shape[:-2] + (d, d, d, d))
        return np.swapaxes(blocks, -3, -1).reshape(choi.shape)

    monkeypatch.setattr(cli, "liouville_to_choi", partial_transpose)
    assert check_filter_diagnostics() == (False, "filter channel failed CP / trace-nonincreasing")


def test_filter_check_fails_on_trace_increasing_kraus_sums(monkeypatch):
    # The trace half alone: the Choi matrices stay those of the true channels.
    monkeypatch.setattr(cli, "kraus_sums", lambda kraus: 1.001 * lb.liouville.kraus_sums(kraus))
    assert check_filter_diagnostics() == (False, "filter channel failed CP / trace-nonincreasing")


def test_run_checks_names_are_stable():
    results = run_checks()
    assert [name for name, _, _ in results] == [
        "twirl idempotence (pauli)",
        "twirl idempotence (shelving)",
        "twirl closed form (pauli)",
        "twirl closed form (shelving)",
        "filter channel diagnostics",
        "shelving noise unitarity",
        "sequence-average closed form (pauli, m<=4)",
        "sequence-average closed form (shelving, m<=4)",
    ]
    assert all(passed is True for _, passed, _ in results)
    prefixes = ["max |G^2 - G| = "] * 2 + ["max deviation from closed form = "] * 2
    prefixes += ["max spectrum deviation from {1, 1-p} = ", "max |U U^dag - I| = "]
    prefixes += ["max |exact average - closed form| = "] * 2
    for (_, _, detail), prefix in zip(results, prefixes):
        assert detail.startswith(prefix)
        float(detail[len(prefix) :])  # one number in %.2e form
        assert len(detail[len(prefix) :].split("e")[0]) == 4


def test_shelving_unitarity_check_is_one_batch_of_the_sequential_draws():
    sp = lb.ShelvingParams()
    batched, sequential = (RandomStream(11, key=(98,)).generator() for _ in range(2))
    sampler = ShelvingNoiseSampler(sp)
    unitaries = sampler.unitaries(batched.standard_normal((50, sampler.n_normals)))
    expected = np.array([lb.sample_coherent_noise(sp, sequential).kraus[0] for _ in range(50)])
    assert np.array_equal(unitaries, expected)
    # Both generators are left at the same stream position.
    assert np.array_equal(batched.standard_normal(5), sequential.standard_normal(5))
    worst = max(float(np.max(np.abs(u @ u.conj().T - np.eye(3)))) for u in expected)
    assert check_shelving_unitary() == (True, f"max |U U^dag - I| = {worst:.2e}")
