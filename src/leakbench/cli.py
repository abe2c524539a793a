"""Command-line entry point: simulate, fit, reproduce, check.

Exit codes are a stable contract: 0 success, 1 property/comparison failure,
and the codes of the error table :data:`ERRORS`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .fitting import MODELS, FitNonConvergence, fit
from .gatesets import (
    GateSet,
    NoiseAssignment,
    average_noise,
    gateset_by_id,
    predicted_twirl_matrix,
    twirl,
)
from .liouville import (
    _hermitian_part,
    kraus_sums,
    liouville_from_kraus,
    liouville_to_choi,
    transfer_matrix,
)
from .noise import (
    FilterParams,
    RandomStream,
    ShelvingNoiseSampler,
    ShelvingParams,
    averaged_coherent_channel,
    filter_channel,
    filter_kraus,
    sample_coherent_noise,
    sample_filter_batch,
)
from .protocol import (
    ConfigError,
    DecayDataset,
    ExperimentConfig,
    _experiment_components,
    _write_json,
    exact_expectations,
    predicted_expectation,
    run_experiment,
    timed_stage,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_SIMULATION_ERROR = 3
EXIT_FIT_ERROR = 4

#: The CLI's error boundary: an exception's message word and exit code are
#: those of the first type here that it is an instance of.
ERRORS = (
    (ConfigError, "config error", EXIT_CONFIG_ERROR),
    (FitNonConvergence, "fit error", EXIT_FIT_ERROR),
    (Exception, "simulation error", EXIT_SIMULATION_ERROR),
)


def _report_error(exc: Exception) -> int:
    """Print ``exc`` to stderr after its :data:`ERRORS` word; returns its exit code."""
    word, code = next((word, code) for kind, word, code in ERRORS if isinstance(exc, kind))
    print(f"{word}: {exc}", file=sys.stderr)
    return code


#: Sub-stream tag for the Monte Carlo theory oracle.
ORACLE_KEY = 2

#: The validation targets of the two bundled benchmark scenarios.  Each one's
#: experiment is the config file ``scenarios/<name>.json`` of the package, whose
#: seed is the scenario's default seed.
FIGURES = {
    "fig1": {
        "model": "single-exp",
        "reference": {"decay": 0.9880, "stderr": 0.0002, "r_squared": 0.9991,
                      "oracle": 0.9879},
    },
    "fig2": {
        "model": "tp-constrained",
        "reference": {"decay": 0.992, "stderr": 0.002, "r_squared": 0.9904,
                      "oracle": 0.995},
    },
}

#: Monte Carlo sample count for the averaged-channel oracle.
ORACLE_SAMPLES = 1_000_000


def figure_config(figure: str, seed: int | None = None) -> ExperimentConfig:
    """A bundled scenario's packaged config file, with ``seed``, when given, for its seed."""
    path = resources.files("leakbench") / "scenarios" / f"{figure}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    if seed is not None:
        doc["seed"] = seed
    return ExperimentConfig.from_dict(doc)


def _peak_rss_mb() -> float | None:
    """The process's peak resident set size so far in MiB; None without ``resource`` (Windows).

    ``ru_maxrss`` is in KiB on Linux and in bytes on macOS.
    """
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _can_write_to(out_dir) -> bool:
    """Whether ``out_dir`` is, or can be created as, a writable directory.

    Checked before a run, so that a bad ``--out`` does not lose the run's
    results; when it is not, a config error naming the path is printed.
    """
    found = next(p for p in (Path(out_dir), *Path(out_dir).parents) if p.exists())
    writable = found.is_dir() and os.access(found, os.W_OK)
    if not writable:
        _report_error(ConfigError(f"cannot create output directory {str(out_dir)!r}: "
                                  f"{str(found)!r} is not a writable directory"))
    return writable


def _simulate(cfg: ExperimentConfig, jobs: int, timings: dict | None):
    """Build ``cfg``'s components and run it; returns (dataset, components).

    Timed as the ``simulate`` stage of ``timings``, with the component build
    as its ``build`` part.  A gate-set file that cannot be read or is
    malformed, or a bad SPAM section, is a config error; an unknown gate-set
    name is a simulation error.
    """
    with timed_stage(timings, "simulate"):
        with timed_stage(timings, "build"):
            components = _experiment_components(cfg)
        return run_experiment(cfg, jobs, components, timings), components


def _write_run(out, dataset: DecayDataset, started: float, timings: dict, extras=None,
               documents: dict | None = None) -> list:
    """Write a run's files to the directory ``out``; returns their paths, ``manifest.json`` last.

    ``decay.csv``, ``decay.json`` (with the per-row ``extras``) and each JSON
    document of ``documents`` by file name are written in the ``write`` stage
    of ``timings``.  Then the run record ``manifest.json``: the config, seed
    and tool version of the dataset's provenance, the paths before it, and
    ``timings``, the wall seconds of each stage of the run.  The stages are
    disjoint parts of ``duration_seconds``, except ``sample`` and ``evolve``:
    a serial run's parts of ``simulate``.  ``peak_rss_mb`` is the process's
    peak memory when the manifest is written.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    documents = documents or {}
    paths = [out_dir / name for name in ("decay.csv", "decay.json", *documents)]
    with timed_stage(timings, "write"):
        dataset.to_csv(str(paths[0]))
        dataset.to_json(str(paths[1]), extras)
        for path, doc in zip(paths[2:], documents.values()):
            _write_json(path, doc)
    outputs = list(map(str, paths))
    _write_json(out_dir / "manifest.json", {
        **{key: dataset.provenance[key] for key in ("config", "seed", "tool_version")},
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        "timings": timings,
        "peak_rss_mb": _peak_rss_mb(),
    })
    return outputs + [str(out_dir / "manifest.json")]


def cmd_simulate(args) -> int:
    started, timings = time.monotonic(), {}
    if not _can_write_to(args.out):
        return EXIT_CONFIG_ERROR
    try:
        overrides = {"seed": args.seed, "shots": args.shots}
        cfg = ExperimentConfig.from_json_file(args.config)
        cfg = replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
        dataset, _ = _simulate(cfg, args.jobs, timings)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        return _report_error(exc)
    print(f"wrote {', '.join(_write_run(args.out, dataset, started, timings))}")
    return EXIT_OK


def _load_dataset(path: str) -> DecayDataset:
    if path.endswith(".json"):
        return DecayDataset.from_json(path)
    return DecayDataset.from_csv(path)


def _summary_line(result) -> str:
    parts = [
        f"{name} = {value:.6f} +/- {result.stderr[name]:.6f}"
        for name, value in result.params.items()
    ]
    r2 = "n/a" if result.r_squared is None else f"{result.r_squared:.4f}"
    return f"{result.model}: " + ", ".join(parts) + f", r^2 = {r2}"


def cmd_fit(args) -> int:
    try:
        dataset = _load_dataset(args.dataset)
    except (OSError, ValueError) as exc:
        print(f"config error: cannot read dataset: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    out_path = Path(args.out) if args.out else Path(args.dataset).parent / "fit.json"
    if out_path.is_dir():
        print(f"config error: fit output {str(out_path)!r} is a directory", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if not _can_write_to(out_path.parent):
        return EXIT_CONFIG_ERROR
    out_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        result = fit(args.model, dataset, weighted=not args.unweighted)
    except FitNonConvergence as exc:
        _write_json(out_path, {"converged": False, "error": str(exc), **exc.diagnostics})
        return _report_error(exc)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    _write_json(out_path, result.to_dict())
    print(_summary_line(result))
    return EXIT_OK


def _per_length(dataset: DecayDataset, exact) -> list:
    """Per-length mean, sem, exact expected mean and z = (mean - exact) / sem."""
    return [
        {
            "m": p.m,
            "mean": p.mean,
            "sem": p.sem,
            "exact_mean": e,
            "z": (p.mean - e) / p.sem if p.sem > 0 else None,
        }
        for p, e in zip(dataset.points, map(float, exact))
    ]


def reproduce_figure(
    figure: str,
    seed: int | None = None,
    jobs: int = 1,
    oracle_samples: int = ORACLE_SAMPLES,
    timings: dict | None = None,
):
    """Run a bundled scenario end to end; returns (dataset, fit, report).

    The wall seconds of the simulate, fit, oracle and exact stages, of the
    build and aggregate parts of simulate, and of a serial run's sample and
    evolve parts, are added to ``timings`` when given.
    """
    spec = FIGURES[figure]
    cfg = figure_config(figure, seed)
    dataset, components = _simulate(cfg, jobs, timings)
    with timed_stage(timings, "fit"):
        result = fit(spec["model"], dataset)
    fitted = result.params["decay"]
    stderr = result.stderr["decay"]
    gs, noise, spam, _ = components
    stochastic = noise.stochastic
    with timed_stage(timings, "oracle"):
        if stochastic:
            stream = RandomStream(cfg.seed).child(ORACLE_KEY)
            avg = averaged_coherent_channel(noise.sampler.params, oracle_samples, stream)
            # Noise drawn afresh at every step, independently of the gate, acts
            # on average as the same channel on every gate.
            noise = NoiseAssignment.uniform(avg, len(gs))
        else:
            avg = average_noise(noise)
        # The decaying eigenvalue of the averaged channel's transfer block.
        oracle = float(np.linalg.eigvals(transfer_matrix(avg)).real.min())
    with timed_stage(timings, "exact"):
        exact = exact_expectations(cfg.m_list, gs, noise, spam)
    passed = abs(fitted - oracle) <= 3.0 * stderr
    report = {
        "figure": figure,
        "model": spec["model"],
        "fitted_decay": fitted,
        "fitted_stderr": stderr,
        "oracle_decay": oracle,
        "oracle_method": "monte-carlo" if stochastic else "closed-form",
        "oracle_samples": oracle_samples if stochastic else None,
        "deviation_sigmas": abs(fitted - oracle) / stderr if stderr > 0 else None,
        "r_squared": result.r_squared,
        "pass": bool(passed),
        "criterion": "|fitted - oracle| <= 3 * stderr",
        "reference_instance": spec["reference"],
        "seed": cfg.seed,
        "per_length": _per_length(dataset, exact),
    }
    return dataset, result, report


def cmd_reproduce(args) -> int:
    started, timings = time.monotonic(), {}
    if not _can_write_to(args.out):
        return EXIT_CONFIG_ERROR
    try:
        dataset, result, report = reproduce_figure(
            args.figure, seed=args.seed, jobs=args.jobs, timings=timings
        )
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        return _report_error(exc)
    extras = [{"exact_mean": r["exact_mean"], "z": r["z"]} for r in report["per_length"]]
    documents = {"fit.json": result.to_dict(), "report.json": report}
    _write_run(args.out, dataset, started, timings, extras, documents)
    verdict = "PASS" if report["pass"] else "FAIL"
    print(
        f"{args.figure} {verdict}: fitted decay {report['fitted_decay']:.6f} "
        f"+/- {report['fitted_stderr']:.6f} vs oracle {report['oracle_decay']:.6f} "
        f"(r^2 = {report['r_squared']:.4f})"
    )
    return EXIT_OK if report["pass"] else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# Property suite (cmd_check)
# ---------------------------------------------------------------------------


#: The invariant suite's tolerance, the draws of each of its sampling checks,
#: and the longest sequence length its sequence-average checks enumerate.
CHECK_TOL = 1e-10
CHECK_DRAWS = 50
CHECK_MAX_M = 4


def check_twirl_idempotent(gs: GateSet):
    g_bar = twirl(gs).matrix
    dev = float(np.max(np.abs(g_bar @ g_bar - g_bar)))
    return dev <= CHECK_TOL, f"max |G^2 - G| = {dev:.2e}"


def check_twirl_closed_form(gs: GateSet):
    dev = float(np.max(np.abs(twirl(gs).matrix - predicted_twirl_matrix(gs.space))))
    return dev <= CHECK_TOL, f"max deviation from closed form = {dev:.2e}"


def check_filter_diagnostics():
    """CP, trace-nonincrease and the Kraus-sum spectrum {1-p, 1} of CHECK_DRAWS sampled
    filter channels, each quantity one stacked ``eigvalsh`` over all of them."""
    p, bloch = sample_filter_batch(RandomStream(7, key=(99,)).generator(), CHECK_DRAWS)
    kraus = filter_kraus(p, bloch)
    sums = kraus_sums(kraus)
    choi = liouville_to_choi(liouville_from_kraus(kraus), 2)
    choi_min = np.linalg.eigvalsh(_hermitian_part(choi)).min()
    sums_max = np.linalg.eigvalsh(_hermitian_part(sums)).max()
    if not (choi_min >= -CHECK_TOL and sums_max <= 1.0 + CHECK_TOL):
        return False, "filter channel failed CP / trace-nonincreasing"
    spectra = np.linalg.eigvalsh(sums)
    worst = float(np.max(np.abs(spectra - np.column_stack([1.0 - p, np.ones_like(p)]))))
    return worst <= CHECK_TOL, f"max spectrum deviation from {{1, 1-p}} = {worst:.2e}"


def check_shelving_unitary():
    # One (CHECK_DRAWS, 18) draw: the normals of CHECK_DRAWS sample_coherent_noise calls.
    sampler = ShelvingNoiseSampler(ShelvingParams())
    gen = RandomStream(11, key=(98,)).generator()
    u = sampler.unitaries(gen.standard_normal((CHECK_DRAWS, sampler.n_normals)))
    worst = float(np.max(np.abs(u @ u.conj().swapaxes(1, 2) - np.eye(3))))
    return worst <= CHECK_TOL, f"max |U U^dag - I| = {worst:.2e}"


def _gate_independent_assignment(gs: GateSet):
    if gs.space.d2 == 0:
        ch = filter_channel(FilterParams(p=0.03, bloch=(0.0, 0.0, 1.0)))
    else:
        ch = sample_coherent_noise(ShelvingParams(), RandomStream(3, key=(97,)))
    return NoiseAssignment.uniform(ch, len(gs))


def check_sequence_average_closed_form(gs: GateSet):
    na = _gate_independent_assignment(gs)
    ms = np.arange(1, CHECK_MAX_M + 1)
    exact = exact_expectations(ms, gs, na)
    worst = float(np.max(np.abs(exact - predicted_expectation(ms, gs, average_noise(na)))))
    return worst <= CHECK_TOL, f"max |exact average - closed form| = {worst:.2e}"


def run_checks():
    """The fast invariant suite; returns a list of (name, passed, detail)."""
    pauli, shelving = gateset_by_id("pauli"), gateset_by_id("shelving")
    checks = [
        ("twirl idempotence (pauli)", lambda: check_twirl_idempotent(pauli)),
        ("twirl idempotence (shelving)", lambda: check_twirl_idempotent(shelving)),
        ("twirl closed form (pauli)", lambda: check_twirl_closed_form(pauli)),
        ("twirl closed form (shelving)", lambda: check_twirl_closed_form(shelving)),
        ("filter channel diagnostics", check_filter_diagnostics),
        ("shelving noise unitarity", check_shelving_unitary),
        (
            "sequence-average closed form (pauli, m<=4)",
            lambda: check_sequence_average_closed_form(pauli),
        ),
        (
            "sequence-average closed form (shelving, m<=4)",
            lambda: check_sequence_average_closed_form(shelving),
        ),
    ]
    results = []
    for name, fn in checks:
        passed, detail = fn()
        results.append((name, bool(passed), detail))
    return results


def cmd_check(_args) -> int:
    results = run_checks()
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({detail})")
    return EXIT_OK if all(p for _, p, _ in results) else EXIT_PROPERTY_FAILURE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """The value of ``--jobs``: an integer >= 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakbench",
        description="Randomized benchmarking of incoherent and coherent leakage",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run an experiment from a config file")
    p_sim.add_argument("--config", required=True, help="path to a JSON config")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--shots", type=int, default=None, help="finite sampling per sequence")
    p_sim.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a decay model to a dataset")
    p_fit.add_argument("dataset", help="decay.csv or decay.json produced by simulate")
    p_fit.add_argument("--model", required=True, choices=sorted(MODELS))
    p_fit.add_argument("--out", default=None, help="fit.json output path")
    p_fit.add_argument("--unweighted", action="store_true", help="ignore sem weights")
    p_fit.set_defaults(func=cmd_fit)

    p_rep = sub.add_parser("reproduce", help="run a bundled benchmark scenario")
    p_rep.add_argument("figure", choices=sorted(FIGURES))
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--seed", type=int, default=None)
    p_rep.add_argument("--jobs", type=_positive_int, default=1)
    p_rep.set_defaults(func=cmd_reproduce)

    p_check = sub.add_parser("check", help="run the fast invariant suite")
    p_check.set_defaults(func=cmd_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
