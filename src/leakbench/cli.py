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
)
from .noise import (
    FilterParams,
    RandomStream,
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

#: The CLI's error table: an exception that a command raises is reported by
#: :func:`main` with the message word and exit code of the first type here
#: that it is an instance of.
ERRORS = (
    (ConfigError, "config error", EXIT_CONFIG_ERROR),
    (FitNonConvergence, "fit error", EXIT_FIT_ERROR),
    (Exception, "simulation error", EXIT_SIMULATION_ERROR),
)


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
    cfg = _packaged_config(figure)
    return cfg if seed is None else replace(cfg, seed=seed)


@functools.cache  # read once per process
def _packaged_config(figure: str) -> ExperimentConfig:
    path = resources.files("leakbench") / "scenarios" / f"{figure}.json"
    return ExperimentConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))


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


def _check_writable(out_dir) -> None:
    """Refuse, as a config error naming the path, an ``out_dir`` that is not and
    cannot be created as a writable directory.

    Checked before a run, so that a bad ``--out`` does not lose the run's
    results.  A symlink counts as existing even when its target is missing.
    """
    found = next(p for p in (Path(out_dir), *Path(out_dir).parents)
                 if p.exists() or p.is_symlink())
    if not (found.is_dir() and os.access(found, os.W_OK)):
        raise ConfigError(f"cannot create output directory {str(out_dir)!r}: "
                          f"{str(found)!r} is not a writable directory")


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


@functools.cache  # read once per process
def _environment() -> dict:
    """The Python and numpy versions and the platform that a run's bytes rest on.

    ``platform.platform()`` is not read: its first call starts a ``uname -p``
    subprocess.
    """
    import platform

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "machine": platform.machine(),
    }


def _write_run(out, dataset: DecayDataset, started: float, timings: dict, extras=None,
               documents: dict | None = None, health: dict | None = None) -> list:
    """Write a run's files to the directory ``out``; returns their paths, ``manifest.json`` last.

    ``decay.csv``, ``decay.json`` (with the per-row ``extras``) and each JSON
    document of ``documents`` by file name are written in the ``write`` stage
    of ``timings``.  Then the run record ``manifest.json``: the config, seed
    and tool version of the dataset's provenance, the :func:`_environment`,
    the paths before it, and ``timings``, the wall seconds of each stage of
    the run.  The stages are disjoint parts of ``duration_seconds``, except
    ``sample`` and ``evolve``: a serial run's parts of ``simulate``.
    ``peak_rss_mb`` is the process's peak memory when the manifest is
    written, and ``health``, when given, is recorded as it is.
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
        "environment": _environment(),
        "outputs": outputs,
        "duration_seconds": time.monotonic() - started,
        "timings": timings,
        "peak_rss_mb": _peak_rss_mb(),
        **({} if health is None else {"health": health}),
    })
    return outputs + [str(out_dir / "manifest.json")]


def cmd_simulate(args) -> int:
    started, timings = time.monotonic(), {}
    _check_writable(args.out)
    overrides = {"seed": args.seed, "shots": args.shots}
    cfg = ExperimentConfig.from_json_file(args.config)
    cfg = replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    dataset, _ = _simulate(cfg, args.jobs, timings)
    print(f"wrote {', '.join(_write_run(args.out, dataset, started, timings))}")
    return EXIT_OK


def _summary_line(result) -> str:
    parts = [f"{name} = {value:.6f} +/- {result.stderr[name]:.6f}"
             for name, value in result.params.items()]
    r2 = "n/a" if result.r_squared is None else f"{result.r_squared:.4f}"
    return f"{result.model}: " + ", ".join(parts) + f", r^2 = {r2}"


def cmd_fit(args) -> int:
    try:
        read = DecayDataset.from_json if args.dataset.endswith(".json") else DecayDataset.from_csv
        dataset = read(args.dataset)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read dataset: {exc}") from exc
    out_path = Path(args.out) if args.out else Path(args.dataset).parent / "fit.json"
    if out_path.is_dir():
        raise ConfigError(f"fit output {str(out_path)!r} is a directory")
    _check_writable(out_path.parent)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    try:
        result = fit(args.model, dataset, weighted=not args.unweighted)
    except FitNonConvergence as exc:
        _write_json(out_path, {"converged": False, "error": str(exc), **exc.diagnostics})
        raise
    except ValueError as exc:  # the data cannot be fitted: a config error, not a crash
        raise ConfigError(str(exc)) from exc
    _write_json(out_path, result.to_dict())
    print(_summary_line(result))
    return EXIT_OK


def _per_length(dataset: DecayDataset, exact) -> list:
    """Per-length mean, sem, exact expected mean and z = (mean - exact) / sem."""
    return [{"m": r["m"], "mean": r["mean"], "sem": r["sem"], "exact_mean": e,
             "z": (r["mean"] - e) / r["sem"] if r["sem"] > 0 else None}
            for r, e in zip(dataset.rows(), map(float, exact))]


def _health(result, per_length: list) -> dict:
    """The fit's convergence, flags, chi^2 per dof and iterations, and a summary of the
    per-length z: the largest |z|, and sum z^2 with its dof, the count of z that
    are not null (a z against the exact mean fits no parameter)."""
    zs = [row["z"] for row in per_length if row["z"] is not None]
    fit_keys = ("converged", "flags", "chi2_per_dof", "n_iterations")
    return {
        "fit": {key: getattr(result, key) for key in fit_keys},
        "z": {
            "max_abs": max(map(abs, zs), default=None),
            "sum_sq": sum((z * z for z in zs), 0.0),
            "dof": len(zs),
        },
    }


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
            avg = averaged_coherent_channel(noise.sampler, oracle_samples, stream)
            # Noise drawn afresh at every step, independently of the gate, acts
            # on average as the same channel on every gate.
            noise = NoiseAssignment.uniform(avg, len(gs))
        oracle = noise.exact_model(gs).decay
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
    _check_writable(args.out)
    dataset, result, report = reproduce_figure(
        args.figure, seed=args.seed, jobs=args.jobs, timings=timings
    )
    documents = {"fit.json": result.to_dict(), "report.json": report}
    health = _health(result, report["per_length"])
    _write_run(args.out, dataset, started, timings, report["per_length"], documents, health)
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
    choi = liouville_to_choi(liouville_from_kraus(kraus), 2)
    choi_min = np.linalg.eigvalsh(_hermitian_part(choi)).min()
    spectra = np.linalg.eigvalsh(_hermitian_part(kraus_sums(kraus)))
    if not (choi_min >= -CHECK_TOL and spectra.max() <= 1.0 + CHECK_TOL):
        return False, "filter channel failed CP / trace-nonincreasing"
    worst = float(np.max(np.abs(spectra - np.column_stack([1.0 - p, np.ones_like(p)]))))
    return worst <= CHECK_TOL, f"max spectrum deviation from {{1, 1-p}} = {worst:.2e}"


def check_shelving_unitary():
    # One (CHECK_DRAWS, 18) draw: the normals of CHECK_DRAWS sample_coherent_noise calls.
    sp = ShelvingParams()
    gen = RandomStream(11, key=(98,)).generator()
    u = sp.unitaries(gen.standard_normal((CHECK_DRAWS, sp.n_normals)))
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
    """Run one command; returns its exit code.

    Commands only raise: any error of one is printed here as one stderr line,
    ``<word>: <message>``, and exits with its code, both from :data:`ERRORS`.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI's one error boundary
        word, code = next((word, code) for kind, word, code in ERRORS if isinstance(exc, kind))
        print(f"{word}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
