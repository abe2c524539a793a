"""Benchmark of the leakbench toolkit: end-to-end and per-module metrics.

    python3 perfbench/run.py --workload fig2-coherent --seed 1 --seconds 15 --trace 0

Run from anywhere; it benchmarks the ``src/`` next to this directory.  Each
pass runs in a fresh ``worker.py`` process.  With ``--trace 0`` it runs
passes until ``--seconds`` have elapsed (at least one) and reports the
end-to-end metrics as medians over passes, with times scaled to a
reference host speed (see ``worker.SpeedProbe``); with ``--trace 1`` it runs one
untraced pass and then traced passes for ``--seconds`` (at least one) and
reports the per-module metrics.  Every operation's outputs are checked
against ``reference.json``.  The last line of stdout is the JSON result;
the lines before it print every metric with its unit, the fail rate and
the provenance.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import EXACT_LENGTHS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("fig2-coherent", "fig1-sweep", "exact-oracle")

#: Reproduce calls per fig1-sweep pass, drawn from the recorded seed pool.
FIG1_SWEEP_SEEDS = 24
#: Set-up samples per untraced run; passes that fall short are topped up.
SETUP_SAMPLES = 7
#: A workload seed kept out of tuning; later claims must also hold on it.
HELD_OUT_SEED = 7919
#: No pass starts unless it can end this long after the run started.
DEADLINE_S = 170.0

#: Mean time of one ``worker.SpeedProbe`` sample at the reference host speed.
#: ``run_s`` is a pass's wall time scaled by this over the pass's mean sample,
#: ``setup_s`` the set-up wall time scaled by this over the samples after it.
PROBE_REFERENCE_S = 0.008

#: Gate counts of the gate sets exact-oracle enumerates, and the lengths the
#: invariant suite (``cli.run_checks``) enumerates for both.
GATE_COUNTS = {"pauli": 4, "shelving": 8}
CHECK_LENGTHS = range(1, 5)

END_TO_END = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "noise.sample_coherent_noise.calls": "count",
    "noise.sample_coherent_noise.s": "s",
    "noise.haar_unitary.s": "s",
    "liouville.Channel.calls": "count",
    "liouville.Channel.liouville.calls": "count",
    "liouville.Channel.liouville.s": "s",
    "liouville.liouville_reuse_ratio": "ratio",
    "liouville.direct_sum.calls": "count",
    "liouville.direct_sum.s": "s",
    "gatesets.channel_for.calls": "count",
    "gatesets.channel_for.self_s": "s",
    "noise.averaged_coherent_channel.s": "s",
    "noise.mc_samples_per_s": "1/s",
    "protocol.run_experiment.s": "s",
    "protocol.run_experiment.self_s": "s",
    "protocol.run_sequence.calls": "count",
    "protocol.run_sequence.self_s": "s",
    "protocol.sample_sequence.s": "s",
    "protocol.steps": "count",
    "protocol.evolve_flops": "flop",
    "protocol.evolve_gflops": "Gflop/s",
    "noise.generator.calls": "count",
    "noise.generator.s": "s",
    "protocol.brute_force_expectation.calls": "count",
    "protocol.brute_force_expectation.s": "s",
    "protocol.enumerated_sequences": "count",
    "protocol.predicted_expectation.s": "s",
    "fitting.fit.calls": "count",
    "fitting.fit.s": "s",
    "fitting.lm_iterations": "count",
    "fitting.converged_ratio": "ratio",
    "cli.main.self_s": "s",
    "cli.cmd_reproduce.self_s": "s",
    "cli.reproduce_figure.self_s": "s",
    "gatesets.gateset_by_id.s": "s",
    "noise.build_noise_model.s": "s",
    "noise.sample_filter_assignment.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.self_share": "ratio",
}

#: Per-module metrics that are exact counts added by the worker's hooks.
COUNTED = (
    "protocol.steps",
    "protocol.evolve_flops",
    "protocol.enumerated_sequences",
    "fitting.lm_iterations",
)

#: Counts that must repeat exactly between two traced passes of one input.
EXACT_COUNTS = (
    "protocol.steps",
    "protocol.enumerated_sequences",
    "noise.sample_coherent_noise.calls",
    "liouville.Channel.calls",
    "fitting.lm_iterations",
)

#: Absolute tolerance per float output field; every other field must be equal.
TOLERANCES = {
    "mean": 1e-12,
    "sem": 1e-12,
    "value": 1e-12,
    "fitted_decay": 1e-9,
    "oracle_decay": 1e-9,
}


class BenchError(RuntimeError):
    """The benchmark could not measure: a pass crashed or ran out of time."""


# ---------------------------------------------------------------------------
# Inputs and reference checks
# ---------------------------------------------------------------------------


def workload_inputs(workload: str, seed: int, reference: dict) -> list:
    """The input seeds of one workload seed, drawn from the recorded pool."""
    pool = sorted(int(s) for s in reference[workload])
    if workload == "fig1-sweep":
        return random.Random(seed).sample(pool, FIG1_SWEEP_SEEDS)
    return [pool[seed % len(pool)]]


def matches(ref, out, field: str = "") -> bool:
    """True iff ``out`` equals ``ref``, floats within the tolerance of their field."""
    if isinstance(ref, dict):
        return (
            isinstance(out, dict)
            and ref.keys() == out.keys()
            and all(matches(ref[k], out[k], k) for k in ref)
        )
    if isinstance(ref, list):
        return (
            isinstance(out, list)
            and len(ref) == len(out)
            and all(matches(r, o, field) for r, o in zip(ref, out))
        )
    if isinstance(ref, float) and field in TOLERANCES:
        return isinstance(out, (int, float)) and abs(out - ref) <= TOLERANCES[field]
    return type(ref) is type(out) and ref == out


def check_outputs(workload: str, inputs: list, outputs: dict, reference: dict) -> tuple:
    """(attempted, failed) operations of one pass; a missing operation fails."""
    attempted = failed = 0
    for seed in inputs:
        produced = outputs.get(str(seed), {})
        for key, ref in reference[workload][str(seed)].items():
            attempted += 1
            if not matches(ref, produced.get(key)):
                failed += 1
    return attempted, failed


def steps_per_pass(workload: str, inputs: list, reference: dict) -> int:
    """Gate applications one pass simulates, fixed by its inputs."""
    if workload == "exact-oracle":
        per_input = sum(
            m * GATE_COUNTS[kind] ** m for kind, ms in EXACT_LENGTHS.items() for m in ms
        ) + sum(m * g ** m for g in GATE_COUNTS.values() for m in CHECK_LENGTHS)
        return per_input * len(inputs)
    return sum(
        n * m
        for s in inputs
        for m, n in zip(reference[workload][str(s)]["reproduce"]["m"],
                        reference[workload][str(s)]["reproduce"]["n"])
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def worker_env() -> dict:
    env = dict(os.environ)
    # Serial workloads: one BLAS thread, so a 2-CPU host measures the program.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload: str, inputs: list, deadline: float, trace=False, setup_only=False) -> dict:
    """Run one pass in a fresh worker process and return its result."""
    OUT.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(dir=OUT, prefix="pass-", suffix=".json")
    os.close(fd)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", json.dumps(inputs), "--result", path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a pass did not finish before the run deadline") from exc
    finally:
        os.remove(path)


def run_passes(workload, inputs, seconds, started, deadline, trace=False) -> list:
    """Passes until ``seconds`` have elapsed since ``started`` (at least one)."""
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(spawn(workload, inputs, deadline, trace=trace))
        now = time.monotonic()
        if now - started >= seconds or now + (now - t0) > deadline:
            return passes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(trace: dict, traced_run_s: float, untraced_run_s: float) -> dict:
    """Every per-module metric of one traced pass."""
    spans, counts = trace["spans"], trace["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    derived = {
        "liouville.liouville_reuse_ratio": ratio(
            span("liouville.Channel.liouville", "calls"), span("liouville.Channel", "calls")
        ),
        "noise.mc_samples_per_s": ratio(
            counts.get("noise.mc_samples", 0), span("noise.averaged_coherent_channel", "s")
        ),
        "protocol.evolve_gflops": ratio(
            counts.get("protocol.evolve_flops", 0), span("protocol.run_sequence", "self_s")
        ) / 1e9,
        "fitting.converged_ratio": ratio(
            counts.get("fitting.converged", 0), span("fitting.fit", "calls")
        ),
        "trace.overhead_ratio": traced_run_s / untraced_run_s,
        "trace.self_share": trace["wrapped_self_s"] / traced_run_s,
    }
    values = {}
    for name in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name in COUNTED:
            values[name] = counts.get(name, 0)
        else:
            base, field = name.rsplit(".", 1)
            values[name] = span(base, field)
    return values


def median_metrics(samples: list) -> dict:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def provenance(workload: str, seed: int, inputs: list, worker: dict) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "inputs": inputs,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def measure(args, reference: dict) -> dict:
    inputs = workload_inputs(args.workload, args.seed, reference)
    started = time.monotonic()
    deadline = started + DEADLINE_S
    correct = True
    if args.trace:
        base = spawn(args.workload, inputs, deadline)
        traced = run_passes(args.workload, inputs, args.seconds, time.monotonic(), deadline, True)
        passes = [base] + traced
        samples = [layer_metrics(p["trace"], p["run_s"], base["run_s"]) for p in traced]
        for p in traced:
            if p["trace"]["wrapped_self_s"] > p["run_s"]:
                print("error: module self times exceed the traced run time", file=sys.stderr)
                correct = False
        for name in EXACT_COUNTS:
            if len({s[name] for s in samples}) > 1:
                print(f"error: {name} differs between traced passes", file=sys.stderr)
                correct = False
        metrics = median_metrics(samples)
        units = PER_LAYER
    else:
        passes = run_passes(args.workload, inputs, args.seconds, started, deadline)
        setups = list(passes)
        while len(setups) < SETUP_SAMPLES and time.monotonic() + 5 < deadline:
            setups.append(spawn(args.workload, inputs, deadline, setup_only=True))
        steps = steps_per_pass(args.workload, inputs, reference)
        samples = []
        for p in passes:
            speed = PROBE_REFERENCE_S / p["probe_s"]
            samples.append({"run_s": p["run_s"] * speed, "steps_per_s": steps / (p["run_s"] * speed),
                            "peak_rss_mb": p["peak_rss_mb"], "run_wall_s": p["run_s"],
                            "host_speed": speed})
        metrics = median_metrics(samples)
        metrics.update(median_metrics(
            [{"setup_s": p["setup_s"] * PROBE_REFERENCE_S / p["setup_probe_s"],
              "setup_wall_s": p["setup_s"]} for p in setups]
        ))
        units = END_TO_END
    unbounded = {name: value for name, value in metrics.items() if name not in units}
    attempted = failed = 0
    for p in passes:
        a, f = check_outputs(args.workload, inputs, p["outputs"], reference)
        attempted, failed = attempted + a, failed + f
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "unbounded": unbounded,
        "passes": len(passes),
        "provenance": provenance(args.workload, args.seed, inputs, passes[0]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "leakbench" / "__init__.py").is_file():
        print(f"error: no leakbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    try:
        result = measure(args, reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in result["unbounded"].items():
        print(f"{name:42s} {value:.6g} (not bounded)")
    print(f"{'fail_rate':42s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations, {result['passes']} passes)")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
