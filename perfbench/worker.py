"""One benchmark pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --inputs JSON --result PATH
                                [--trace] [--setup-only]

``run.py`` starts this once per pass.  It times the import of ``leakbench``
from the checkout's ``src/`` plus the build of the workload's gate sets and
noise models (``setup_s``), then one pass over the given input seeds
(``run_s``), and writes each operation's outputs, the timings and the
process's peak RSS to PATH as JSON.  An untraced pass also reports how fast
the host ran during it (``SpeedProbe``).  With ``--trace`` the worker first
wraps the public functions of the six package modules in spans and adds the
per-module summary; the spans themselves go to ``.perfbench/spans-NAME.npz``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import importlib
import inspect
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

from spans import SpanRecorder, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MODULES = ("cli", "protocol", "noise", "gatesets", "liouville", "fitting")

#: Sequence lengths whose |G|^m sequences exact-oracle enumerates, per gate set.
EXACT_LENGTHS = {"pauli": range(1, 9), "shelving": range(1, 6)}

#: Gate set and noise spec of each bundled scenario, as in ``configs/``.
FIGURES = {
    "fig2-coherent": (
        "fig2",
        "shelving",
        {"id": "shelving", "params": {"phi": 0.01, "sigma_gamma": 0.06}},
    ),
    "fig1-sweep": ("fig1", "pauli", {"id": "filter", "params": {}}),
}

#: Methods traced besides the modules' public functions: span name -> (module, class, attribute).
METHODS = {
    "liouville.Channel": ("liouville", "Channel", "__init__"),
    "liouville.Channel.liouville": ("liouville", "Channel", "liouville"),
    "gatesets.channel_for": ("gatesets", "NoiseAssignment", "channel_for"),
    "noise.generator": ("noise", "RandomStream", "generator"),
}


def import_leakbench() -> dict:
    sys.path.insert(0, str(SRC))
    import leakbench

    if Path(leakbench.__file__).resolve().parent != SRC / "leakbench":
        raise ImportError(f"leakbench imported from {leakbench.__file__}, not {SRC}")
    return {name: importlib.import_module(f"leakbench.{name}") for name in MODULES}


# ---------------------------------------------------------------------------
# Tracing: spans around every public function, exact counts at a few of them
# ---------------------------------------------------------------------------


def _count_steps(rec, a, result):
    steps = len(a["indices"])
    matvecs = 2 if a["noise"] is not None else 1
    rec.add("protocol.steps", steps)
    # One d^2 x d^2 complex matrix-vector product is 8 d^4 real flops.
    rec.add("protocol.evolve_flops", steps * matvecs * 8 * a["gateset"].space.d ** 4)


def _count_enumerated(rec, a, result):
    rec.add("protocol.enumerated_sequences", len(a["gateset"]) ** a["m"])


def _count_mc_samples(rec, a, result):
    rec.add("noise.mc_samples", a["n_samples"])


def _count_fit(rec, a, result):
    rec.add("fitting.lm_iterations", result.n_iterations)
    rec.add("fitting.converged", int(result.converged))


COUNTS = {
    "protocol.run_sequence": _count_steps,
    "protocol.brute_force_expectation": _count_enumerated,
    "noise.averaged_coherent_channel": _count_mc_samples,
    "fitting.fit": _count_fit,
}


def _wrap(rec: SpanRecorder, name: str, fn):
    hook = COUNTS.get(name)
    if hook is None:
        return rec.wrap(name, fn)
    sig = inspect.signature(fn)
    return rec.wrap(name, fn, lambda r, a, k, res: hook(r, sig.bind(*a, **k).arguments, res))


def instrument(lb: dict, rec: SpanRecorder):
    """Rebind every public function of the modules, wherever it is imported, to a traced one."""
    traced = {}
    for short, mod in lb.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                traced[id(obj)] = _wrap(rec, f"{short}.{attr}", obj)
    for mod in (*lb.values(), sys.modules["leakbench"]):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in traced:
                setattr(mod, attr, traced[id(obj)])
    for name, (short, cls_name, attr) in METHODS.items():
        cls = getattr(lb[short], cls_name, None)
        member = vars(cls).get(attr) if cls is not None else None
        if isinstance(member, property):
            setattr(cls, attr, property(rec.wrap(name, member.fget)))
        elif inspect.isfunction(member):
            setattr(cls, attr, rec.wrap(name, member))


# ---------------------------------------------------------------------------
# Set-up and operations
# ---------------------------------------------------------------------------


def exact_noise(lb: dict, seed: int) -> dict:
    """Gate-dependent deterministic noise for both gate sets, drawn from ``seed``."""
    noise, gatesets = lb["noise"], lb["gatesets"]
    pauli = gatesets.gateset_by_id("pauli")
    shelving = gatesets.gateset_by_id("shelving")
    root = noise.RandomStream(seed)
    pauli_noise, _ = noise.sample_filter_assignment(root.child(0), n_gates=len(pauli))
    shelving_noise = gatesets.NoiseAssignment(
        shelving.space,
        channels=[
            noise.sample_coherent_noise(noise.ShelvingParams(), root.child(1, g))
            for g in range(len(shelving))
        ],
    )
    return {"pauli": (pauli, pauli_noise), "shelving": (shelving, shelving_noise)}


def build(lb: dict, workload: str, seeds) -> list:
    """The gate sets and noise models of every input seed."""
    if workload == "exact-oracle":
        return [exact_noise(lb, s) for s in seeds]
    _, gateset, spec = FIGURES[workload]
    gs = lb["gatesets"].gateset_by_id(gateset)
    noise = lb["noise"]
    return [noise.build_noise_model(spec, gs, noise.RandomStream(s)) for s in seeds]


def read_figure_outputs(rc, out: Path) -> dict:
    """What a reproduce call is checked on: exit code, decay.csv, fitted and oracle decay."""
    result = {"rc": rc}
    try:
        with open(out / "decay.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        result["error"] = f"missing output: {exc}"
        return result
    result["m"] = [int(r["m"]) for r in rows]
    result["mean"] = [float(r["mean"]) for r in rows]
    result["sem"] = [float(r["sem"]) for r in rows]
    result["n"] = [int(r["n"]) for r in rows]
    result["fitted_decay"] = report["fitted_decay"]
    result["oracle_decay"] = report["oracle_decay"]
    return result


def figure_ops(lb: dict, workload: str, seeds, workdir: Path) -> list:
    """One ``leakbench reproduce`` per seed, through ``cli.main``."""
    figure = FIGURES[workload][0]
    ops = []
    for i, seed in enumerate(seeds):
        out = workdir / f"{figure}-{i}"
        argv = ["reproduce", figure, "--out", str(out), "--seed", str(seed), "--jobs", "1"]

        def call(argv=argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return lb["cli"].main(argv)

        ops.append((seed, "reproduce", call, lambda rc, out=out: read_figure_outputs(rc, out)))
    return ops


def expectation(lb: dict, m: int, gs, na) -> dict:
    """The enumerated expectation at length m, and whether it lies within
    m * epsilon of the closed form for the averaged noise."""
    protocol, gatesets = lb["protocol"], lb["gatesets"]
    value = protocol.brute_force_expectation(m, gs, na)
    predicted = protocol.predicted_expectation(m, gs, gatesets.average_noise(na))
    epsilon = gatesets.gate_dependence_epsilon(gs, na)
    return {"value": float(value), "within_bound": bool(abs(value - predicted) <= m * epsilon)}


def exact_ops(lb: dict, seeds, components) -> list:
    """Every enumerated expectation value of every seed, then the invariant suite."""
    ops = []
    for seed, sets in zip(seeds, components):
        for kind, (gs, na) in sets.items():
            for m in EXACT_LENGTHS[kind]:
                ops.append((seed, f"{kind}/m={m}", functools.partial(expectation, lb, m, gs, na), dict))
        ops.append(
            (
                seed,
                "checks",
                lambda: lb["cli"].run_checks(),
                lambda results: {"passed": {name: ok for name, ok, _ in results}},
            )
        )
    return ops


class SpeedProbe:
    """Measures the host's speed while an untraced pass runs.

    The host's CPUs are shared, and its speed drifts by up to 2x within
    seconds, which wall time alone cannot tell from a change in the program.
    Every ``INTERVAL`` seconds a SIGALRM handler times a fixed kernel of
    small numpy calls and interpreter work, the mix of the workloads' inner
    loops; one more sample is taken before and after the pass.  The time the
    handler spends inside the pass is reported so it can be left out.
    """

    INTERVAL = 0.1
    REPEATS = 10

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = (np.arange(81).reshape(9, 9) / 81.0).astype(complex)
        self._b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        self.samples: list = []
        self.inside_s = 0.0

    def _kernel(self):
        np, a, b = self._np, self._a, self._b
        for _ in range(self.REPEATS):
            v = np.ones(9, dtype=complex)
            for _ in range(10):
                v = a @ v
                np.linalg.qr(b)
                np.kron(b, b.conj())
            acc, table = 0, {}
            for i in range(1500):
                acc = _mix(acc, i)
                table[i & 63] = acc

    def sample(self, *_):
        started = time.perf_counter()
        self._kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def _sample_inside(self, *_):
        self.inside_s += self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def _mix(acc: int, i: int) -> int:
    return (acc * 3 + i) % 1000003


def run_pass(lb: dict, workload: str, seeds, components, workdir: Path, rec) -> dict:
    """Run every operation in the timed region.

    Returns run_s (wall time, probe time left out), the mean probe time of an
    untraced pass, and the outputs by seed and key.
    """
    if workload == "exact-oracle":
        ops = exact_ops(lb, seeds, components)
    else:
        ops = figure_ops(lb, workload, seeds, workdir)
    raw = []
    probe = SpeedProbe() if rec is None else None
    with probe if probe is not None else contextlib.nullcontext():
        started = time.perf_counter()
        for i, (_, _, call, _) in enumerate(ops):
            try:
                raw.append(rec.run_op("bench.op", i, call) if rec is not None else call())
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                raw.append(exc)
        run_s = time.perf_counter() - started
    outputs: dict = {}
    for (seed, key, _, finish), r in zip(ops, raw):
        out = {"error": repr(r)} if isinstance(r, Exception) else finish(r)
        outputs.setdefault(str(seed), {})[key] = out
    if probe is None:
        return {"run_s": run_s, "outputs": outputs}
    return {"run_s": run_s - probe.inside_s, "probe_s": probe.mean_s(), "outputs": outputs}


def trace_summary(rec: SpanRecorder) -> dict:
    name, start, end, parent, op = rec.arrays()
    spans = summarize(rec.names, name, start, end, parent, op)
    in_run = summarize(rec.names, name, start, end, parent, op, min_op=0)
    return {
        "spans": spans,
        "counts": rec.counts,
        "n_spans": len(name),
        "wrapped_self_s": sum(
            v["self_s"] for n, v in in_run.items() if not n.startswith("bench.")
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, help="JSON list of input seeds")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in json.loads(args.inputs)]

    started = time.perf_counter()
    lb = import_leakbench()
    rec = None
    if args.trace:
        rec = SpanRecorder()
        instrument(lb, rec)
        components = rec.run_op("bench.setup", -1, lambda: build(lb, args.workload, seeds))
    else:
        components = build(lb, args.workload, seeds)
    result = {"setup_s": time.perf_counter() - started}
    probe = SpeedProbe()
    result["setup_probe_s"] = (probe.sample() + probe.sample()) / 2

    if not args.setup_only:
        (OUT / "work").mkdir(parents=True, exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=OUT / "work"))
        try:
            result.update(run_pass(lb, args.workload, seeds, components, workdir, rec))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if rec is not None:
            result["trace"] = trace_summary(rec)
            rec.write(str(OUT / f"spans-{args.workload}.npz"))

    import numpy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    result["python"] = sys.version.split()[0]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
