"""The randomized benchmarking engine.

Random gate sequences are sampled uniformly, executed exactly in the
Liouville representation (noise channel first, ideal gate second at every
step, no inverse gate before measurement), and aggregated per sequence
length into a decay dataset.  Because gates are drawn i.i.d. and uniformly,
the mean over all sequences of a given length is exactly the averaged step
mean_g G_g E_g applied m times; that exact mean serves as an independent
oracle for the fitted decay models.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, dataclass, field, fields, replace

import numpy as np

from .fitting import MODELS
from .gatesets import GateSet, NoiseAssignment, _step_liouvilles, gateset_by_id
from .liouville import (
    DEFAULT_TOL,
    Channel,
    SpaceSpec,
    _read_only,
    channel_from_dict,
    matrix_from_pairs,
    transfer_matrix,
    vec,
)
from .noise import NOISE_PARAMS, RandomStream, build_noise_model
from .noise import pcg64_integers, pcg64_seeds
from .noise import FilterParams, ShelvingParams

# Sub-stream tags: sequence/shot draws vs. per-step noise draws.
_SEQ_KEY = 0
_NOISE_KEY = 1


class ConfigError(ValueError):
    """Raised when an experiment configuration is malformed."""


@dataclass(frozen=True)
class SpamSpec:
    """State preparation and measurement: initial state, effect, optional channels."""

    rho: np.ndarray
    effect: np.ndarray
    prep: Channel | None = None
    meas: Channel | None = None

    @classmethod
    @functools.cache
    def ideal(cls, space: SpaceSpec) -> "SpamSpec":
        """rho = |0><0| and effect = P_H1, with no SPAM channels: one shared,
        read-only value per space."""
        rho = np.zeros((space.d, space.d), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho=_read_only(rho), effect=space.code_projector)

    def state_vector(self) -> np.ndarray:
        v = vec(self.rho)
        if self.prep is not None:
            v = self.prep.liouville @ v
        return v

    def effect_vector(self) -> np.ndarray:
        v = vec(self.effect).conj()
        if self.meas is not None:
            v = v @ self.meas.liouville
        return v


def spam_from_dict(doc: dict | None, space: SpaceSpec) -> SpamSpec:
    """The SPAM section resolved against the gate set's space.

    Absent or null fields keep the ideal defaults; a malformed field, or one
    sized for another space, is a ConfigError naming its key.
    """
    spam = SpamSpec.ideal(space)
    if doc is None:
        return spam
    parsers = {
        "rho": lambda v: _density_matrix(matrix_from_pairs(v, space.d)),
        "effect": lambda v: _effect_operator(matrix_from_pairs(v, space.d)),
        "prep": channel_from_dict,
        "meas": channel_from_dict,
    }
    given = {}
    for key, parse in parsers.items():
        if doc.get(key) is None:
            continue
        try:
            value = parse(doc[key])
        except KeyError as exc:
            raise ConfigError(f"bad spam.{key}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad spam.{key}: {exc}") from exc
        if isinstance(value, Channel) and value.space != space:
            raise ConfigError(
                f"spam.{key} acts on d1={value.space.d1}, d2={value.space.d2}, "
                f"but the gate set on d1={space.d1}, d2={space.d2}"
            )
        given[key] = value
    return replace(spam, **given)


def _hermitian_spectrum(op: np.ndarray) -> np.ndarray:
    """The eigenvalues of a finite Hermitian ``op``; a ValueError if it is not one."""
    if not np.all(np.isfinite(op)):
        raise ValueError("entries must be finite")
    dev = float(np.max(np.abs(op - op.conj().T)))
    if dev > DEFAULT_TOL:
        raise ValueError(f"not Hermitian (deviation {dev:.3e})")
    return np.linalg.eigvalsh(op)


def _density_matrix(rho: np.ndarray) -> np.ndarray:
    """``rho``, or a ValueError unless it is Hermitian, of trace 1 and positive semidefinite."""
    eigs = _hermitian_spectrum(rho)
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > DEFAULT_TOL:
        raise ValueError(f"a density matrix has trace 1, got {trace:.6g}")
    if eigs[0] < -DEFAULT_TOL:
        raise ValueError(f"a density matrix is positive semidefinite, got eigenvalue {eigs[0]:.3e}")
    return rho


def _effect_operator(effect: np.ndarray) -> np.ndarray:
    """``effect``, or a ValueError unless it is Hermitian with eigenvalues in [0, 1]."""
    eigs = _hermitian_spectrum(effect)
    if eigs[0] < -DEFAULT_TOL or eigs[-1] > 1.0 + DEFAULT_TOL:
        raise ValueError(f"an effect has eigenvalues in [0, 1], got {eigs[0]:.6g} to {eigs[-1]:.6g}")
    return effect


def _integer(key: str, value) -> int:
    """``value`` as an int; a ConfigError naming ``key`` unless it is an integral number.

    A bool or a string is not a number here, though Python would convert it.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{key} must hold integers, got {value!r}")


def _reject_unknown(doc, known, what: str):
    """A ConfigError naming the first key of the mapping ``doc`` that is not in ``known``."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be an object, got {type(doc).__name__}")
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown {what} key {key!r}")


def _check_noise_values(params: dict):
    """A ConfigError naming the first noise param whose value its noise model refuses."""
    key = "seed"
    try:
        if "seed" in params and _integer("noise.params.seed", params["seed"]) < 0:
            raise ValueError(f"must be >= 0, got {params['seed']!r}")
        for key in ("phi", "sigma_gamma"):
            if key in params:
                ShelvingParams(**{key: float(params[key])})
        key = "gates"
        for i, gate in enumerate(params.get("gates", ())):
            _reject_unknown(gate, ("p", "r"), f"noise.params.gates[{i}]")
            key = f"gates[{i}].p"
            FilterParams(p=float(gate["p"]), bloch=(0.0, 0.0, 1.0))
            key = f"gates[{i}].r"
            FilterParams(p=0.0, bloch=tuple(float(x) for x in gate["r"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad noise.params.{key}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmarking run."""

    gateset: str
    m_list: tuple
    n_sequences: int
    seed: int
    noise: dict | None = None
    shots: int | None = None
    spam: dict | None = None

    def __post_init__(self):
        if not isinstance(self.gateset, str):
            raise ConfigError(f"gateset must be a string, got {self.gateset!r}")
        if not isinstance(self.m_list, (list, tuple)):
            raise ConfigError(f"m_list must be a list of integers, got {self.m_list!r}")
        m_list = tuple(_integer("m_list", m) for m in self.m_list)
        if not m_list or min(m_list) < 1:
            raise ConfigError("m_list must be nonempty with all lengths >= 1")
        if len(set(m_list)) < len(m_list):
            repeated = next(m for m in m_list if m_list.count(m) > 1)
            raise ConfigError(f"m_list repeats the length {repeated}")
        object.__setattr__(self, "m_list", m_list)
        for key in ("n_sequences", "seed", "shots"):
            if key != "shots" or self.shots is not None:  # only shots may be null
                object.__setattr__(self, key, _integer(key, getattr(self, key)))
        if self.n_sequences < 1:
            raise ConfigError("n_sequences must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1 when given")
        limit = int(np.iinfo(np.int64).max)  # numpy holds lengths, counts and shots as int64
        largest = {"m_list": max(m_list), "n_sequences": self.n_sequences, "shots": self.shots}
        for key, value in largest.items():
            if value is not None and value > limit:
                raise ConfigError(f"{key} must hold integers <= {limit}, got {value}")
        if self.noise is not None:
            _reject_unknown(self.noise, ("id", "params"), "noise")
            model_id = "none" if self.noise.get("id") is None else self.noise["id"]
            if not isinstance(model_id, str) or model_id not in NOISE_PARAMS:
                raise ConfigError(f"unknown noise model {model_id!r}")
            params = self.noise.get("params") or {}
            _reject_unknown(params, NOISE_PARAMS[model_id], f"{model_id} noise param")
            _check_noise_values(params)
        if self.spam is not None:
            _reject_unknown(self.spam, ("rho", "effect", "prep", "meas"), "spam")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _reject_unknown(doc, {f.name for f in fields(cls)}, "config")
        try:
            return cls(**doc)
        except TypeError as exc:  # a missing key, or an m_list that is not iterable
            raise ConfigError(f"bad experiment config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {**asdict(self), "m_list": list(self.m_list)}

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_json(path, doc):
    """Write ``doc`` to ``path`` as JSON: indented, keys sorted, newline-terminated.

    The text is built first and written in one call: ``json.dump`` writes
    each token on its own.
    """
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class DecayPoint:
    m: int
    mean: float
    sem: float
    n: int

    @classmethod
    def from_row(cls, row) -> "DecayPoint":
        """The point of a mapping with keys m, mean, sem and n, such as a CSV or JSON row."""
        return cls(m=int(row["m"]), mean=float(row["mean"]), sem=float(row["sem"]), n=int(row["n"]))


@dataclass
class DecayDataset:
    """Per-sequence-length survival statistics plus run provenance."""

    points: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def ms(self) -> np.ndarray:
        return np.array([p.m for p in self.points], dtype=float)

    @property
    def means(self) -> np.ndarray:
        return np.array([p.mean for p in self.points], dtype=float)

    @property
    def sems(self) -> np.ndarray:
        return np.array([p.sem for p in self.points], dtype=float)

    @property
    def counts(self) -> np.ndarray:
        return np.array([p.n for p in self.points], dtype=int)

    @classmethod
    def from_arrays(cls, ms, means, sems=None, counts=None, provenance=None):
        ms = list(ms)
        sems = [0.0] * len(ms) if sems is None else list(sems)
        counts = [1] * len(ms) if counts is None else list(counts)
        points = tuple(
            DecayPoint.from_row({"m": m, "mean": mu, "sem": s, "n": n})
            for m, mu, s, n in zip(ms, means, sems, counts)
        )
        return cls(points=points, provenance=provenance or {})

    def to_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(DecayPoint)])
            writer.writerows(astuple(p) for p in self.points)

    @classmethod
    def from_csv(cls, path: str) -> "DecayDataset":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return cls(points=tuple(map(DecayPoint.from_row, csv.DictReader(fh))))

    def to_json(self, path: str, extras=None):
        """Write the points and the provenance; ``extras`` holds one dict of further
        fields per point, merged into its row."""
        extras = [{}] * len(self.points) if extras is None else extras
        doc = {
            "dataset": [{**asdict(p), **extra} for p, extra in zip(self.points, extras)],
            "provenance": self.provenance,
        }
        _write_json(path, doc)

    @classmethod
    def from_json(cls, path: str) -> "DecayDataset":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        points = tuple(map(DecayPoint.from_row, doc["dataset"]))
        return cls(points=points, provenance=doc.get("provenance", {}))


# ---------------------------------------------------------------------------
# Sequence execution
# ---------------------------------------------------------------------------


def _experiment_components(cfg: ExperimentConfig):
    try:
        gs = gateset_by_id(cfg.gateset)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        if not cfg.gateset.endswith(".json"):  # an unknown gate-set name
            raise
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"cannot load gateset {cfg.gateset!r}: {detail}") from exc
    params = (cfg.noise or {}).get("params") or {}
    noise_root = RandomStream(int(params.get("seed", cfg.seed)))
    try:
        noise = build_noise_model(cfg.noise, gs, noise_root)
    except ValueError as exc:  # a noise model that does not fit the gate set
        raise ConfigError(f"bad noise: {exc}") from exc
    return gs, noise, spam_from_dict(cfg.spam, gs.space), noise_root


#: Matrix entries of the word table of fixed noise (128 KiB of complex): its
#: words are as long as this bound allows, except that the |G| one-gate words
#: are always held.
_CHUNK_ENTRIES = 1 << 13

#: Unitaries drawn per chunk of steps of stochastic noise, in one kernel call
#: (64 KiB per complex entry row).
_CHUNK_SAMPLES = 1 << 12


def _chunks(lengths: np.ndarray, budget: int):
    """(k, t, stop) for each chunk of steps t..stop-1, evolved by the k rows longer than t.

    A chunk holds about ``budget`` row-steps, at least one step, and ends
    where the shortest of its rows does.
    """
    negated, last = -lengths, lengths.tolist()
    t = 0
    while t < last[0]:
        k = int(np.searchsorted(negated, -t))
        stop = min(t + max(1, budget // k), last[k - 1])
        yield k, t, stop
        t = stop


def run_sequences(
    indices,
    gateset: GateSet,
    noise: NoiseAssignment | None,
    spam: SpamSpec | None = None,
    normals: np.ndarray | None = None,
    lengths=None,
) -> np.ndarray:
    """Exact survival probabilities of N gate sequences, of equal or different lengths.

    Each step applies the error channel for the sampled gate and then the
    ideal gate, and a probability is the Born pairing of the (possibly
    SPAM-corrupted) effect row with the evolved state.  ``indices`` is
    (N, M); row i holds sequence i in its first ``lengths[i]`` entries (all
    M by default) and padding after them, which is never read.  ``lengths``
    must be non-increasing, so the rows longer than step t are a prefix of
    the batch, found by binary search.  Fixed noise is evolved K steps at a
    time from a table of the products of every word of 1..K step matrices
    G_g E_g (:func:`_word_table`): one gather and one product per block of
    steps t = 0, K, 2K, ... on the (N, d^2) stacked states, where a row that
    ends inside a block takes the word of its remaining gates.  Every row is
    cut into the same blocks, whatever else is in the batch, so a row's
    probability depends on its own gates only.  Stochastic noise is evolved
    by :func:`_evolve_columns`.
    """
    if noise is not None and noise.space != gateset.space:
        raise ValueError("noise assignment acts on a different space")
    indices = np.asarray(indices, dtype=np.intp)
    n, m = indices.shape
    lengths = np.full(n, m) if lengths is None else np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,) or np.any(np.diff(lengths) > 0):
        raise ValueError("lengths must hold one non-increasing length per row")
    if lengths[-1] < 0 or lengths[0] > m:
        raise ValueError(f"lengths must lie in [0, {m}]")
    if indices.size and not 0 <= indices.min() <= indices.max() < len(gateset):
        # Some entry is out of range, perhaps only in the padding: check the used ones.
        for k, t, stop in _chunks(lengths, n * m):
            used = indices[:k, t:stop]
            if used.min() < 0 or used.max() >= len(gateset):
                raise ValueError(f"gate index out of range [0, {len(gateset)})")
    if spam is None:
        spam = SpamSpec.ideal(gateset.space)
    if noise is not None and noise.stochastic:
        if normals is None:
            raise ValueError("stochastic noise needs per-step normals")
        return _evolve_columns(indices, lengths, gateset, noise.sampler, spam, normals)
    table, offsets = _word_table(_step_liouvilles(gateset, noise), _CHUNK_ENTRIES)
    width = len(offsets) - 1
    digits, negated = len(gateset) ** np.arange(width), -lengths
    states = np.tile(spam.state_vector(), (n, 1))
    for t in range(0, lengths[0], width):
        k = int(np.searchsorted(negated, -t))  # the rows longer than t
        left = np.minimum(lengths[:k] - t, width)
        block = indices[:k, t:t + width]
        if left[-1] < block.shape[1]:  # some rows end inside the block: mask their padding
            block = np.where(np.arange(block.shape[1]) < left[:, None], block, 0)
        words = offsets[left - 1] + block @ digits[: block.shape[1]]
        states[:k] = np.einsum("nij,nj->ni", table[words], states[:k])
    return np.real(states @ spam.effect_vector())


def _word_table(steps: np.ndarray, budget: int):
    """(table, offsets): the products of every word of 1..K of the |G| step matrices ``steps``.

    The word g_0 g_1 ... g_(j-1), with g_0 applied first, is the product
    steps[g_(j-1)] ... steps[g_0], at row offsets[j - 1] + sum_i g_i |G|^i of the
    table.  K is the longest word for which the whole table holds at most
    ``budget`` matrix entries, and at least 1.
    """
    count, dim = steps.shape[:2]
    words = [steps]
    while sum(map(len, words)) + count ** (len(words) + 1) <= budget // dim**2:
        words.append((steps[:, None] @ words[-1][None]).reshape(-1, dim, dim))
    offsets = np.cumsum([0] + [len(w) for w in words])
    return np.concatenate(words), offsets


def _evolve_columns(indices, lengths, gateset: GateSet, sampler, spam: SpamSpec, normals):
    """Survival probabilities under noise drawn afresh at every step from ``normals`` (N, M, .).

    Every step S = G_g U is unitary, so a sequence is one unitary V and its
    state V rho V^dag = C rho_s C^dag, where s holds the rows and columns in
    which the prepared rho is nonzero (one for ideal SPAM), rho_s = rho[s, s]
    and C = V[:, s].  Only C evolves.  Each chunk's normals go to the
    sampler's kernel in one call, ``entries(normals, out)``, which writes U's
    entries (d^2, T, k) in step-major order into ``out`` and returns it.  At
    each step U and then the gathered G_g act on C, each as one broadcast
    product summed over its d columns: 2 d^2 |s| multiplications per row,
    never more than the d^3 + d^2 |s| of forming S first.  U's entries and
    the gathered gates of every chunk are views of two work arrays allocated
    once, sized for the largest chunk.
    """
    d = gateset.space.d
    rho = spam.state_vector().reshape(d, d)
    support = np.flatnonzero(np.any(rho != 0, axis=0) | np.any(rho != 0, axis=1))
    gates = np.moveaxis(gateset.gates, 0, -1)  # (d, d, |G|)
    columns = np.zeros((d, len(support), len(indices)), dtype=complex)
    columns[support, np.arange(len(support))] = 1.0
    chunks = list(_chunks(lengths, _CHUNK_SAMPLES))
    size = max((k * (stop - t) for k, t, stop in chunks), default=0)
    unitary_work, gate_work = np.empty((2, d * d * size), dtype=complex)
    for k, t, stop in chunks:
        chunk = indices[:k, t:stop].T
        count, shape = d * d * chunk.size, (d, d) + chunk.shape
        out = unitary_work[:count].reshape((d * d,) + chunk.shape)
        unitaries = sampler.entries(normals[:k, t:stop].swapaxes(0, 1), out).reshape(shape)
        # run_sequences checked the indices, so "clip" skips take's buffered bounds check.
        picked = gates.take(chunk, axis=2, out=gate_work[:count].reshape(shape), mode="clip")
        evolving = columns[..., :k]
        for gate, unitary in zip(np.moveaxis(picked, 2, 0), np.moveaxis(unitaries, 2, 0)):
            for factor in (unitary, gate):
                evolving[...] = (factor[:, :, None] * evolving).sum(axis=1)
    weighted = np.einsum("ab,iak->ibk", rho[np.ix_(support, support)], columns)
    effect = spam.effect_vector().reshape(d, d)
    return np.real(np.einsum("ij,ibk,jbk->k", effect, weighted, columns.conj()))


def _stream_keys(ms, n: int, tag: int) -> np.ndarray:
    """The sub-stream keys (m, j, tag) of sequences j < n at each length of ``ms``, length-major."""
    keys = np.empty((len(ms), n, 3), dtype=np.uint64)
    keys[..., 0] = np.asarray(ms, dtype=np.uint64)[:, None]
    keys[..., 1] = np.arange(n, dtype=np.uint64)
    keys[..., 2] = tag
    return keys.reshape(-1, 3)


@contextmanager
def timed_stage(timings: dict | None, name: str):
    """Add the wall seconds of the block to ``timings[name]``, unless ``timings`` is None."""
    started = time.monotonic()
    try:
        yield
    finally:
        if timings is not None:
            timings[name] = timings.get(name, 0.0) + time.monotonic() - started


def _lengths_probabilities(cfg: ExperimentConfig, ms, components=None, timings=None) -> dict:
    """The n_sequences probabilities at each length of ``ms``, from the streams of each (m, j).

    Sequence j at length m draws its gate indices, then its shots, from the
    stream (seed, m, j, 0), and its noise as one block of normals from
    (noise seed, m, j, 1); every sub-stream of ``ms`` is seeded in one pass.
    Noise without per-step normals evolves every length in one batch, rows
    ordered longest first; noise with them evolves one length at a time, so
    that only one length's normals are held, each in the front of one buffer
    sized for the longest length: a fresh array per length left several MB
    of freed heap under the Monte Carlo oracle's peak.  The gate indices of a
    batch are drawn in one vectorized pass (:func:`pcg64_integers`), and each
    sequence's shots continue its stream from the state that pass ends in.
    The seeding and the draws are timed as the ``sample`` stage of
    ``timings``, the evolution as ``evolve``.
    """
    gs, noise, spam, noise_root = components or _experiment_components(cfg)
    n = cfg.n_sequences
    stochastic = noise is not None and noise.stochastic
    order = sorted(ms, reverse=True)
    with timed_stage(timings, "sample"):
        seeds = pcg64_seeds(cfg.seed, _stream_keys(order, n, _SEQ_KEY))
    if stochastic:
        noise_gens = noise_root.child_generators(_stream_keys(order, n, _NOISE_KEY))
        buffer = np.empty(n * order[0] * noise.sampler.n_normals)
    probabilities, start = {}, 0
    for batch in [[m] for m in order] if stochastic else [order]:
        lengths = np.repeat(batch, n)
        rows = slice(start, start + len(lengths))
        start = rows.stop
        with timed_stage(timings, "sample"):
            indices, shot_states = pcg64_integers(
                seeds[..., rows], len(gs), lengths, states=cfg.shots is not None
            )
            normals = None
            if stochastic:
                normals = buffer[: indices.size * noise.sampler.n_normals]
                normals = normals.reshape(indices.shape + (-1,))
                for row, m in zip(normals, lengths.tolist()):
                    next(noise_gens).standard_normal(out=row[:m])
        with timed_stage(timings, "evolve"):
            ps = run_sequences(indices, gs, noise, spam, normals, lengths)
        bad = ~((ps >= -DEFAULT_TOL) & (ps <= 1.0 + DEFAULT_TOL))
        if bad.any():
            raise ValueError(f"probability {ps[bad][0]} outside [0, 1]")
        if cfg.shots is not None:
            # The shots of each sequence continue its stream where its indices ended.
            with timed_stage(timings, "sample"):
                ps = np.clip(ps, 0.0, 1.0)
                shot_gen = np.random.Generator(np.random.PCG64(0))
                for i, state in enumerate(shot_states):
                    shot_gen.bit_generator.state = state
                    ps[i] = shot_gen.binomial(cfg.shots, ps[i]) / cfg.shots
        probabilities.update(zip(batch, np.split(ps, len(batch))))
    return {m: probabilities[m] for m in ms}


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, components=None, timings: dict | None = None
) -> DecayDataset:
    """Run the full protocol described by ``cfg``.

    Sequence j at length m draws its gates (then its shots) from a stream
    derived from (seed, m, j) and its noise from a sibling stream, so results
    are reproducible under partial re-runs.  With ``jobs`` > 1 the lengths are
    dealt round-robin to min(jobs, len(m_list), cpu count) processes, with
    output identical to the serial run.  A serial run reuses ``components``, the
    result of ``_experiment_components(cfg)``, when given, and adds the wall
    seconds of its ``sample`` and ``evolve`` stages to ``timings``; every run
    adds those of its ``aggregate`` stage, the per-length means and sems.
    """
    workers = min(jobs, len(cfg.m_list), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: the process pool costs every import of the package ~12 ms.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        shards = [cfg.m_list[w::workers] for w in range(workers)]
        context = multiprocessing.get_context("spawn")
        probabilities = {}
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            for part in pool.map(_lengths_probabilities, [cfg] * workers, shards):
                probabilities.update(part)
    else:
        probabilities = _lengths_probabilities(cfg, cfg.m_list, components, timings)
    points = []
    with timed_stage(timings, "aggregate"):
        for m in cfg.m_list:
            ps = probabilities[m]
            sem = float(ps.std(ddof=1) / np.sqrt(len(ps))) if len(ps) > 1 else 0.0
            points.append(DecayPoint(m=m, mean=float(ps.mean()), sem=sem, n=len(ps)))
    from . import __version__

    provenance = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
    }
    return DecayDataset(points=tuple(points), provenance=provenance)


# ---------------------------------------------------------------------------
# Exact oracle and closed-form predictions
# ---------------------------------------------------------------------------


def _power_expectations(ms, step: np.ndarray, effect, state, start: int = 0) -> np.ndarray:
    """effect . step^(m - start) . state at every length m of ``ms``.

    ``state`` is the vector after ``start`` steps.  One pass over the sorted
    lengths applies ``step`` once per extra unit of m.
    """
    values, done = {}, start
    for m in sorted(set(ms)):
        if m < start:
            raise ValueError(f"sequence length must be >= {start}, got {m}")
        for _ in range(m - done):
            state = step @ state
        values[m], done = float(np.real(effect @ state)), m
    return np.array([values[m] for m in ms])


def exact_expectations(
    m_list,
    gateset: GateSet,
    noise: NoiseAssignment | None,
    spam: SpamSpec | None = None,
) -> np.ndarray:
    """Exact sequence-averaged probability at every length in ``m_list``.

    Gates are drawn i.i.d. and uniformly, so the mean over all |G|^m sequences
    of effect . S_{g_m} ... S_{g_1} . state, with step S_g = G_g E_g, is
    effect . S^m . state for the averaged step S = mean_g S_g.
    """
    if noise is not None and noise.stochastic:
        raise ValueError("the exact average needs a deterministic noise assignment")
    if spam is None:
        spam = SpamSpec.ideal(gateset.space)
    step = _step_liouvilles(gateset, noise).mean(axis=0)
    return _power_expectations(m_list, step, spam.effect_vector(), spam.state_vector())


def brute_force_expectation(
    m: int,
    gateset: GateSet,
    noise: NoiseAssignment | None,
    spam: SpamSpec | None = None,
) -> float:
    """Exact sequence-averaged probability at length m: :func:`exact_expectations` at one m."""
    return float(exact_expectations((m,), gateset, noise, spam)[0])


def _transfer_frame(gateset: GateSet, channel: Channel, spam: SpamSpec | None):
    """(effect . A, B, A^dag L . state) of gate-independent noise ``channel``.

    A is :attr:`SpaceSpec.twirl_basis` and B the transfer block
    (:func:`transfer_matrix`).  The twirl is A A^dag, so the sequence average
    at length m is effect . A B^(m-1) A^dag L . state.
    """
    space = gateset.space
    if channel.space != space:
        raise ValueError("channel acts on a different space")
    if spam is None:
        spam = SpamSpec.ideal(space)
    basis = space.twirl_basis
    state = basis.conj().T @ (channel.liouville @ spam.state_vector())
    return spam.effect_vector() @ basis, transfer_matrix(channel), state


#: The largest eigenvector condition number :func:`decay_parameters` accepts.
_MAX_CONDITION = 1.0 / np.sqrt(np.finfo(float).eps)


def decay_parameters(gateset: GateSet, channel: Channel, spam: SpamSpec | None = None) -> dict:
    """Closed-form decay constants for gate-independent noise, largest decay first.

    The decays are the eigenvalues of the transfer block B, and with
    B = V diag(decays) V^-1 the expectation at length m is
    sum_k amplitude_k decay_k^(m-1), amplitude_k = (effect . A V)_k (V^-1 A^dag L . state)_k.
    The parameters are named as those of the single-exp fit without a leakage
    subspace, and of the double-exp fit with one.  A block that is not
    diagonalizable has a term m decay^(m-2) that no sum of exponentials
    holds; it is a ValueError, found by the condition number of V: past
    1/sqrt(eps), the amplitudes keep less than half of their digits.
    """
    effect, block, state = _transfer_frame(gateset, channel, spam)
    decays, vecs = np.linalg.eig(block)
    condition = np.linalg.cond(vecs)
    if not condition <= _MAX_CONDITION:
        raise ValueError(
            f"the transfer block is not diagonalizable (eigenvector condition number "
            f"{condition:.3g}), so its expectation is no sum of exponentials"
        )
    order = np.argsort(-decays.real, kind="stable")
    decays, vecs = decays[order], vecs[:, order]
    amplitudes = (effect @ vecs) * np.linalg.solve(vecs, state)
    model = MODELS["single-exp" if len(decays) == 1 else "double-exp"]
    return dict(zip(model.param_names, np.concatenate([amplitudes, decays]).real.tolist()))


def predicted_expectation(
    m: int | np.ndarray, gateset: GateSet, channel: Channel, spam: SpamSpec | None = None
) -> float | np.ndarray:
    """The twirled sequence average of gate-independent noise at length m >= 1, or at
    each of an array of them: effect . A B^(m-1) A^dag L . state (see :func:`decay_parameters`)."""
    effect, block, state = _transfer_frame(gateset, channel, spam)
    lengths = np.asarray(m)
    values = _power_expectations(lengths.ravel().tolist(), block, effect, state, start=1)
    return values.reshape(lengths.shape) if lengths.ndim else float(values[0])
