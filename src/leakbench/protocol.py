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
import os
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace

import numpy as np

from .fitting import MODELS
from .gatesets import GateSet, NoiseAssignment, gateset_by_id
from .liouville import (
    DEFAULT_TOL,
    REQUIRED,
    Channel,
    ConfigError,
    SpaceSpec,
    _read_only,
    channel_from_dict,
    complex_entries,
    integer,
    items,
    list_of,
    mapping,
    read_fields,
    real,
    refuse,
    section,
    square_matrix,
    text,
    transfer_matrix,
    vec,
)
from .noise import RandomStream, build_noise_model, read_noise_spec
from .noise import pcg64_integers, pcg64_seeds, seated_generators

# Sub-stream tags: sequence/shot draws vs. per-step noise draws.
_SEQ_KEY = 0
_NOISE_KEY = 1

#: The parser of a length, count or number of shots: numpy holds them as int64.
_COUNT = functools.partial(integer, low=1, high=2**63 - 1)


@dataclass(frozen=True)
class SpamSpec:
    """State preparation and measurement: initial state, effect, optional channels.

    Its read-only state and effect vectors are formed when it is made.  It is
    copied and pickled by Python's defaults, as all but GateSet and NoiseAssignment
    are: a shallow copy shares its arrays; a deep copy or a pickle holds its own.
    """

    rho: np.ndarray
    effect: np.ndarray
    prep: Channel | None = None
    meas: Channel | None = None

    def __post_init__(self):
        state, effect = vec(self.rho), vec(self.effect).conj()
        if self.prep is not None:
            state = self.prep.liouville @ state
        if self.meas is not None:
            effect = effect @ self.meas.liouville
        object.__setattr__(self, "_vectors", (_read_only(state), _read_only(effect)))

    @classmethod
    @functools.cache
    def ideal(cls, space: SpaceSpec) -> "SpamSpec":
        """rho = |0><0| and effect = P_H1, with no SPAM channels: one shared,
        read-only value per space."""
        rho = np.zeros((space.d, space.d), dtype=complex)
        rho[0, 0] = 1.0
        return cls(rho=_read_only(rho), effect=space.code_projector)

    def state_vector(self) -> np.ndarray:
        """vec(rho), through the prep channel when there is one."""
        return self._vectors[0]

    def effect_vector(self) -> np.ndarray:
        """vec(effect)^*, through the meas channel when there is one."""
        return self._vectors[1]


#: The SPAM section.  Its matrices are sized, and its channels matched, to the
#: gate set's space by :func:`spam_from_dict`.
SPAM_FIELDS = {
    "rho": (complex_entries, None),
    "effect": (complex_entries, None),
    "prep": (channel_from_dict, None),
    "meas": (channel_from_dict, None),
}


def spam_from_dict(doc: dict | None, space: SpaceSpec) -> SpamSpec:
    """The SPAM section resolved against the gate set's space.

    Absent or null fields keep the ideal defaults; a malformed field, or one
    sized for another space, is a ConfigError naming its key.
    """
    if doc is None:
        return SpamSpec.ideal(space)
    given = {key: v for key, v in read_fields(doc, "spam", SPAM_FIELDS).items() if v is not None}
    for key in ("rho", "effect"):
        if key in given:
            given[key] = _spam_operator(given[key], space.d, f"spam.{key}")
    for key in ("prep", "meas"):
        if key in given and given[key].space != space:
            raise ConfigError(
                f"bad spam.{key}: acts on d1={given[key].space.d1}, d2={given[key].space.d2}, "
                f"but the gate set on d1={space.d1}, d2={space.d2}"
            )
    return replace(SpamSpec.ideal(space), **given)


def _spam_operator(entries: np.ndarray, d: int, path: str) -> np.ndarray:
    """The d x d matrix of ``entries``: Hermitian with eigenvalues in [0, 1], an
    effect, and of trace 1 as well for ``spam.rho``, a density matrix."""
    op = square_matrix(entries, d, path, "the gate set's d1 + d2")
    dev = float(np.max(np.abs(op - op.conj().T)))
    if dev > DEFAULT_TOL:
        raise ConfigError(f"bad {path}: expected a Hermitian matrix, got deviation {dev:.3e}")
    eigs, trace = np.linalg.eigvalsh(op), float(np.trace(op).real)
    if eigs[0] < -DEFAULT_TOL or eigs[-1] > 1.0 + DEFAULT_TOL:
        raise ConfigError(
            f"bad {path}: expected eigenvalues in [0, 1], got {eigs[0]:.6g} to {eigs[-1]:.6g}"
        )
    if path == "spam.rho" and abs(trace - 1.0) > DEFAULT_TOL:
        raise ConfigError(f"bad {path}: expected a density matrix of trace 1, got {trace:.6g}")
    return op


def _lengths(value, path: str) -> tuple:
    """``m_list``: a nonempty list of distinct lengths, each read by ``_COUNT``."""
    lengths = tuple(items(value, path, _COUNT))
    if len(set(lengths)) < len(lengths):
        repeated = next(m for m in lengths if lengths.count(m) > 1)
        raise ConfigError(f"bad {path}: repeats the length {repeated}")
    return lengths


#: The experiment config's top level.
EXPERIMENT_FIELDS = {
    "gateset": (text, REQUIRED),
    "m_list": (_lengths, REQUIRED),
    "n_sequences": (_COUNT, REQUIRED),
    "seed": (functools.partial(integer, low=0), REQUIRED),
    "noise": (read_noise_spec, None),
    "shots": (_COUNT, None),
    "spam": (section(SPAM_FIELDS), None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one benchmarking run.

    Every field is read through :data:`EXPERIMENT_FIELDS` when the config is
    made; ``noise`` and ``spam`` are kept as given, and read again at build.
    """

    gateset: str
    m_list: tuple
    n_sequences: int
    seed: int
    noise: dict | None = None
    shots: int | None = None
    spam: dict | None = None

    def __post_init__(self):
        values = read_fields(vars(self), "", EXPERIMENT_FIELDS)
        for key in ("m_list", "n_sequences", "seed", "shots"):
            object.__setattr__(self, key, values[key])

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            return cls(**doc)
        except TypeError:  # not an object, or a key unknown or missing: reading it says which
            read_fields(doc, "", EXPERIMENT_FIELDS)
            raise

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {**vars(self), "m_list": list(self.m_list)}

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


#: The rules of a dataset's columns, as the fields of a row: every way of making one checks them.
#: Their readers return ints and floats, so the columns are int64 and float64.
_COLUMNS = {
    "m": (_COUNT, REQUIRED),
    "mean": (functools.partial(real, low=-DEFAULT_TOL, high=1.0 + DEFAULT_TOL), REQUIRED),
    "sem": (functools.partial(real, low=0.0), REQUIRED),
    "n": (_COUNT, REQUIRED),
}
#: The attributes that hold the columns of :data:`_COLUMNS`, in its order.
_ATTRIBUTES = ("ms", "means", "sems", "counts")

#: A dataset row of decay.json or decay.csv; reproduce adds exact_mean and z.  A column's
#: entry is kept as the file holds it: the dataset reads it when it is made.
DATASET_ROW_FIELDS = {
    **dict.fromkeys(_COLUMNS, (lambda value, path: value, REQUIRED)),
    "exact_mean": (real, None),
    "z": (real, None),
}

#: The top level of decay.json.
DATASET_FIELDS = {
    "dataset": (list_of(section(DATASET_ROW_FIELDS)), REQUIRED),
    "provenance": (mapping, None),
}


def _cell(text: str):
    """A CSV cell as the JSON value its text spells (a number, true, false or
    null), or as the text itself; the dataset then reads it."""
    try:
        return json.loads(text)
    except ValueError:  # text that spells no JSON value
        return text


@dataclass(frozen=True, eq=False)
class DecayDataset:
    """Per-sequence-length survival statistics as read-only columns, plus run
    provenance.  Entry i is length ``ms[i]``: the mean survival ``means[i]`` over
    ``counts[i]`` sequences and its sem ``sems[i]``.  The files hold :meth:`rows`.

    However it is made, it reads its columns by :data:`_COLUMNS`: no rows, a
    missing, mistyped or out-of-range entry is a ConfigError such as ``bad dataset[3].m``."""

    ms: np.ndarray
    means: np.ndarray
    sems: np.ndarray
    counts: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        given = [getattr(self, name) for name in _ATTRIBUTES]
        given = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in given]
        rows = [{} for _ in range(max(map(len, given)))]  # a short column leaves keys missing
        for key, column in zip(_COLUMNS, given):
            for row, entry in zip(rows, column):
                row[key] = entry
        rows = items(rows, "dataset", section(_COLUMNS))
        for name, key in zip(_ATTRIBUTES, _COLUMNS):
            object.__setattr__(self, name, _read_only(np.array([row[key] for row in rows])))

    @classmethod
    def from_arrays(cls, ms, means, sems=None, counts=None, provenance=None):
        """The dataset of these columns, with sems 0 and counts 1 unless given."""
        sems = [0.0] * len(ms) if sems is None else sems
        counts = [1] * len(ms) if counts is None else counts
        return cls(ms, means, sems, counts, provenance or {})

    def rows(self) -> list:
        """One {m, mean, sem, n} dict of Python numbers per length: the rows of the files."""
        columns = (getattr(self, name).tolist() for name in _ATTRIBUTES)
        return [dict(zip(_COLUMNS, values)) for values in zip(*columns)]

    @classmethod
    def _from_document(cls, doc) -> "DecayDataset":
        """The dataset of a decay.json document, read through :data:`DATASET_FIELDS`."""
        doc = read_fields(doc, "", DATASET_FIELDS)
        columns = ([row[key] for row in doc["dataset"]] for key in _COLUMNS)
        return cls(*columns, provenance=doc["provenance"] or {})

    def to_csv(self, path: str):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, list(_COLUMNS))
            writer.writeheader()
            writer.writerows(self.rows())

    @classmethod
    def from_csv(cls, path: str) -> "DecayDataset":
        """Each row as the decay.json row of its cells under the header; extra cells are refused,
        and so is a file that is not CSV, such as one with a cell past the csv field limit."""
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:  # a byte-order mark or none
            reader = csv.reader(fh)
            try:
                header, *lines = [cells for cells in reader if cells] or [[]]
            except csv.Error as exc:
                raise ConfigError(f"bad CSV at line {reader.line_num}: {exc}") from exc
        for i, cells in enumerate(lines):
            if len(cells) > len(header):
                refuse(f"dataset[{i}]", f"at most {len(header)} cells, as the header has", cells)
        return cls._from_document({"dataset": [dict(zip(header, map(_cell, c))) for c in lines]})

    def to_json(self, path: str, extras=None):
        """Write the rows and the provenance; ``extras`` holds one dict of further
        fields per row, merged into it."""
        rows = self.rows() if extras is None else [{**r, **e} for r, e in zip(self.rows(), extras)]
        _write_json(path, {"dataset": rows, "provenance": self.provenance})

    @classmethod
    def from_json(cls, path: str) -> "DecayDataset":
        with open(path, "r", encoding="utf-8") as fh:
            return cls._from_document(json.load(fh))


# ---------------------------------------------------------------------------
# Sequence execution
# ---------------------------------------------------------------------------


def _experiment_components(cfg: ExperimentConfig):
    """(gate set, noise, SPAM, noise seed) of ``cfg``: the noise seed is the noise's
    own "seed" param, or else the config's seed."""
    try:
        gs = gateset_by_id(cfg.gateset)
    except (OSError, ValueError) as exc:
        if not cfg.gateset.endswith(".json"):  # an unknown gate-set name
            raise
        raise ConfigError(f"cannot load gateset {cfg.gateset!r}: {exc}") from exc
    seed = read_noise_spec(cfg.noise)[1].get("seed")
    noise_seed = cfg.seed if seed is None else seed
    noise = build_noise_model(cfg.noise, gs, RandomStream(noise_seed))
    return gs, noise, spam_from_dict(cfg.spam, gs.space), noise_seed


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
    steps = gateset.gate_liouvilles if noise is None else noise.exact_model(gateset).steps
    table, offsets = _word_table(steps, _CHUNK_ENTRIES)
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


def _memory_limit() -> float:
    """The bytes this process can hold: physical memory, or the address-space limit when lower."""
    limit = float("inf")
    with suppress(AttributeError, ValueError, OSError):  # no sysconf, as on Windows
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    with suppress(ImportError):
        import resource

        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            limit = min(limit, soft)
    return limit


def _shard_bytes(cfg: ExperimentConfig, ms, gs: GateSet, noise) -> int:
    """The bytes that :func:`_lengths_probabilities` of the lengths ``ms`` holds at its peak.

    With per-step normals: every gate and noise stream's seeds (32 B) and
    probability, one length's int64 gate indices, normals and end states with
    shots (48 B a row), and in :func:`_evolve_columns` the two work arrays and
    the kernel's temporaries for each draw of a chunk, and per row at most d
    evolving columns, their d^3 products and sums.  Without them every row is
    held at once: its gate indices, stream seeds and end states with shots,
    and in :func:`run_sequences` its complex state and einsum output, its
    probability, eight int64 of bookkeeping (its length, negated, steps left,
    word and a masked block of at most four gates) and the step matrix it
    gathers from the word table, which is held too.
    """
    n, longest, shots, d = cfg.n_sequences, max(ms), 48 * (cfg.shots is not None), gs.space.d
    d2 = d**2
    if noise is not None and noise.stochastic:
        sampler, chunk = noise.sampler, n * min(max(1, _CHUNK_SAMPLES // n), longest)
        held = 8 * n * longest * (1 + sampler.n_normals) + n * (72 * len(ms) + shots)
        return held + chunk * (32 * d2 + sampler.kernel_bytes) + 16 * n * d2 * (d + 2)
    row = 8 * longest + 32 + shots + 32 * d2 + 16 + 64 + 16 * d2**2
    return n * len(ms) * row + 16 * max(_CHUNK_ENTRIES, len(gs) * d2**2)


def _check_memory(needed: int):
    """Refuse a run whose arrays take ``needed`` bytes, more than :func:`_memory_limit`."""
    if needed > (limit := _memory_limit()):
        raise ConfigError(
            f"bad m_list and n_sequences: their arrays take {needed / 2**30:.3g} GiB, "
            f"more than the {limit / 2**30:.3g} GiB this process can hold"
        )


def _lengths_probabilities(cfg: ExperimentConfig, ms, components, timings=None) -> dict:
    """The n_sequences probabilities at each length of ``ms``, from the streams of each (m, j).

    Sequence j at length m draws its gate indices, then its shots, from the
    stream (seed, m, j, 0), and its noise as one block of normals from
    (noise seed, m, j, 1).  The gate streams of ``ms`` are seeded in one pass,
    and so are their noise streams, as arrays of 32 B a stream.  Noise without
    per-step normals evolves every length in one batch, rows ordered longest
    first; noise with them evolves one length at a time, so that only one
    length's normals are held, each in the front of one buffer sized for the
    longest length: a fresh array per length left several MB of freed heap
    under the Monte Carlo oracle's peak.  One Generator is re-seated on each
    of that length's noise streams in turn, from its columns of the seeds, so
    no stream's state is held past its draw.  The gate indices of a batch are
    drawn in one vectorized pass (:func:`pcg64_integers`), and each sequence's
    shots continue its stream from the state that pass ends in, formed from
    its arrays when that shot is drawn.  ``components`` are those of
    :func:`_experiment_components`.  The seeding and the draws are timed as
    the ``sample`` stage of ``timings``, the evolution as ``evolve``.
    """
    gs, noise, spam, noise_seed = components
    n = cfg.n_sequences
    stochastic = noise is not None and noise.stochastic
    order = sorted(ms, reverse=True)
    with timed_stage(timings, "sample"):
        seeds = pcg64_seeds(cfg.seed, _stream_keys(order, n, _SEQ_KEY))
        if stochastic:
            noise_seeds = pcg64_seeds(noise_seed, _stream_keys(order, n, _NOISE_KEY))
    if stochastic:
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
                noise_gens = seated_generators(noise_seeds[..., rows])
                for row, m, gen in zip(normals, lengths.tolist(), noise_gens):
                    gen.standard_normal(out=row[:m])
        with timed_stage(timings, "evolve"):
            ps = run_sequences(indices, gs, noise, spam, normals, lengths)
        bad = ~((ps >= -DEFAULT_TOL) & (ps <= 1.0 + DEFAULT_TOL))
        if bad.any():
            raise ValueError(f"probability {ps[bad][0]} outside [0, 1]")
        if cfg.shots is not None:
            # The shots of each sequence continue its stream where its indices ended.
            with timed_stage(timings, "sample"):
                ps = np.clip(ps, 0.0, 1.0)
                for i, gen in enumerate(seated_generators(*shot_states)):
                    ps[i] = gen.binomial(cfg.shots, ps[i]) / cfg.shots
        probabilities.update(zip(batch, np.split(ps, len(batch))))
    return {m: probabilities[m] for m in ms}


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where that cannot be asked."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(
    cfg: ExperimentConfig, jobs: int = 1, components=None, timings: dict | None = None
) -> DecayDataset:
    """Run the full protocol described by ``cfg``.

    Sequence j at length m draws its gates (then its shots) from a stream
    derived from (seed, m, j) and its noise from a sibling stream, so results
    are reproducible under partial re-runs.  The lengths are dealt round-robin
    to min(jobs, len(m_list), usable CPUs) shards, one for a serial run, and
    more run on as many threads, with output identical to the serial run.  A
    run whose shards' arrays (:func:`_shard_bytes`), all held at once, exceed
    :func:`_memory_limit` is refused before any of them is allocated.  Every
    run reuses ``components``, the result of ``_experiment_components(cfg)``,
    when given; a serial run adds the wall seconds of its ``sample`` and
    ``evolve`` stages to ``timings``, and every run those of its ``aggregate``
    stage, the per-length means and sems.
    """
    gs, noise, spam, _ = components = components or _experiment_components(cfg)
    workers = max(1, min(jobs, len(cfg.m_list), _usable_cpus()))
    shards = [cfg.m_list[w::workers] for w in range(workers)]
    _check_memory(sum(_shard_bytes(cfg, shard, gs, noise) for shard in shards))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # here: it costs every import ~7 ms

        if noise is not None and not noise.stochastic:
            noise.exact_model(gs)  # the shards' shared steps, formed before the threads start
        run = functools.partial(_lengths_probabilities, cfg, components=components)
        with ThreadPoolExecutor(workers) as pool:
            probabilities = {m: ps for part in pool.map(run, shards) for m, ps in part.items()}
    else:
        probabilities = _lengths_probabilities(cfg, cfg.m_list, components, timings)
    with timed_stage(timings, "aggregate"):
        ps = np.stack([probabilities[m] for m in cfg.m_list])  # one row per length
        n = ps.shape[1]
        sems = ps.std(axis=1, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(len(ps))
        columns = (cfg.m_list, ps.mean(axis=1), sems, [n] * len(ps))
    from . import __version__

    provenance = {
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "tool_version": __version__,
    }
    return DecayDataset.from_arrays(*columns, provenance=provenance)


# ---------------------------------------------------------------------------
# Exact oracle and closed-form predictions
# ---------------------------------------------------------------------------


def _power_expectations(ms, step: np.ndarray, effect, state, start: int = 0) -> np.ndarray:
    """effect . step^(m - start) . state at every length m of ``ms``, from ``state`` after
    ``start`` steps: one pass over the sorted lengths applies ``step`` once per extra unit of m."""
    values, done = {}, start
    for m in sorted(set(ms)):
        if m < start:
            raise ValueError(f"sequence length must be >= {start}, got {m}")
        for _ in range(m - done):
            state = step @ state
        values[m], done = float((effect @ state).real), m
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
    effect . S^m . state for the averaged step S = mean_g S_g (:class:`ExactModel`).
    """
    spam = spam or SpamSpec.ideal(gateset.space)
    step = gateset.twirl_matrix if noise is None else noise.exact_model(gateset).mean
    return _power_expectations(m_list, step, spam.effect_vector(), spam.state_vector())


def brute_force_expectation(
    m: int,
    gateset: GateSet,
    noise: NoiseAssignment | None,
    spam: SpamSpec | None = None,
) -> float:
    """Exact sequence-averaged probability at length m: :func:`exact_expectations` at one m."""
    return float(exact_expectations((m,), gateset, noise, spam)[0])


def _twirled_ends(gateset: GateSet, channel: Channel, spam: SpamSpec | None):
    """(effect . A, A^dag L . state): the two ends of the twirled average of gate-independent
    noise ``channel``, with A :attr:`SpaceSpec.twirl_basis`, so that the twirl is A A^dag."""
    space = gateset.space
    if channel.space != space:
        raise ValueError("channel acts on a different space")
    spam, basis = spam or SpamSpec.ideal(space), space.twirl_basis
    return spam.effect_vector() @ basis, basis.conj().T @ (channel.liouville @ spam.state_vector())


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
    effect, state = _twirled_ends(gateset, channel, spam)
    decays, vecs = np.linalg.eig(transfer_matrix(channel))
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
    effect, state = _twirled_ends(gateset, channel, spam)
    lengths, block = np.asarray(m), transfer_matrix(channel)
    values = _power_expectations(lengths.ravel().tolist(), block, effect, state, start=1)
    return values.reshape(lengths.shape) if lengths.ndim else float(values[0])
