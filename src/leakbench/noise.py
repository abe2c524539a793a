"""Leakage noise models and reproducible random sampling.

Two models are implemented.  "filter" weakly absorbs the component of a
qubit state orthogonal to a random Bloch direction (incoherent loss from the
full space).  "shelving" composes imperfect shelving/unshelving pulses on a
qutrit with small coherent errors on the code space (coherent leakage into
the auxiliary level); every application draws fresh pulse-angle and
code-rotation errors.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .gatesets import GateSet, NoiseAssignment, PAULI_X, PAULI_Y, PAULI_Z
from .liouville import (
    REQUIRED,
    Channel,
    ConfigError,
    SpaceSpec,
    integer,
    items,
    list_of,
    mapping,
    read_fields,
    real,
    refuse,
    section,
)

QUBIT = SpaceSpec(d1=2, d2=0)
QUTRIT = SpaceSpec(d1=2, d2=1)


@dataclass(frozen=True)
class RandomStream:
    """Specification of a deterministic PCG64 random stream.

    The same (seed, key) pair always yields the same deviate sequence, across
    runs and platforms.  ``child`` derives independent sub-streams for
    workers or per-sequence use.
    """

    seed: int
    key: tuple = ()

    def __post_init__(self):
        _seed_entropy(self.seed)  # SeedSequence would draw OS entropy for a seed of None

    def generator(self) -> np.random.Generator:
        """A fresh stateful generator positioned at the start of the stream."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        return np.random.Generator(np.random.PCG64(seq))

    def child(self, *key: int) -> "RandomStream":
        return RandomStream(self.seed, self.key + tuple(key))


# numpy's SeedSequence pool hash and PCG64 seeding, whose streams NEP 19 keeps
# stable (constants from numpy/random/bit_generator.pyx and pcg64.h).  A
# 128-bit value is held as its high and low uint64 halves on the first axis
# of an array; uint64 arithmetic wraps mod 2^64.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1


def _halves(values) -> np.ndarray:
    """Ints in [0, 2^128) as halves (2, len(values))."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=np.uint64)


def _ints(halves: np.ndarray) -> list:
    """The Python ints of halves (2, k)."""
    return [high << 64 | low for high, low in zip(halves[0].tolist(), halves[1].tolist())]


def _add128(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b mod 2^128."""
    low = a[1] + b[1]
    return np.stack([a[0] + b[0] + (low < b[1]), low])


def _mul128(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b mod 2^128: the low halves' full product, from 32-bit pieces, plus the cross terms."""
    x0, x1, y0, y1 = a[1] & _MASK32, a[1] >> 32, b[1] & _MASK32, b[1] >> 32
    p01, p10 = x0 * y1, x1 * y0
    mid = (x0 * y0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    high = x1 * y1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + a[0] * b[1] + a[1] * b[0]
    return np.stack([high, a[1] * b[1]])


def _uint32_words(value: int) -> list:
    """A non-negative int as little-endian 32-bit words, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(entropy: list, k: int) -> np.ndarray:
    """``SeedSequence(...).generate_state(8)`` (8, k) for the entropy words ``entropy``, each a
    uint32 scalar that every row shares, hashed once, or (k,) uint32, one vectorized per row."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> 16)

    with np.errstate(over="ignore"):  # uint32 scalars wrap, as arrays do, without a warning
        pool = [hashmix(word) for word in (entropy + [np.uint32(0)] * _POOL_SIZE)[:_POOL_SIZE]]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const, words = _INIT_B, np.empty((8, k), dtype=np.uint64)
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = value * hash_const
            words[i] = value ^ (value >> 16)
    return words


def _seed_entropy(seed) -> int:
    """``seed`` as an int if SeedSequence takes it, else the ValueError or TypeError it raises."""
    if operator.index(seed) < 0:
        raise ValueError(f"expected non-negative integer, got seed {seed}")
    return int(seed)


def pcg64_seeds(seed: int, keys) -> np.ndarray:
    """Halves (2, 2, k) of the state and increment of ``PCG64(SeedSequence(seed, spawn_key=key))``
    for every row of ``keys``.

    ``keys`` is (k, L) with components in [0, 2^64).  SeedSequence's entropy
    is the seed's 32-bit words, zero-padded to the pool size when there is a
    spawn key, then each key component's words; rows whose components split
    into the same number of words are hashed together in one pass.  A seed
    that SeedSequence refuses, negative or not an integer, is refused alike.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.ndim != 2:
        raise ValueError("keys must be a (k, L) array")
    head = _uint32_words(_seed_entropy(seed))
    if keys.shape[1]:
        head += [0] * (_POOL_SIZE - len(head))
    head = [np.uint32(word) for word in head]
    wide = keys > _MASK32
    groups = [(np.zeros(keys.shape[1], dtype=bool), slice(None))]
    if wide.any():
        layouts, group = np.unique(wide, axis=0, return_inverse=True)
        groups = [(layout, np.flatnonzero(group == g)) for g, layout in enumerate(layouts)]
    words = np.empty((8, len(keys)), dtype=np.uint64)
    for layout, rows in groups:
        sub, tail = keys[rows], []
        for col, two_words in enumerate(layout):
            tail.append((sub[:, col] & _MASK32).astype(np.uint32))
            if two_words:
                tail.append((sub[:, col] >> 32).astype(np.uint32))
        words[:, rows] = _seed_words(head + tail, len(sub))
    # generate_state(4, uint64) is initstate's high and low half, then initseq's;
    # pcg_setseq_128_srandom_r: inc = 2 initseq + 1, a step, += initstate, a step.
    halves = words[0::2] | words[1::2] << 32
    inc = np.stack([halves[2] << 1 | halves[3] >> 63, halves[3] << 1 | 1])
    state = _add128(_mul128(_add128(inc, halves[:2]), _halves([_PCG64_MULT])), inc)
    return np.stack([state, inc], axis=1)


def seated_generators(seeds: np.ndarray, has_uint32=0, uinteger=0):
    """Yield one Generator, seated in turn on the PCG64 state of each column of ``seeds``
    (2, 2, k) with its buffered 32-bit word, if any; valid until the next one is taken.

    Each state is formed when it is taken, from Python ints converted
    ``_DRAW_CHUNK`` columns at a time, so no list of every column's state is held.
    """
    k = seeds.shape[-1]
    has_uint32, uinteger = np.broadcast_to(has_uint32, k), np.broadcast_to(uinteger, k)
    gen = np.random.Generator(np.random.PCG64(0))
    for lo in range(0, k, _DRAW_CHUNK):
        cols = slice(lo, lo + _DRAW_CHUNK)
        buffered = zip(has_uint32[cols].tolist(), uinteger[cols].tolist())
        for s, c, (h, u) in zip(_ints(seeds[:, 0, cols]), _ints(seeds[:, 1, cols]), buffered):
            state = {"state": s, "inc": c}
            gen.bit_generator.state = {"bit_generator": "PCG64", "state": state,
                                       "has_uint32": h, "uinteger": u}
            yield gen


@functools.lru_cache(maxsize=None)
def _jump_tables(n: int) -> np.ndarray:
    """Halves (2, 2, n) of MULT^k and sum_{i<k} MULT^i mod 2^128 for k = 1..n, n a power of 2.

    k steps of ``state = MULT state + inc`` take s to MULT^k s + (sum_{i<k}
    MULT^i) inc.  Each doubling appends k + h for k = 1..h, as MULT^h MULT^k
    and sum_{i<h} MULT^i + MULT^h sum_{i<k} MULT^i.
    """
    tables = np.stack([_halves([_PCG64_MULT]), _halves([1])], axis=1)
    while tables.shape[2] < n:
        last = tables[:, :, -1:]
        block = _mul128(tables, last[:, :1])
        block[:, 1] = _add128(block[:, 1], last[:, 1])
        tables = np.concatenate([tables, block], axis=2)
    tables.flags.writeable = False  # shared by every caller through the cache
    return tables


#: 64-bit outputs per chunk of rows in :func:`pcg64_integers` (16 KiB per
#: uint64 array): the chunk bounds the working memory, whatever n and m are.
_DRAW_CHUNK = 1 << 11


def pcg64_integers(seeds: np.ndarray, high: int, lengths, states: bool = False):
    """``Generator(PCG64).integers(0, high, size=lengths[i])`` from each seeding ``seeds[..., i]``.

    With ``seeds`` from :func:`pcg64_seeds`, row i is bit for bit the draw of
    ``RandomStream(seed).child(*keys[i]).generator()``.  A stream's k-th
    64-bit output is the XSL-RR output of its state k steps on, taken from
    the jump tables for every row and k at once, a chunk of about
    ``_DRAW_CHUNK`` outputs at a time.  As in numpy, each output gives two
    32-bit words, low half first, and a word x draws (x high) >> 32 (Lemire's
    method) unless the low half of x high is below (2^32 - high) mod high;
    high = 1 draws nothing.  A row with such a rejection, possible only when
    high is not a power of two, and every row when high > 2^32, is redrawn by
    its own Generator.

    Returns the draws (k, max(lengths)), zero past each row's length, and
    with ``states`` each stream's end after its draws as three arrays: its
    PCG64 state and increment as halves (2, 2, k), and its buffered 32-bit
    word's flag and value (k,).  :func:`seated_generators` of them continues
    every stream in turn.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if high < 1:
        raise ValueError(f"high must be >= 1, got {high}")
    if lengths.shape != seeds.shape[2:] or np.any(lengths < 0):
        raise ValueError("lengths must hold one non-negative length per seed")
    k = len(lengths)
    draws = np.zeros((k, lengths.max(initial=0)), dtype=np.intp)
    post, uinteger = seeds.copy(), np.zeros(k, dtype=np.uint64)
    steps = (lengths + 1) // 2 if high > 1 else np.zeros(k, dtype=np.intp)
    has_uint32 = lengths % 2 * (steps > 0)
    redraw = steps > 0 if high > 1 << 32 else np.zeros(k, dtype=bool)
    threshold = ((1 << 32) - high) % high
    ends = np.cumsum(steps)
    tables = _jump_tables(1 << int(steps.max(initial=1) - 1).bit_length())
    lo = 0
    while 1 < high <= 1 << 32 and lo < k:
        base = ends[lo] - steps[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _DRAW_CHUNK, side="right")))
        count, local_ends = steps[lo:hi], ends[lo:hi] - base
        step = np.arange(local_ends[-1]) - np.repeat(local_ends - count, count)
        terms = _mul128(np.take(tables, step, axis=2), np.repeat(seeds[:, :, lo:hi], count, axis=2))
        state = _add128(terms[:, 0], terms[:, 1])
        # XSL-RR: the xor of the two halves, rotated right by the top six bits.
        xored, rot = state[0] ^ state[1], state[0] >> 58
        output = xored >> rot | xored << ((64 - rot) & 63)
        scaled = np.column_stack([output & _MASK32, output >> 32]) * np.uint64(high)
        last, drawn = local_ends - 1, count > 0
        keep = np.ones(scaled.shape, dtype=bool)
        keep[last[lengths[lo:hi] % 2 == 1], 1] = False
        if threshold:
            rejected = ((scaled & _MASK32) < threshold) & keep
            rows = np.searchsorted(local_ends, np.flatnonzero(rejected.any(axis=1)), side="right")
            redraw[lo + rows] = True
        block = draws[lo:hi]
        block[np.arange(block.shape[1]) < lengths[lo:hi, None]] = (scaled >> 32)[keep]
        if states:
            post[:, 0, lo:hi][:, drawn] = state[:, last[drawn]]
            uinteger[lo:hi][drawn] = output[last[drawn]] >> 32
        lo = hi
    end_states = (post, has_uint32, uinteger) if states else None
    rows = np.flatnonzero(redraw)
    for i, gen in zip(rows.tolist(), seated_generators(seeds[:, :, rows])):
        draws[i, : lengths[i]] = gen.integers(0, high, size=lengths[i])
        if states:
            end = gen.bit_generator.state
            post[:, :, i] = _halves([end["state"]["state"], end["state"]["inc"]])
            has_uint32[i], uinteger[i] = end["has_uint32"], end["uinteger"]
    return draws, end_states


def as_generator(rng) -> np.random.Generator:
    """Accept a RandomStream, a Generator, or a plain integer seed, which draws as
    ``np.random.default_rng(seed)``; a seed that :class:`RandomStream` refuses, None
    (OS entropy) included, is refused alike."""
    if isinstance(rng, np.random.Generator):
        return rng
    return (rng if isinstance(rng, RandomStream) else RandomStream(rng)).generator()


# ---------------------------------------------------------------------------
# Filter (incoherent) model
# ---------------------------------------------------------------------------


def unit_vector(value, path: str) -> tuple:
    """A Bloch direction: a list of three real numbers of norm 1 (within 1e-6)."""
    r = items(value, path, real)
    if len(r) != 3 or not abs(math.hypot(*r) - 1.0) <= 1e-6:
        refuse(path, "a unit 3-vector", value)
    return tuple(r)


#: The parser of a filter strength p.
_STRENGTH = functools.partial(real, low=0.0, high=1.0)


@dataclass(frozen=True)
class FilterParams:
    """Strength p and Bloch direction of a weakly filtering channel."""

    p: float
    bloch: tuple

    def __post_init__(self):
        _STRENGTH(self.p, "p")
        object.__setattr__(self, "bloch", unit_vector(self.bloch, "bloch"))


def filter_kraus(p, bloch) -> np.ndarray:
    """Kraus pairs (n, 2, 2, 2) {sqrt(p) (I + r.sigma)/2, sqrt(1-p) I} of n filter channels.

    ``p`` (n,) holds the strengths and ``bloch`` (n, 3) the unit directions r.
    """
    p = np.asarray(p, dtype=float)[:, None, None]
    rx, ry, rz = np.asarray(bloch, dtype=float).T[..., None, None]
    proj = (np.eye(2, dtype=complex) + rx * PAULI_X + ry * PAULI_Y + rz * PAULI_Z) / 2.0
    return np.stack([np.sqrt(p) * proj, np.sqrt(1.0 - p) * np.eye(2, dtype=complex)], axis=1)


def filter_channel(fp: FilterParams) -> Channel:
    """rho -> (p/4)(I + r.sigma) rho (I + r.sigma) + (1 - p) rho.

    Kraus operators :func:`filter_kraus`; trace-decreasing for p > 0 (the
    component orthogonal to the +r state is absorbed).
    """
    return Channel(QUBIT, filter_kraus([fp.p], [fp.bloch])[0])


#: Upper end of the uniform range of a sampled filter strength p.
FILTER_P_MAX = 0.05


def sample_filter_batch(rng, n: int):
    """Strengths p (n,) uniform on [0, FILTER_P_MAX] and directions bloch (n, 3)
    uniform on the unit sphere.

    Draw i takes a uniform, then standard normals three at a time until
    their norm ``sqrt(v . v)`` (that of ``np.linalg.norm``) is at least 1e-12,
    and its direction is v over that norm.  The draws are in stream order,
    so n draws of one are bit for bit one draw of n and leave the stream in
    the same place.  They are those of ``uniform(0, FILTER_P_MAX)`` and
    ``normal(size=3)``, which numpy forms as 0 + FILTER_P_MAX u and 0 + 1 z,
    exactly, from the ``random`` and ``standard_normal`` taken here.
    """
    gen = as_generator(rng)
    uniforms, v, norms = [], np.empty((n, 3)), []
    uniform, standard_normal = gen.random, gen.standard_normal
    for row in v:
        uniforms.append(uniform())
        norm = 0.0
        while norm < 1e-12:
            standard_normal(out=row)
            norm = math.sqrt(row.dot(row))
        norms.append(norm)
    return FILTER_P_MAX * np.array(uniforms), v / np.array(norms)[:, None]


def sample_filter_params(rng) -> FilterParams:
    """One draw of :func:`sample_filter_batch`."""
    (p,), (bloch,) = sample_filter_batch(rng, 1)
    return FilterParams(p=float(p), bloch=tuple(bloch))


def sample_filter_assignment(rng, n_gates: int = 4):
    """n independent filter channels, one :func:`sample_filter_batch`; returns (assignment, params)."""
    p, bloch = sample_filter_batch(rng, n_gates)
    channels = [Channel(QUBIT, kraus) for kraus in filter_kraus(p, bloch)]
    params = tuple(FilterParams(p=float(s), bloch=tuple(r)) for s, r in zip(p, bloch))
    return NoiseAssignment(QUBIT, channels=channels), params


# ---------------------------------------------------------------------------
# Shelving (coherent) model
# ---------------------------------------------------------------------------


#: The parser of a pulse-angle spread.  numpy's standard normals stay below 13.71
#: in magnitude, so every angle sigma_gamma * x is finite when 14 * sigma_gamma
#: is; the bound is the largest such sigma_gamma.
_SPREAD = functools.partial(real, low=0.0, high=math.nextafter(np.finfo(float).max / 14, 0.0))


def _code_rotations(phi: float, z: np.ndarray):
    """Entries a00, a01 of A = cos(phi) I + i sin(phi) u X u^dag = [[a00, a01], [-a01*, a00*]].

    u is the Haar unitary of the Ginibre matrix z (4, ...), the Q of its QR
    with R's diagonal real-positive: its columns are z's first normalized,
    (a, c), and (-c*, a*) times the phase of det z, so A needs no u.  With
    s = sin(phi) / (|det z| (|z00|^2 + |z10|^2)), a00 = cos(phi) -
    2i s Re(det* z00 z10) and a01 = i s (det* z00^2 - det z10*^2).
    """
    z00, z01, z10, z11 = z
    # The formulas' operations in their order, in place: the same values, fewer arrays.
    det, p = np.multiply(z00, z11), np.multiply(z10, z01)
    det -= p
    norm, scale, part = np.square(det.real), np.square(det.imag), np.empty(det.shape)
    norm += scale
    np.sqrt(norm, out=norm)
    np.square(z00.real, out=scale)
    scale += np.square(z00.imag, out=part)
    scale += np.square(z10.real, out=part)
    scale += np.square(z10.imag, out=part)
    norm *= scale
    s = np.divide(np.sin(phi), norm, out=norm)
    np.conjugate(det, out=det)
    np.multiply(det, z00, out=p)
    a00 = np.multiply(p, z10)
    np.multiply(s, a00.real, out=part)
    a00.real = np.cos(phi)
    np.multiply(part, -2.0, out=a00.imag)
    # a01 = i s w with w = p z00 - (q z10)*, q = det* z10, written into det.
    np.multiply(p, z00, out=p)
    np.multiply(det, z10, out=det)
    np.multiply(det, z10, out=det)
    np.conjugate(det, out=det)
    np.subtract(p, det, out=p)
    a01 = det
    np.multiply(p.imag, s, out=a01.real)
    np.negative(a01.real, out=a01.real)
    np.multiply(p.real, s, out=a01.imag)
    return a00, a01


def shelving_unitaries(gammas: np.ndarray, first, second, out: np.ndarray):
    """Entries of the composite unitaries V(g2) R(u2) V(g1) R(u1) on the qutrit, batched.

    gammas (2, n) holds the pulse angles g1, g2, and ``first`` and ``second``
    the entries (a00, a01) of the code rotations A of u1 and u2
    (:func:`_code_rotations`), each (n,); those of ``second`` are
    overwritten.  V(g) = 1 (+) [[i sin g, cos g], [cos g, i sin g]] mixes
    levels {1, 2} and R(u) = A (+) 1 mixes levels {0, 1}.  U's nine entries,
    row-major, go to ``out`` (9, n), which is returned.
    """
    (a00, a01), (b00, b01) = first, second
    a10, b10 = np.conjugate(a01), np.conjugate(b01)
    np.negative(a10, out=a10)
    np.negative(b10, out=b10)
    a11, b11 = np.conjugate(a00), np.conjugate(b00)
    # Row 1 of V(g1) R(u1) is (t0, t1, c1), row 2 (c1 a10, c1 a11, i s1).  R(u2)
    # makes row 0 final and row 1 (x0, x1, x2), which V(g2) mixes with row 2.
    (c1, c2), (s1, s2) = np.cos(gammas), np.sin(gammas)
    i_s1 = 1j * s1
    t0, t1, term = i_s1 * a10, i_s1 * a11, np.empty_like(a00)
    u00, u01, u02, u10, u11, u12, u20, u21, u22 = out

    def pair_sum(entry, x, y, u, v):
        """entry = x y + u v, in place."""
        np.add(np.multiply(x, y, out=entry), np.multiply(u, v, out=term), out=entry)

    pair_sum(u00, b00, a00, b01, t0)
    pair_sum(u01, b00, a01, b01, t1)
    np.multiply(c1, b01, out=u02)
    # x0, x1 and x2 overwrite b00, b01 and b10, which are no longer read.
    x0, x1, x2 = b00, b01, b10
    pair_sum(x0, b10, a00, b11, t0)
    pair_sum(x1, b10, a01, b11, t1)
    np.multiply(c1, b11, out=x2)
    i_s2, c2c1, i_s2c1 = 1j * s2, c2 * c1, 1j * (s2 * c1)
    pair_sum(u10, i_s2, x0, c2c1, a10)
    pair_sum(u11, i_s2, x1, c2c1, a11)
    pair_sum(u12, i_s2, x2, c2, i_s1)
    pair_sum(u20, c2, x0, i_s2c1, a10)
    pair_sum(u21, c2, x1, i_s2c1, a11)
    np.subtract(np.multiply(c2, x2, out=u22), s2 * s1, out=u22)
    return out


@dataclass(frozen=True)
class ShelvingParams:
    """Shelving noise: code-rotation angle phi (fixed) and pulse-angle spread sigma_gamma.

    It is also the noise's sampler, of a fresh unitary per gate application.
    One draw takes ``n_normals`` standard normals: the two pulse-angle
    deviates, then the real and imaginary parts of the first and of the
    second 2 x 2 Ginibre matrix (row-major).  :meth:`entries` holds at most
    ``kernel_bytes`` of temporaries per draw (305.5 B traced, numpy 2.4).
    """

    phi: float = 0.01
    sigma_gamma: float = 0.06

    n_normals = 18
    kernel_bytes = 320

    def __post_init__(self):
        real(self.phi, "phi")
        _SPREAD(self.sigma_gamma, "sigma_gamma")

    def entries(self, normals: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The nine entries, row-major, (9, ...) of the composite unitaries of
        standard normals (..., 18), written by :func:`shelving_unitaries` into
        ``out`` (C-contiguous), or a new array.  The Ginibre entries (4, 2, ...)
        of both code rotations, made in one call, are built in its first rows."""
        rows = np.moveaxis(np.asarray(normals), -1, 0)
        shape = rows.shape[1:]
        if out is None:
            out = np.empty((9,) + shape, dtype=complex)
        # Contiguous kernel inputs: the scaled angles (2, ...) and Ginibre entries (4, 2, ...).
        gammas = np.multiply(self.sigma_gamma, rows[:2], order="C")
        re_im = rows[2:].reshape((2, 2, 4) + shape)  # [u1 or u2][real or imaginary][entry]
        z = out[:8].reshape((4, 2) + shape)
        z.real, z.imag = re_im[:, 0].swapaxes(0, 1), re_im[:, 1].swapaxes(0, 1)
        rot00, rot01 = _code_rotations(self.phi, z)
        return shelving_unitaries(gammas, (rot00[0], rot01[0]), (rot00[1], rot01[1]), out)

    def unitaries(self, normals: np.ndarray) -> np.ndarray:
        """Map standard normals (..., 18) to composite unitaries (..., 3, 3), :meth:`entries`
        reshaped."""
        normals = np.asarray(normals)
        entries = self.entries(normals.reshape(-1, self.n_normals))
        return entries.T.reshape(normals.shape[:-1] + (3, 3))


def sample_coherent_noise(sp: ShelvingParams, rng) -> Channel:
    """One draw of the composite shelving-noise unitary on the qutrit.

    Applies a code rotation, an imperfect shelving pulse, another code
    rotation, and an imperfect unshelving pulse; all four error variables are
    drawn independently.  The result is unitary, hence trace-preserving on
    the combined space, but trace-decreasing when restricted to the code
    space for generic pulse angles.  The draw takes ``sp.n_normals`` standard
    normals from ``rng``.
    """
    normals = as_generator(rng).standard_normal(sp.n_normals)
    return Channel.unitary(QUTRIT, sp.unitaries(normals))


#: Draws per batch of the Monte Carlo average: the pinned layout of its stream.
_MC_BATCH = 50_000

#: Draws per chunk of the Monte Carlo average: of its rotations and unitaries
#: made in one call, and of each piece of its real and imaginary Ginibre parts.
_MC_CHUNK = 2_500

#: Pieces the oracle's worker thread may draw beyond those its reader holds
#: (80 KB each at the shipped size).
_TAPE_LOOKAHEAD = 8


class _NormalTape:
    """The standard normals of ``gen`` for consecutive segments of the given lengths,
    taken in stream order as pieces of at most ``piece`` normals.

    Each segment starts a new piece.  A piece is a view of a slot of a ring,
    valid until it is released; the reader holds at most ``held`` pieces at
    once.  A worker thread draws the pieces, into any free slot, up to
    ``_TAPE_LOOKAHEAD`` pieces ahead: ``standard_normal(out=)`` releases the
    GIL, so on two or more CPUs the draws run beside the reader's arithmetic,
    and on one they take turns with it.  The pieces in order are bit for bit
    one ``gen.standard_normal`` call of every segment's length, and the
    generator ends where that call leaves it.  Leaving the ``with`` block
    stops and joins the worker, and a draw's exception is raised by the take
    that needs its piece.
    """

    def __init__(self, gen: np.random.Generator, segments, piece: int, held: int):
        import queue  # here, so that runs with no Monte Carlo oracle never load it

        self.gen = gen
        self.sizes = (min(piece, n - start) for n in segments for start in range(0, n, piece))
        self.ring = np.empty((held + _TAPE_LOOKAHEAD, piece))
        self.worker = threading.Thread(target=self._fill, daemon=True)
        self.filled, self.free = queue.SimpleQueue(), queue.SimpleQueue()
        for slot in range(len(self.ring)):
            self.release(slot)
        self.stopped = False

    def __enter__(self):
        self.worker.start()
        return self

    def __exit__(self, *exc_info):
        self.stopped = True
        self.free.put(None)  # wakes a worker waiting for a free slot
        self.worker.join()

    def _fill(self):
        """The worker: draw every piece in order, each into the next slot released."""
        try:
            for size in self.sizes:
                slot = self.free.get()
                if self.stopped:
                    return
                self.gen.standard_normal(out=self.ring[slot, :size])
                self.filled.put((slot, size))
        except BaseException as exc:  # handed to the reader, which raises it
            self.filled.put(exc)

    def take(self):
        """The next piece: (its slot, its normals)."""
        item = self.filled.get()
        if isinstance(item, BaseException):
            raise item
        slot, size = item
        return slot, self.ring[slot, :size]

    def release(self, slot: int):
        self.free.put(slot)


def averaged_coherent_channel(sp: ShelvingParams, n_samples: int, rng) -> Channel:
    """Monte Carlo average of the shelving-noise channel over its parameters.

    The Liouville matrix is the mean over n_samples independent draws; the
    returned channel serves as the theory oracle for the coherent survival
    rate.  A batch of ``_MC_BATCH`` (or fewer) draws takes, in stream order,
    the pulse angles (b, 2), then the real and the imaginary parts of the
    first and of the second Ginibre matrices (b, 2, 2) each, so the result
    is fully determined by the stream.  The normals come from a
    :class:`_NormalTape`, which draws them on a second thread while this one
    computes (on one CPU the two take turns), and the generator ends after
    exactly 18 n_samples of them.  The tape cuts every segment into pieces of
    ``4 _MC_CHUNK`` normals: one chunk of draws' real or imaginary Ginibre
    parts, or two chunks' angles.  The angles' and the real parts' pieces
    stay on the tape until their chunks are done.  When a chunk's piece of
    imaginary parts arrives, its first Ginibre matrices are made into
    rotations, held until the second; its second, into unitaries, added to
    the Gram sum.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = as_generator(rng)
    size, width = min(_MC_BATCH, n_samples), min(_MC_CHUNK, n_samples)
    first = np.empty((2, size), dtype=complex)  # the first rotations' a00, a01
    gammas, entries = np.empty((2, width)), np.empty((9, width), dtype=complex)
    z = entries[:4]  # the Ginibre entries, read before the unitaries are written
    gram = np.zeros((9, 9), dtype=complex)  # sum of vec(U) vec(U)^dag
    batches = [min(_MC_BATCH, n_samples - start) for start in range(0, n_samples, _MC_BATCH)]
    segments = [n for b in batches for n in (2 * b, 4 * b, 4 * b, 4 * b, 4 * b)]

    def rotations(real):
        """The code rotations of the chunk whose real parts are the piece ``real``."""
        slot, values = real
        n = len(values) // 4
        z.real[:, :n] = values.reshape(n, 4).T
        tape.release(slot)
        slot, values = tape.take()
        z.imag[:, :n] = values.reshape(n, 4).T
        tape.release(slot)
        return _code_rotations(sp.phi, z[:, :n])

    # The reader holds at most a batch's pieces of angles and of real parts.
    held = -(-size // (2 * width)) + -(-size // width)
    with _NormalTape(gen, segments, 4 * width, held) as tape:
        for b in batches:
            chunks = range(0, b, _MC_CHUNK)
            pulses = [tape.take() for _ in range(0, b, 2 * width)]
            for _, values in pulses:
                values *= sp.sigma_gamma
            for lo, real in zip(chunks, [tape.take() for _ in chunks]):
                hi = min(lo + _MC_CHUNK, b)
                first[0, lo:hi], first[1, lo:hi] = rotations(real)
            for k, (lo, real) in enumerate(zip(chunks, [tape.take() for _ in chunks])):
                hi = min(lo + _MC_CHUNK, b)
                n = hi - lo
                slot, values = pulses[k // 2]
                offset = 2 * width * (k % 2)
                gammas[:, :n] = values[offset : offset + 2 * n].reshape(n, 2).T
                if k % 2 or hi == b:  # the piece's last chunk
                    tape.release(slot)
                second = rotations(real)
                u = shelving_unitaries(gammas[:, :n], first[:, lo:hi], second, entries[:, :n])
                gram += u @ u.conj().T
    # Reorder [(i, j), (k, l)] to the Liouville index [(i, k), (j, l)] of kron(U, U*).
    total = gram.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    return Channel.from_liouville(QUTRIT, total / n_samples)


# ---------------------------------------------------------------------------
# Noise model lookup by id
# ---------------------------------------------------------------------------

#: Derivation tag for model-parameter sampling within a root stream.
PARAMS_KEY = 0

#: The params of each noise model id: {key: (parser, default)}.  A "seed" roots
#: the model's own draws (the filter parameters, or the per-step shelving noise).
FILTER_GATE_FIELDS = {"p": (_STRENGTH, REQUIRED), "r": (unit_vector, REQUIRED)}
_SEED = (functools.partial(integer, low=0), None)
NOISE_PARAMS = {
    "none": {},
    "filter": {
        "seed": _SEED,
        "gates": (list_of(section(FILTER_GATE_FIELDS)), None),
    },
    "shelving": {
        "phi": (real, ShelvingParams.phi),
        "sigma_gamma": (_SPREAD, ShelvingParams.sigma_gamma),
        "seed": _SEED,
    },
}


def _model_id(value, path: str) -> str:
    if not (isinstance(value, str) and value in NOISE_PARAMS):
        refuse(path, f"one of {', '.join(NOISE_PARAMS)}", value)
    return value


#: The noise spec; its params are read by the table of its id.
NOISE_FIELDS = {"id": (_model_id, None), "params": (mapping, None)}


def read_noise_spec(spec, path: str = "noise") -> tuple:
    """(model id, params) of a noise spec: null, or {"id", "params"} with the params
    read through ``NOISE_PARAMS[id]``, where a null or absent id is "none"."""
    if spec is None:
        return "none", {}
    values = read_fields(spec, path, NOISE_FIELDS)
    model_id, params = values["id"] or "none", values["params"]
    try:
        return model_id, read_fields(params or {}, f"{path}.params", NOISE_PARAMS[model_id])
    except ConfigError as exc:  # the params that the id selects
        raise ConfigError(f'{exc}, for {path}.id "{model_id}"') from None


def build_noise_model(
    spec: dict | None, gateset: GateSet, stream: RandomStream
) -> NoiseAssignment | None:
    """Construct the noise assignment described by a config mapping.

    Supported ids: "none" (or null spec) for noiseless operation, "filter"
    with params {"seed": int} or {"gates": [{"p": float, "r": [x, y, z]}]},
    and "shelving" with params {"phi": float, "sigma_gamma": float}.  An
    explicit "seed" in params overrides the stream used for parameter draws.
    The spec is read by :func:`read_noise_spec`, as when a config loads; a
    model that does not fit the gate set is a ConfigError too.
    """
    model_id, params = read_noise_spec(spec)
    if model_id == "none":
        return None
    space = {"filter": QUBIT, "shelving": QUTRIT}[model_id]
    if gateset.space != space:
        raise ConfigError(
            f"bad noise.id: {model_id} noise acts on d1={space.d1}, d2={space.d2}, "
            f"but the gate set on d1={gateset.space.d1}, d2={gateset.space.d2}"
        )
    if model_id == "shelving":
        sp = ShelvingParams(phi=params["phi"], sigma_gamma=params["sigma_gamma"])
        return NoiseAssignment(QUTRIT, sampler=sp)
    gates = params["gates"]
    if gates is None:
        if params["seed"] is not None:
            stream = RandomStream(params["seed"])
        assignment, _ = sample_filter_assignment(stream.child(PARAMS_KEY), n_gates=len(gateset))
        return assignment
    if len(gates) != len(gateset):
        raise ConfigError(f"bad noise.params.gates: lists {len(gates)} of {len(gateset)} gates")
    kraus = filter_kraus([g["p"] for g in gates], [g["r"] for g in gates])
    return NoiseAssignment(QUBIT, channels=[Channel(QUBIT, k) for k in kraus])
