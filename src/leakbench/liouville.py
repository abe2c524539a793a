"""Channel algebra in the Liouville (superoperator) representation.

Operators live on a Hilbert space H = H1 (+) H2, where H1 is the code
(computational) subspace and H2 an optional leakage subspace.  Channels are
stored as Kraus-operator lists; each forms its Liouville matrix when it is
made, in the canonical matrix-unit basis |i><j| with row-major (i, j)
ordering, so that a density operator vectorizes to ``rho.reshape(-1)`` and a
unitary U acts as kron(U, U.conj()).

Input documents are read here too: each section of a config, channel,
gate-set or dataset document has one table of its fields, read by
:func:`read_fields` with one integer and one real parser.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

#: Global default tolerance for positivity / orthonormality / equality checks.
DEFAULT_TOL = 1e-9

#: Choi eigenvalues at or below this are dropped when Kraus operators are recovered.
KRAUS_CUTOFF = 1e-12


@dataclass(frozen=True)
class SpaceSpec:
    """Dimensions of the code subspace H1, leakage subspace H2 and H = H1 (+) H2.

    It forms, when it is made, three read-only arrays: ``code_projector`` and
    ``leak_projector``, the projectors P_H1 and P_H2 (zero when d2 = 0) as
    d x d matrices, and ``twirl_basis``, orthonormal columns A (d^2, k)
    spanning the operators a 1-design twirl keeps: vec(P_H1)/sqrt(d1), which
    is vec(I)/sqrt(d) when d2 = 0, and vec(P_H2)/sqrt(d2) when d2 > 0.  The
    twirl is A A^dag, and a channel's transfer block A^dag L A.  Equality and
    hashing see the two dimensions only.  It is copied and pickled by Python's
    defaults, as all but GateSet and NoiseAssignment are: a shallow copy shares
    its arrays; a deep copy or a pickle holds its own.
    """

    d1: int
    d2: int = 0

    def __post_init__(self):
        if self.d1 < 1:
            raise ValueError(f"code dimension must be >= 1, got {self.d1}")
        if self.d2 < 0:
            raise ValueError(f"leakage dimension must be >= 0, got {self.d2}")
        code = np.arange(self.d) < self.d1
        projectors = [np.diag(part).astype(complex) for part in (code, ~code)]
        columns = zip(projectors, (self.d1, self.d2) if self.d2 else (self.d1,))
        basis = np.column_stack([vec(p) / np.sqrt(n) for p, n in columns])
        names = ("code_projector", "leak_projector", "twirl_basis")
        for name, array in zip(names, (*projectors, basis)):
            object.__setattr__(self, name, _read_only(array))

    @property
    def d(self) -> int:
        return self.d1 + self.d2


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a value that callers share."""
    array.flags.writeable = False
    return array


def vec(op: np.ndarray) -> np.ndarray:
    """Row-major vectorization; coordinates of op in the elementary basis."""
    return np.asarray(op, dtype=complex).reshape(-1)


class Channel:
    """A completely positive map stored as a stack of d x d Kraus operators.

    The read-only Kraus stack (k, d, d) is ground truth.  The read-only
    Liouville matrix (elementary basis) sum_k kron(K_k, K_k.conj()) is formed
    here, or given as ``liouville``, the Kraus form's up to rounding
    (:func:`mix`).  Values are immutable.  It is copied and pickled by Python's
    defaults, as all but GateSet and NoiseAssignment are: a shallow copy shares
    its arrays; a deep copy or a pickle holds its own.
    """

    def __init__(self, space: SpaceSpec, kraus, liouville=None):
        self.space = space
        self.kraus = _operator_stack(kraus, space.d, "Kraus operators")
        lio = liouville_from_kraus(self.kraus) if liouville is None else np.array(liouville, complex)
        self.liouville = _read_only(lio)

    @classmethod
    def unitary(cls, space: SpaceSpec, u: np.ndarray) -> "Channel":
        return cls(space, [u])

    @classmethod
    def from_liouville(cls, space: SpaceSpec, matrix: np.ndarray) -> "Channel":
        """Recover a Kraus list from an elementary-basis Liouville matrix.

        Eigendecomposes the Choi matrix; eigenvalues below ``KRAUS_CUTOFF``
        are dropped, so the input must be completely positive up to that scale.
        """
        d = space.d
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (d * d, d * d):
            raise ValueError(f"Liouville matrix must be {d*d} x {d*d}")
        choi = liouville_to_choi(matrix, d)
        herm_err = np.max(np.abs(choi - choi.conj().T))
        if herm_err > 1e-8:
            raise ValueError(f"Choi matrix not Hermitian (deviation {herm_err:.3e})")
        w, v = np.linalg.eigh(_hermitian_part(choi))
        if w.min() < -1e-8:
            raise ValueError(f"map is not CP (Choi eigenvalue {w.min():.3e})")
        # Choi index (i, a) holds K[a, i]: unvec each kept eigenvector, then transpose.
        keep = w > KRAUS_CUTOFF
        kraus = (np.sqrt(w[keep]) * v[:, keep]).T.reshape(-1, d, d).transpose(0, 2, 1)
        if not keep.any():
            kraus = np.zeros((1, d, d), dtype=complex)
        return cls(space, kraus)

    def kraus_sum(self) -> np.ndarray:
        """sum_k K_k^dag K_k; equals the identity iff trace-preserving."""
        return kraus_sums(self.kraus)


def _operator_stack(ops, d: int, what: str) -> np.ndarray:
    """``ops`` as one read-only complex stack (k, d, d) with k >= 1."""
    stack = np.array(ops, dtype=complex)
    if stack.ndim != 3 or not stack.size or stack.shape[1:] != (d, d):
        raise ValueError(f"{what} must be one or more {d} x {d} matrices for this space")
    return _read_only(stack)


def _kron_conj(ops: np.ndarray) -> np.ndarray:
    """kron(A, A.conj()) of each A of a stack (..., d, d), entry for entry as np.kron forms it."""
    *lead, d, _ = ops.shape
    outer = ops[..., :, None, :, None] * ops.conj()[..., None, :, None, :]
    return outer.reshape(*lead, d * d, d * d)


def _hermitian_part(ops: np.ndarray) -> np.ndarray:
    """(A + A^dag) / 2 of one matrix or of each of a stack (..., d, d)."""
    return (ops + ops.conj().swapaxes(-1, -2)) / 2.0


def liouville_from_kraus(kraus: np.ndarray) -> np.ndarray:
    """sum_k kron(K_k, K_k.conj()) of each Kraus set of a stack (..., k, d, d)."""
    return _kron_conj(kraus).sum(axis=-3)


def kraus_sums(kraus: np.ndarray) -> np.ndarray:
    """sum_k K_k^dag K_k of each Kraus set of a stack (..., k, d, d)."""
    *lead, k, d, _ = kraus.shape
    rows = kraus.reshape(*lead, k * d, d)  # each set's K_k stacked vertically
    return rows.conj().swapaxes(-1, -2) @ rows


def mix(channels, weights=None) -> Channel:
    """Convex mixture sum_i w_i E_i, as the Kraus union scaled by sqrt(w_i).

    Its Liouville matrix is sum_i w_i L_i of the members' matrices.  Weights
    default to uniform and must be finite and nonnegative.
    """
    channels = list(channels)
    if not channels:
        raise ValueError("mix needs at least one channel")
    space, n = channels[0].space, len(channels)
    if any(ch.space != space for ch in channels):
        raise ValueError("channels act on different spaces")
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"mix got {weights.size} weights for {n} channels")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError(f"mix weights must be finite and nonnegative, got {weights.tolist()}")
    scales = np.repeat(np.sqrt(weights), [len(ch.kraus) for ch in channels])
    kraus = scales[:, None, None] * np.concatenate([ch.kraus for ch in channels])
    lios = np.array([ch.liouville for ch in channels])
    # tensordot(weights, lios, axes=1) as the one np.dot it makes, same bits.  In
    # a fresh process tensordot's Python layer took about 0.2 ms over the four
    # calls of an exact-oracle pass, 5% of it (2 vCPUs, numpy 2.4).
    mean = np.dot(weights[None], lios.reshape(n, -1)).reshape(lios.shape[1:])
    return Channel(space, kraus, mean)


def transfer_matrix(ch: Channel) -> np.ndarray:
    """The real k x k transfer block A^dag L A of the channel on the twirl basis A.

    A is :attr:`SpaceSpec.twirl_basis`, so the block is 1 x 1, Tr[E(I/d)],
    without a leakage subspace and 2 x 2 with one.  Its entries
    Tr[P_a E(P_b)]/sqrt(d_a d_b) are real for any CP map, and its eigenvalues
    are the decays of the twirled channel.
    """
    basis = ch.space.twirl_basis
    return (basis.conj().T @ ch.liouville @ basis).real


def liouville_to_choi(lio: np.ndarray, d: int) -> np.ndarray:
    """Reshuffle Choi[(i,a),(j,b)] = L[(a,b),(i,j)], for one matrix or a stack (..., d^2, d^2)."""
    lio = np.asarray(lio, dtype=complex)
    *lead, _, _ = lio.shape
    k = len(lead)
    blocks = lio.reshape(*lead, d, d, d, d).transpose(*range(k), k + 2, k, k + 3, k + 1)
    return blocks.reshape(*lead, d * d, d * d)


@dataclass(frozen=True)
class ChannelDiagnostics:
    is_cp: bool
    is_trace_nonincreasing: bool
    is_trace_preserving: bool
    choi_eigenvalue_min: float
    kraus_sum_eigenvalue_max: float
    trace_preserving_deviation: float


def cp_tp_diagnostics(ch: Channel, tol: float = DEFAULT_TOL) -> ChannelDiagnostics:
    """Check complete positivity, trace-nonincrease and trace preservation."""
    choi = liouville_to_choi(ch.liouville, ch.space.d)
    choi_min = float(np.linalg.eigvalsh(_hermitian_part(choi)).min())
    ks = ch.kraus_sum()
    ks_eigs = np.linalg.eigvalsh(_hermitian_part(ks))
    tp_dev = float(np.max(np.abs(ks - np.eye(ch.space.d))))
    return ChannelDiagnostics(
        is_cp=choi_min >= -tol,
        is_trace_nonincreasing=float(ks_eigs.max()) <= 1.0 + tol,
        is_trace_preserving=tp_dev <= tol,
        choi_eigenvalue_min=choi_min,
        kraus_sum_eigenvalue_max=float(ks_eigs.max()),
        trace_preserving_deviation=tp_dev,
    )


# ---------------------------------------------------------------------------
# Input documents: one field table per section, read by one helper
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """A malformed input document: a config, channel, gate set or dataset.  The
    message names the bad key by its full path, such as ``spam.prep.d1``."""


#: The default of a field that must be given.
REQUIRED = object()


def refuse(path: str, expected: str, value):
    """Raise the ConfigError of ``value`` at ``path``, shown as JSON spells it."""
    raise ConfigError(f"bad {path}: expected {expected}, got {json.dumps(value, default=repr):.60}")


def read_fields(doc, path: str, fields: dict) -> dict:
    """The values of the mapping ``doc``, named ``path`` ("" at the top level),
    read through ``fields``: {key: (parser, default)}.

    An absent key takes its default, and so does a null given for a key whose
    default is null; any other value v is ``parser(v, its path)``.  A ``doc``
    that is not an object, an unknown key and an absent REQUIRED key are
    ConfigErrors.  This helper is itself the parser of a nested section.
    """
    if not isinstance(doc, dict):
        refuse(path or "top level", "an object", doc)
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in fields:
            known = f"one of {', '.join(fields)}" if fields else "none"
            raise ConfigError(f"bad {prefix}{key}: unknown key, expected {known}")
    values = {}
    for key, (parse, default) in fields.items():
        value = doc.get(key)
        if value is not None or key in doc and default is not None:
            values[key] = parse(value, prefix + key)
        elif default is REQUIRED:
            raise ConfigError(f"bad {prefix}{key}: required, and missing")
        else:
            values[key] = default
    return values


def _range(low, high) -> str:
    if high == math.inf:
        return "" if low == -math.inf else f" >= {low}"
    return f" in [{low}, {high}]"


def integer(value, path: str, low=-math.inf, high=math.inf) -> int:
    """``value`` as an int in [low, high]; else a ConfigError naming ``path``.  An int
    or an integral float is one; a bool or a string is not, though Python converts it."""
    whole = isinstance(value, float) and value.is_integer() or isinstance(value, numbers.Integral)
    if whole and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    refuse(path, f"an integer{_range(low, high)}", value)


def real(value, path: str, low=-math.inf, high=math.inf) -> float:
    """``value`` as a finite float in [low, high]; else a ConfigError naming ``path``.
    An int or a float is one; a bool, a string or null is not."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if abs(value) <= sys.float_info.max and low <= value <= high:
            return float(value)
    refuse(path, f"a finite real number{_range(low, high)}", value)


def text(value, path: str) -> str:
    if not isinstance(value, str):
        refuse(path, "a string", value)
    return value


def mapping(value, path: str) -> dict:
    """An object of any keys, kept as given."""
    if not isinstance(value, dict):
        refuse(path, "an object", value)
    return value


def items(value, path: str, parse) -> list:
    """The nonempty list ``value`` with its item i read by ``parse`` as ``path[i]``."""
    if not isinstance(value, (list, tuple)) or not value:
        refuse(path, "a nonempty list", value)
    return [parse(item, f"{path}[{i}]") for i, item in enumerate(value)]


def list_of(parse):
    """The parser of a nonempty list whose items ``parse`` reads."""
    return functools.partial(items, parse=parse)


def section(fields: dict):
    """The parser of a nested section read through ``fields``."""
    return functools.partial(read_fields, fields=fields)


def complex_entries(value, path: str) -> np.ndarray:
    """The list ``value`` of [re, im] number pairs as a flat complex array."""
    if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
        refuse(path, "a list of [re, im] number pairs", value)
    parts = [real(part, f"{path}[{i}]") for i, pair in enumerate(value) for part in pair]
    return np.array(parts, dtype=float).view(complex)


def square_matrix(entries: np.ndarray, d: int, path: str, dims: str) -> np.ndarray:
    """The flat ``entries`` as a row-major d x d matrix, where d is ``dims``."""
    if entries.size != d * d:
        refuse(path, f"{d * d} [re, im] pairs (a {d}x{d} matrix for {dims} = {d})", entries.size)
    return entries.reshape(d, d)


#: The dimensions of a channel or gate-set document.
DIMENSIONS = {
    "d1": (functools.partial(integer, low=1), REQUIRED),
    "d2": (functools.partial(integer, low=0), 0),
}


def read_operators(doc, path: str, fields: dict, key: str):
    """(values, space, matrices) of a channel or gate-set document read through
    ``fields``: its values, the space of d1 and d2, and its list ``key`` of matrices.
    The matrices are sized first, so a space is made only as large as they are."""
    values = read_fields(doc, path, fields)
    prefix, d = f"{path}." if path else "", values["d1"] + values["d2"]
    dims = f"{prefix}d1 + {prefix}d2"
    matrices = [square_matrix(m, d, f"{prefix}{key}[{i}]", dims) for i, m in enumerate(values[key])]
    return values, SpaceSpec(d1=values["d1"], d2=values["d2"]), matrices


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major list of [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def channel_to_dict(ch: Channel) -> dict:
    return {
        "d1": ch.space.d1,
        "d2": ch.space.d2,
        "kraus": [matrix_to_pairs(k) for k in ch.kraus],
    }


#: The channel JSON: {d1, d2, kraus: [[[re, im], ...row-major...], ...]}.
CHANNEL_FIELDS = {**DIMENSIONS, "kraus": (list_of(complex_entries), REQUIRED)}


def channel_from_dict(doc: dict, path: str = "") -> Channel:
    """The channel of ``doc``; one that can increase a state's trace, a Kraus-sum
    eigenvalue above 1 + DEFAULT_TOL, is a ConfigError naming ``path``."""
    _, space, kraus = read_operators(doc, path, CHANNEL_FIELDS, "kraus")
    ch = Channel(space, kraus)
    largest = float(np.linalg.eigvalsh(_hermitian_part(kraus_sums(ch.kraus))).max())
    if not largest <= 1.0 + DEFAULT_TOL:
        expected = f"a trace-nonincreasing channel (Kraus-sum eigenvalues <= 1 + {DEFAULT_TOL:g})"
        refuse(path or "top level", expected, largest)
    return ch
