"""Channel algebra in the Liouville (superoperator) representation.

Operators live on a Hilbert space H = H1 (+) H2, where H1 is the code
(computational) subspace and H2 an optional leakage subspace.  Channels are
stored as Kraus-operator lists; their Liouville matrices are derived on
demand in the canonical matrix-unit basis |i><j| with row-major (i, j)
ordering, so that a density operator vectorizes to ``rho.reshape(-1)`` and a
unitary U acts as kron(U, U.conj()).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Global default tolerance for positivity / orthonormality / equality checks.
DEFAULT_TOL = 1e-9

#: Choi eigenvalues at or below this are dropped when Kraus operators are recovered.
KRAUS_CUTOFF = 1e-12


@dataclass(frozen=True)
class SpaceSpec:
    """Dimensions of the code subspace H1, leakage subspace H2 and H = H1 (+) H2.

    Its projectors and twirl basis are computed once per instance and are
    read-only; equality, hashing and pickling see the two dimensions only.
    """

    d1: int
    d2: int = 0

    def __post_init__(self):
        if self.d1 < 1:
            raise ValueError(f"code dimension must be >= 1, got {self.d1}")
        if self.d2 < 0:
            raise ValueError(f"leakage dimension must be >= 0, got {self.d2}")

    def __reduce__(self):
        return SpaceSpec, (self.d1, self.d2)

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    @functools.cached_property
    def code_projector(self) -> np.ndarray:
        """Projector onto H1 as a d x d matrix."""
        return _read_only(np.diag(np.arange(self.d) < self.d1).astype(complex))

    @functools.cached_property
    def leak_projector(self) -> np.ndarray:
        """Projector onto H2 as a d x d matrix (zero when d2 = 0)."""
        return _read_only(np.diag(np.arange(self.d) >= self.d1).astype(complex))

    @functools.cached_property
    def twirl_basis(self) -> np.ndarray:
        """Orthonormal columns A (d^2, k) spanning the operators a 1-design twirl keeps.

        They are vec(P_H1)/sqrt(d1) and vec(P_H2)/sqrt(d2) with a leakage
        subspace, vec(I)/sqrt(d) without.  The twirl is A A^dag, and a
        channel's transfer block A^dag L A.
        """
        if self.d2 == 0:
            return _read_only(vec(np.eye(self.d))[:, None] / np.sqrt(self.d))
        p1, p2 = vec(self.code_projector), vec(self.leak_projector)
        return _read_only(np.column_stack([p1 / np.sqrt(self.d1), p2 / np.sqrt(self.d2)]))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: a value that callers share."""
    array.flags.writeable = False
    return array


def vec(op: np.ndarray) -> np.ndarray:
    """Row-major vectorization; coordinates of op in the elementary basis."""
    return np.asarray(op, dtype=complex).reshape(-1)


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal [[a, 0], [0, b]] of two square matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("direct_sum requires square blocks")
    n, m = a.shape[0], b.shape[0]
    out = np.zeros((n + m, n + m), dtype=complex)
    out[:n, :n] = a
    out[n:, n:] = b
    return out


class Channel:
    """A completely positive map stored as a stack of d x d Kraus operators.

    The read-only Kraus stack (k, d, d) is ground truth; the Liouville matrix
    (elementary basis) is derived lazily and cached.  Values are immutable.
    """

    def __init__(self, space: SpaceSpec, kraus):
        self.space = space
        self.kraus = _operator_stack(kraus, space.d, "Kraus operators")
        self._liouville: np.ndarray | None = None

    @classmethod
    def identity(cls, space: SpaceSpec) -> "Channel":
        return cls(space, [np.eye(space.d, dtype=complex)])

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

    @property
    def liouville(self) -> np.ndarray:
        """The d^2 x d^2 matrix sum_k kron(K_k, K_k.conj()), cached and read-only."""
        if self._liouville is None:
            self._liouville = _read_only(liouville_from_kraus(self.kraus))
        return self._liouville

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """sum_k K_k rho K_k^dag."""
        rho = np.asarray(rho, dtype=complex)
        return (self.kraus @ rho @ self.kraus.conj().swapaxes(1, 2)).sum(axis=0)

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


def compose(after: Channel, before: Channel) -> Channel:
    """The channel applying ``before`` then ``after``; Kraus products compose."""
    if after.space != before.space:
        raise ValueError("channels act on different spaces")
    d = after.space.d
    return Channel(after.space, (after.kraus[:, None] @ before.kraus).reshape(-1, d, d))


def mix(channels, weights=None) -> Channel:
    """Convex mixture sum_i w_i E_i, as the Kraus union scaled by sqrt(w_i).

    Its Liouville matrix is seeded with sum_i w_i L_i of the members' cached
    ones.  Weights default to uniform and must be finite and nonnegative.
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
    mixed = Channel(space, scales[:, None, None] * np.concatenate([ch.kraus for ch in channels]))
    lios = np.array([ch.liouville for ch in channels])
    mixed._liouville = _read_only(np.tensordot(weights, lios, axes=1))
    return mixed


def survival_rate(rho: np.ndarray, ch: Channel) -> float:
    """Tr[P_H1 E(rho)] / Tr[rho], the probability of remaining detectable in H1."""
    rho = np.asarray(rho, dtype=complex)
    tr = np.trace(rho).real
    if tr <= 0:
        raise ValueError("survival rate needs an input with positive trace")
    p1 = ch.space.code_projector
    return float(np.trace(p1 @ ch.apply(rho)).real / tr)


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
# JSON serialization: {d1, d2, kraus: [[[re, im], ...row-major...], ...]}
# ---------------------------------------------------------------------------


def matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major list of [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def matrix_from_pairs(pairs, d: int) -> np.ndarray:
    """The d x d matrix of the row-major list ``pairs`` of [re, im] entries; a
    ValueError saying that shape unless ``pairs`` has it."""
    expected = f"a list of {d * d} [re, im] number pairs (a {d}x{d} matrix, row-major)"
    try:
        flat = np.array([complex(re, im) for re, im in pairs])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"expected {expected}, got {pairs!r:.40}") from exc
    if flat.size != d * d:
        raise ValueError(f"expected {expected}, got {flat.size} entries")
    return flat.reshape(d, d)


def channel_to_dict(ch: Channel) -> dict:
    return {
        "d1": ch.space.d1,
        "d2": ch.space.d2,
        "kraus": [matrix_to_pairs(k) for k in ch.kraus],
    }


def channel_from_dict(doc: dict) -> Channel:
    space = SpaceSpec(d1=int(doc["d1"]), d2=int(doc.get("d2", 0)))
    kraus = [matrix_from_pairs(p, space.d) for p in doc["kraus"]]
    return Channel(space, kraus)
