"""Slow references that the fast paths of leakbench are tested against.

Trace-orthonormal operator bases (``OperatorBasis``, ``vectorize``,
``to_liouville`` in any such basis and ``born_probability``), against which
the canonical matrix-unit Liouville form of ``leakbench.liouville`` is
checked.  The weighted mixture of channels (``mix``), which test fixtures
build and whose uniform case is the program's average of fixed noise.  The
channel and matrix writers of the input documents (``channel_to_dict``,
``matrix_to_pairs``), which test fixtures write their inputs with.  The
per-operator loop forms of the channel and gate-set algebra
(``kraus_liouville``, ``apply_kraus``, ``kraus_sum``, ``group_deviation``,
``gate_dependence_epsilon``) and the numeric rank of a projector
(``numeric_rank``), against which the stacked contractions are checked.
The exact sequence averages built afresh on every call (``averaged_step``,
``powered_expectation``, ``stacked_gate_dependence_epsilon``, and
``predicted_expectation`` from the fresh ``projectors`` and ``twirl_basis``),
in the stacked arithmetic of the program, against which its values computed
once per gate set and noise are checked bit for bit.
The decays of a twirled channel as trace formulas: the incoherent survival
``Tr[E(I/d)]`` (``incoherent_survival``), the 2 x 2 block of a channel with a
leakage subspace (``transfer_block``) and its roots in closed form
(``decay_eigenvalues``), against which ``transfer_matrix`` and its
eigenvalues are checked.
The per-sequence engine (``sample_sequence``, ``run_sequence`` and
``shot_estimate``: one generator per sequence and one Liouville product per
gate application).  The scalar filter model (``filter_params``: one draw per
call, ``filter_channel``: one Kraus pair per channel) and the filter check of
the invariant suite run one channel at a time (``filter_diagnostics``).  The scalar factors of the shelving noise
(``shelving_pulse``, ``code_rotation`` and the LAPACK QR ``haar_unitary``),
and the Monte Carlo oracle as it was before it drew into one reused buffer
and computed u X u^dag in closed form: separate ``gen.normal`` draws per
batch, a Gram-Schmidt Haar step per draw and the product of the four factors
formed from the u entries.  The least weighted cost of a decay model over a
grid of decays (``least_scanned_cost``: one ``lstsq`` per grid point), against
which the variable-projection fit is checked.  The fit's Gauss-Newton step by
``lstsq`` over the weighted Jacobian's free columns (``gauss_newton_step``)
and its search with that step (``projected_search``), against which the
closed-form step is checked.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from leakbench import fitting
from leakbench.gatesets import PAULI_X, PAULI_Y, PAULI_Z
from leakbench.liouville import (
    DEFAULT_TOL,
    Channel,
    SpaceSpec,
    cp_tp_diagnostics,
    vec,
)
from leakbench.noise import (
    QUTRIT,
    FilterParams,
    RandomStream,
    ShelvingParams,
    as_generator,
    sample_coherent_noise,
)
from leakbench.protocol import SpamSpec


class OperatorBasis:
    """A trace-orthonormal basis {A_i} for the d x d operator space.

    Orthonormality Tr[A_i^dag A_j] = delta_ij is checked at construction.
    """

    def __init__(self, elements, label: str, tol: float = DEFAULT_TOL):
        elements = tuple(np.asarray(a, dtype=complex) for a in elements)
        d = elements[0].shape[0]
        if len(elements) != d * d or any(a.shape != (d, d) for a in elements):
            raise ValueError("basis must contain d^2 elements of shape (d, d)")
        gram = OperatorBasis._gram(elements)
        if np.max(np.abs(gram - np.eye(d * d))) > tol:
            raise ValueError(f"basis {label!r} is not trace-orthonormal within {tol}")
        self.elements = elements
        self.label = label
        self.dim = d

    @staticmethod
    def _gram(elements) -> np.ndarray:
        n = len(elements)
        g = np.empty((n, n), dtype=complex)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                g[i, j] = np.trace(a.conj().T @ b)
        return g

    def gram_matrix(self) -> np.ndarray:
        """Matrix of overlaps Tr[A_i^dag A_j]; the identity for a valid basis."""
        return self._gram(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def elementary_basis(space: SpaceSpec) -> OperatorBasis:
    """The d^2 matrix units |i><j| in row-major order of (i, j)."""
    d = space.d
    elements = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            elements.append(e)
    return OperatorBasis(elements, label=f"elementary-{d}")


def normalized_pauli_basis() -> OperatorBasis:
    """The single-qubit basis {I, X, Y, Z} / sqrt(2)."""
    s = 1.0 / np.sqrt(2.0)
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return OperatorBasis([s * i2, s * x, s * y, s * z], label="pauli-normalized")


def to_liouville(ch: Channel, basis: OperatorBasis | None = None) -> np.ndarray:
    """Liouville matrix of ``ch`` with entries Tr[A_i^dag E(A_j)].

    With no basis this is the channel's canonical (matrix-unit) form; any other
    trace-orthonormal basis is reached by the unitary change of frame
    T[i, :] = vec(A_i).conj(), which is the identity for matrix units.
    """
    lio = ch.liouville
    if basis is None:
        return lio.copy()
    if basis.dim != ch.space.d:
        raise ValueError("basis dimension does not match channel space")
    t = np.array([vec(a).conj() for a in basis.elements])
    return t @ lio @ t.conj().T


@dataclass(frozen=True)
class VectorizedOperator:
    """Coordinates of a state (column) or measurement effect (row) in a basis."""

    kind: str  # "state-column" | "effect-row"
    coords: np.ndarray
    basis_label: str


def vectorize(
    op: np.ndarray, kind: str, basis: OperatorBasis
) -> VectorizedOperator:
    """Coordinates Tr[A_i^dag rho] for states, Tr[M^dag A_i] for effects."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (basis.dim, basis.dim):
        raise ValueError("operator dimension does not match basis")
    if kind == "state-column":
        coords = np.array([np.trace(a.conj().T @ op) for a in basis.elements])
    elif kind == "effect-row":
        coords = np.array([np.trace(op.conj().T @ a) for a in basis.elements])
    else:
        raise ValueError(f"unknown vectorization kind {kind!r}")
    return VectorizedOperator(kind=kind, coords=coords, basis_label=basis.label)


def born_probability(effect: VectorizedOperator, state: VectorizedOperator) -> complex:
    """(M|rho) = sum_i effect_i state_i = Tr[M^dag rho]."""
    if effect.kind != "effect-row" or state.kind != "state-column":
        raise ValueError("born_probability needs an effect row and a state column")
    if effect.basis_label != state.basis_label:
        raise ValueError("effect and state are expressed in different bases")
    return complex(np.dot(effect.coords, state.coords))


def kraus_liouville(kraus) -> np.ndarray:
    """sum_k kron(K_k, K_k.conj()), one Kronecker product per Kraus operator."""
    d2 = np.shape(kraus[0])[0] ** 2
    acc = np.zeros((d2, d2), dtype=complex)
    for k in kraus:
        acc += np.kron(k, k.conj())
    return acc


def mix(channels, weights=None) -> Channel:
    """The convex mixture sum_i w_i E_i of channels on one space, uniform by default: the
    Kraus union scaled by sqrt(w_i), with sum_i w_i L_i as one np.dot of the weights and the
    members' Liouville stack, the arithmetic of ``NoiseAssignment``'s uniform average."""
    n = len(channels)
    weights = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, dtype=float)
    scales = np.repeat(np.sqrt(weights), [len(ch.kraus) for ch in channels])
    kraus = scales[:, None, None] * np.concatenate([ch.kraus for ch in channels])
    lios = np.array([ch.liouville for ch in channels])
    mean = np.dot(weights[None], lios.reshape(n, -1)).reshape(lios.shape[1:])
    return Channel(channels[0].space, kraus, mean)


def matrix_to_pairs(m: np.ndarray) -> list:
    """The row-major list of [re, im] pairs that an input document holds a matrix as."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).reshape(-1)]


def channel_to_dict(ch: Channel) -> dict:
    """The channel JSON of ``ch``, which ``channel_from_dict`` reads back."""
    return {"d1": ch.space.d1, "d2": ch.space.d2, "kraus": [matrix_to_pairs(k) for k in ch.kraus]}


def apply_kraus(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag, one Kraus operator at a time."""
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def incoherent_survival(ch: Channel) -> float:
    """Tr[E(I/d)] by one Kraus application to the maximally mixed state."""
    d = ch.space.d
    return float(np.trace(apply_kraus(ch.kraus, np.eye(d) / d)).real)


def transfer_block(ch: Channel) -> np.ndarray:
    """The 2 x 2 block Tr[P_a E(P_b)] / sqrt(d_a d_b) of a channel with a leakage subspace,
    one Kraus application per projector."""
    space = ch.space
    projectors = (space.code_projector, space.leak_projector)
    dims = np.array([space.d1, space.d2])
    images = [apply_kraus(ch.kraus, p) for p in projectors]
    traces = np.array([[np.trace(pa @ eb).real for eb in images] for pa in projectors])
    return traces / np.sqrt(np.outer(dims, dims))


def decay_eigenvalues(block: np.ndarray) -> tuple:
    """The roots (plus, minus) of a 2 x 2 block's characteristic polynomial in closed form:
    tr/2 +- sqrt((s11 - s22)^2 + 4 s12 s21) / 2."""
    s11, s22 = block[0, 0], block[1, 1]
    half_tr = (s11 + s22) / 2.0
    half_gap = np.sqrt(complex((s11 - s22) ** 2 + 4.0 * block[0, 1] * block[1, 0])) / 2.0
    plus, minus = half_tr + half_gap, half_tr - half_gap
    if abs(plus.imag) < DEFAULT_TOL and abs(minus.imag) < DEFAULT_TOL:
        return float(plus.real), float(minus.real)
    return complex(plus), complex(minus)


def kraus_sum(kraus) -> np.ndarray:
    """sum_k K_k^dag K_k, one Kraus operator at a time."""
    d = np.shape(kraus[0])[0]
    acc = np.zeros((d, d), dtype=complex)
    for k in kraus:
        acc += k.conj().T @ k
    return acc


def group_deviation(gates) -> float:
    """Largest entry of |T^2 - T|, |T G_g - T| and |G_g T - T| over the gates,
    for the twirl T averaged from per-gate Kronecker products G_g."""
    lios = [np.kron(g, g.conj()) for g in gates]
    avg = sum(lios) / len(lios)
    dev = np.max(np.abs(avg @ avg - avg))
    for g_lio in lios:
        dev = max(dev, np.max(np.abs(avg @ g_lio - avg)))
        dev = max(dev, np.max(np.abs(g_lio @ avg - avg)))
    return float(dev)


def gate_dependence_epsilon(gates, channels) -> float:
    """d sigma_max(avg_g [G_g E_g] - T E_avg), accumulated one gate at a time."""
    d = np.shape(gates[0])[0]
    lios = [np.kron(g, g.conj()) for g in gates]
    noise = [kraus_liouville(ch.kraus) for ch in channels]
    delta = np.zeros((d * d, d * d), dtype=complex)
    for g_lio, e_lio in zip(lios, noise):
        delta += g_lio @ e_lio
    delta /= len(lios)
    delta -= (sum(lios) / len(lios)) @ (sum(noise) / len(noise))
    return d * float(np.linalg.svd(delta, compute_uv=False)[0])


def averaged_step(gates, channels=None) -> np.ndarray:
    """mean_g L(G_g) L(E_g), or the twirl without noise, from Kronecker products built
    afresh and multiplied and averaged as stacks, in the program's order."""
    lios = np.array([np.kron(g, g.conj()) for g in gates])
    if channels is not None:
        lios = lios @ np.array([kraus_liouville(ch.kraus) for ch in channels])
    return lios.mean(axis=0)


def powered_expectation(m: int, step: np.ndarray, effect, state) -> float:
    """effect . step^m . state, the step applied m times afresh."""
    for _ in range(m):
        state = step @ state
    return float(np.real(effect @ state))


def stacked_gate_dependence_epsilon(gates, channels) -> float:
    """d sigma_max(S - T E_avg) of :func:`averaged_step` S, the twirl T and the mean
    E_avg = sum_g L(E_g) / |G| taken as ``NoiseAssignment`` takes its uniform average."""
    noise = np.array([kraus_liouville(ch.kraus) for ch in channels])
    average = np.tensordot(np.full(len(channels), 1.0 / len(channels)), noise, axes=1)
    delta = averaged_step(gates, channels) - averaged_step(gates) @ average
    return np.shape(gates[0])[0] * float(np.linalg.svd(delta, compute_uv=False)[0])


def projectors(space: SpaceSpec) -> tuple:
    """P_H1 and P_H2 as d x d matrices, built entry by entry."""
    d = space.d
    code, leak = np.zeros((d, d), dtype=complex), np.zeros((d, d), dtype=complex)
    code[: space.d1, : space.d1] = np.eye(space.d1)
    leak[space.d1 :, space.d1 :] = np.eye(space.d2)
    return code, leak


def twirl_basis(space: SpaceSpec) -> np.ndarray:
    """vec(P_H1)/sqrt(d1) and vec(P_H2)/sqrt(d2) as columns, vec(I)/sqrt(d) without leakage."""
    if space.d2 == 0:
        return vec(np.eye(space.d))[:, None] / np.sqrt(space.d)
    code, leak = projectors(space)
    return np.column_stack([vec(code) / np.sqrt(space.d1), vec(leak) / np.sqrt(space.d2)])


def predicted_expectation(m: int, channel: Channel) -> float:
    """effect . A B^(m-1) A^dag L . state under ideal SPAM, its frame built afresh."""
    spam, basis = SpamSpec.ideal(channel.space), twirl_basis(channel.space)
    block = (basis.conj().T @ channel.liouville @ basis).real
    state = basis.conj().T @ (channel.liouville @ spam.state_vector())
    return powered_expectation(m - 1, block, spam.effect_vector() @ basis, state)


def numeric_rank(matrix: np.ndarray, tol: float = 0.5) -> int:
    """Numeric rank; a projector has singular values 0 or 1."""
    return int(np.sum(np.linalg.svd(matrix, compute_uv=False) > tol))


def sample_sequence(m: int, n_gates: int, rng) -> tuple:
    """m independent gate indices, uniform on {0, ..., n_gates - 1}."""
    if m < 1 or n_gates < 1:
        raise ValueError("sequence length and gate count must be >= 1")
    gen = as_generator(rng)
    return tuple(int(i) for i in gen.integers(0, n_gates, size=m))


def run_sequence(indices, gateset, noise, spam=None, rng=None) -> float:
    """Exact survival probability of one gate sequence.

    Each step applies the error channel for the sampled gate and then the
    ideal gate; stochastic noise draws a fresh channel per step from ``rng``.
    The probability is the Born pairing of the (possibly SPAM-corrupted)
    effect row with the evolved state column.
    """
    if noise is not None and noise.space != gateset.space:
        raise ValueError("noise assignment acts on a different space")
    if spam is None:
        spam = SpamSpec.ideal(gateset.space)
    gate_lios = gateset.gate_liouvilles
    state = spam.state_vector()
    for idx in indices:
        if not 0 <= idx < len(gateset):
            raise ValueError(f"gate index {idx} out of range")
        if noise is not None and noise.stochastic:
            if rng is None:
                raise ValueError("stochastic noise needs a random generator")
            state = sample_coherent_noise(noise.sampler, rng).liouville @ state
        elif noise is not None:
            state = noise.channels[idx].liouville @ state
        state = gate_lios[idx] @ state
    return float(np.real(spam.effect_vector() @ state))


def shot_estimate(p: float, shots: int, rng) -> float:
    """Finite-sampling estimate of a probability: successes / shots."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not -DEFAULT_TOL <= p <= 1.0 + DEFAULT_TOL:
        raise ValueError(f"probability {p} outside [0, 1]")
    gen = as_generator(rng)
    return float(gen.binomial(shots, min(max(p, 0.0), 1.0))) / shots


def filter_params(rng) -> FilterParams:
    """One filter draw: p uniform on [0, 0.05], then normal triples until one has
    norm >= 1e-12, normalized by ``np.linalg.norm``."""
    gen = as_generator(rng)
    p = float(gen.uniform(0.0, 0.05))
    v = gen.normal(size=3)
    while np.linalg.norm(v) < 1e-12:
        v = gen.normal(size=3)
    return FilterParams(p=p, bloch=tuple(v / np.linalg.norm(v)))


def filter_channel(fp: FilterParams) -> Channel:
    """The filter channel with Kraus operators sqrt(p) (I + r.sigma)/2 and sqrt(1-p) I."""
    rx, ry, rz = fp.bloch
    proj = (np.eye(2, dtype=complex) + rx * PAULI_X + ry * PAULI_Y + rz * PAULI_Z) / 2.0
    kraus = [np.sqrt(fp.p) * proj, np.sqrt(1.0 - fp.p) * np.eye(2, dtype=complex)]
    return Channel(SpaceSpec(d1=2, d2=0), kraus)


def filter_diagnostics(draws: int = 50, tol: float = 1e-10):
    """The filter check of ``leakbench check``, one channel at a time: ``draws`` channels
    from the stream (7, 99), each through ``cp_tp_diagnostics`` and one more
    ``eigvalsh`` of its Kraus sum; returns (passed, detail)."""
    gen = RandomStream(7, key=(99,)).generator()
    worst = 0.0
    for _ in range(draws):
        fp = filter_params(gen)
        ch = filter_channel(fp)
        diag = cp_tp_diagnostics(ch, tol=tol)
        if not (diag.is_cp and diag.is_trace_nonincreasing):
            return False, "filter channel failed CP / trace-nonincreasing"
        eigs = np.sort(np.linalg.eigvalsh(ch.kraus_sum()))
        worst = max(worst, float(np.max(np.abs(eigs - [1.0 - fp.p, 1.0]))))
    return worst <= tol, f"max spectrum deviation from {{1, 1-p}} = {worst:.2e}"


def shelving_pulse(gamma: float) -> np.ndarray:
    """The imperfect shelving unitary 1 (+) [[i sin g, cos g], [cos g, i sin g]].

    gamma = 0 gives the ideal pulse 1 (+) X swapping the upper two levels.
    """
    s, c = np.sin(gamma), np.cos(gamma)
    pulse = np.eye(3, dtype=complex)
    pulse[1:, 1:] = [[1j * s, c], [c, 1j * s]]
    return pulse


def code_rotation(phi: float, u: np.ndarray) -> np.ndarray:
    """exp(i phi U X U^dag) on the code space, direct-summed with 1.

    U X U^dag is an involution, so the exponential reduces to the closed form
    cos(phi) I + i sin(phi) U X U^dag.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2) or np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-9:
        raise ValueError("code_rotation needs a 2 x 2 unitary")
    axis = u @ PAULI_X @ u.conj().T
    rotation = np.eye(3, dtype=complex)
    rotation[:2, :2] = np.cos(phi) * np.eye(2) + 1j * np.sin(phi) * axis
    return rotation


def haar_unitary(dim: int, rng) -> np.ndarray:
    """A Haar-random unitary via QR of a complex Ginibre matrix.

    The R-factor diagonal is rotated to be real-positive, which makes the
    factorization unique and the distribution left-invariant.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    gen = as_generator(rng)
    z = (gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


#: Draws per chunk of the Monte Carlo average; bounds its peak memory.
_MC_CHUNK = 10_000


def _haar_entries(z: np.ndarray):
    """Entries (u00, u01, u10, u11) of Haar-random 2 x 2 unitaries from Ginibre z (..., 2, 2).

    Closed-form Gram-Schmidt with R's diagonal real-positive, the same unique
    Q as the QR plus phase fix of :func:`haar_unitary`: the first column (a, c)
    is z's first normalized, the second is (-c*, a*) times the phase of its
    overlap w with z's second column.
    """
    z00, z01, z10, z11 = z[..., 0, 0], z[..., 0, 1], z[..., 1, 0], z[..., 1, 1]
    norm = np.sqrt(np.abs(z00) ** 2 + np.abs(z10) ** 2)
    a, c = z00 / norm, z10 / norm
    w = a * z11 - c * z01
    e = w / np.abs(w)
    return a, -e * c.conj(), c, e * a.conj()


def shelving_unitaries(phi: float, gammas: np.ndarray, z1: np.ndarray, z2: np.ndarray):
    """Composite unitaries V(g2) R(u2) V(g1) R(u1) on the qutrit, batched.

    gammas (..., 2) holds the pulse angles g1, g2; z1 and z2 (..., 2, 2) are
    the Ginibre matrices of u1 and u2.  The product is formed entry by entry
    from the block structure: R(u) = (cos(phi) I + i sin(phi) u X u^dag) (+) 1
    mixes levels {0, 1} and V(g) = 1 (+) [[i sin g, cos g], [cos g, i sin g]]
    mixes levels {1, 2}.  Returns (..., 3, 3).
    """
    rotations = []
    for z in (z1, z2):
        u00, u01, u10, u11 = _haar_entries(z)
        # u X u^dag is Hermitian and traceless: [[h, k], [k*, -h]].
        h, k = 2.0 * np.real(u00 * u01.conj()), u01 * u10.conj() + u00 * u11.conj()
        cos_phi, isin_phi = np.cos(phi), 1j * np.sin(phi)
        rotations.append(
            (cos_phi + isin_phi * h, isin_phi * k, isin_phi * k.conj(), cos_phi - isin_phi * h)
        )
    (a00, a01, a10, a11), (b00, b01, b10, b11) = rotations
    # Rows of V(g1) R(u1), then rows {0, 1} after R(u2), then rows {1, 2} after V(g2).
    c, i_s = np.cos(gammas[..., 0]), 1j * np.sin(gammas[..., 0])
    p0, p1, p2 = (a00, a01, 0.0 * c), (i_s * a10, i_s * a11, c), (c * a10, c * a11, i_s)
    q0 = [b00 * x + b01 * y for x, y in zip(p0, p1)]
    q1 = [b10 * x + b11 * y for x, y in zip(p0, p1)]
    c, i_s = np.cos(gammas[..., 1]), 1j * np.sin(gammas[..., 1])
    r1 = [i_s * x + c * y for x, y in zip(q1, p2)]
    r2 = [c * x + i_s * y for x, y in zip(q1, p2)]
    return np.moveaxis(np.array([q0, r1, r2], dtype=complex), (0, 1), (-2, -1))


def averaged_coherent_channel(
    sp: ShelvingParams, n_samples: int, rng, batch_size: int = 50_000
) -> Channel:
    """Monte Carlo average of the shelving-noise channel over its parameters.

    The Liouville matrix is the mean over n_samples independent draws; the
    returned channel serves as the theory oracle for the coherent survival
    rate.  Each batch draws the pulse angles (b, 2), then the real and
    imaginary parts of the first and of the second Ginibre matrices, so the
    result is fully determined by the stream and the batch size.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = as_generator(rng)
    gram = np.zeros((9, 9), dtype=complex)  # sum of vec(U) vec(U)^dag
    for start in range(0, n_samples, batch_size):
        b = min(batch_size, n_samples - start)
        gammas = gen.normal(0.0, sp.sigma_gamma, size=(b, 2))
        z1 = gen.normal(size=(b, 2, 2)) + 1j * gen.normal(size=(b, 2, 2))
        z2 = gen.normal(size=(b, 2, 2)) + 1j * gen.normal(size=(b, 2, 2))
        for lo in range(0, b, _MC_CHUNK):
            hi = lo + _MC_CHUNK
            u = shelving_unitaries(sp.phi, gammas[lo:hi], z1[lo:hi], z2[lo:hi]).reshape(-1, 9)
            gram += u.T @ u.conj()
    # Reorder [(i, j), (k, l)] to the Liouville index [(i, k), (j, l)] of kron(U, U*).
    total = gram.reshape(3, 3, 3, 3).transpose(0, 2, 1, 3).reshape(9, 9)
    return Channel.from_liouville(QUTRIT, total / n_samples)


def least_scanned_cost(model, ms, ys, w, points: int = 8001, pair_points: int = 71) -> float:
    """The least weighted sum of squared residuals over a grid of decays in [-1, 1].

    Each grid point's amplitudes come from one ``np.linalg.lstsq`` of the
    sqrt(w)-weighted columns decay^(m-1) (and 1 for a constant term).  One
    decay is scanned on ``points`` values, two on all pairs of
    ``pair_points`` values.
    """
    ms, ys, w = (np.asarray(a, dtype=float) for a in (ms, ys, w))
    sw, n_decays = np.sqrt(w), len(model.decay_params)
    values = np.linspace(-1.0, 1.0, points if n_decays == 1 else pair_points)
    best = np.inf
    for decays in itertools.product(values, repeat=n_decays):
        cols = [np.power(decay, (ms - 1).astype(int)) for decay in decays]
        cols += [np.ones_like(ms)] * (model.n_amplitudes - n_decays)
        a = np.column_stack(cols)
        amps = np.linalg.lstsq(sw[:, None] * a, sw * ys, rcond=None)[0]
        best = min(best, float(np.sum(w * (ys - a @ amps) ** 2)))
    return best


def least_pair_cost(ms, ys, w, grid) -> float:
    """The least weighted sum of squared residuals of a_1 l_1^(m-1) + a_2 l_2^(m-1) over
    every pair l_1 >= l_2 of ``grid``, the amplitudes of each from its pseudo-inverse.

    All pairs are solved at once, through one stacked ``np.linalg.pinv`` of the
    sqrt(w)-weighted (len(ms), 2) columns; a pair of equal decays is rank 1.
    """
    ms, ys, w, grid = (np.asarray(a, dtype=float) for a in (ms, ys, w, grid))
    sw = np.sqrt(w)
    cols = sw * np.power(grid[:, None], (ms - 1).astype(int))
    first, second = np.triu_indices(grid.size)
    pairs = np.stack([cols[first], cols[second]], axis=-1)
    amps = np.linalg.pinv(pairs) @ (sw * ys)
    resid = sw * ys - (pairs @ amps[..., None])[..., 0]
    return float((resid * resid).sum(axis=-1).min())


def gauss_newton_step(model, x, ms, ys, w, free) -> float:
    """The decay part of the Gauss-Newton step at ``x`` of the projected problem: one
    ``np.linalg.lstsq`` over the sqrt(w)-weighted Jacobian's ``free`` columns, the
    amplitudes first and the refined decay after them."""
    sw = np.sqrt(w)
    jac, resid = sw[:, None] * model.jacobian(x, ms)[:, free], sw * (ys - model.predict(x, ms))
    return np.linalg.lstsq(jac, resid, rcond=None)[0][model.n_amplitudes]


def projected_amplitudes(model, decays, ms, ys, w) -> np.ndarray:
    """The best amplitudes at ``decays`` from their weighted normal equations, as the
    fit solved them at each point before its closed-form step."""
    cols = model.basis(decays, ms)
    weighted = cols * w[:, None]
    d, q = (weighted * cols).sum(axis=-2), (weighted[..., 0] * cols[..., -1]).sum(axis=-1)
    return np.stack(fitting._amplitudes(d.T, q, (ys @ weighted).T), axis=-1)


def projected_search(model, ms, ys, w, head=(), visits=None):
    """(params, converged, steps) of the variable-projection search of ``leakbench.fitting``
    with its every step taken by :func:`gauss_newton_step`, its amplitudes by
    :func:`projected_amplitudes`; the grid scan, bracket, uphill and stopping rules are the fit's.

    ``visits``, when given, collects (params, head) at each point of the
    one-free-decay level, where the fit takes its step in closed form.
    """
    last = len(head) + 1 == len(model.decay_params)
    parity = (ms - 1) % 2
    lower = 0.0 if parity.min() == parity.max() else -1.0
    grid = np.linspace(lower, 1.0, fitting._GRID_POINTS)[:: 1 if last else 2]
    at = fitting._scan(model, head, grid, ms, ys, w)
    decay, lo, hi = grid[at], grid[max(at - 1, 0)], grid[min(at + 1, grid.size - 1)]
    free = [*range(model.n_amplitudes), *range(model.n_amplitudes + len(head), model.n_params)]
    eps, size, steps = np.finfo(float).eps, np.inf, 0
    best, uphill = None, 64 * eps * float(w @ (ys * ys))
    for _ in range(fitting._MAX_ITERATIONS):
        decays = np.append(head, decay)
        if last:
            x, converged = np.append(projected_amplitudes(model, decays, ms, ys, w), decays), True
            if visits is not None:
                visits.append((x, tuple(head)))
        else:
            x, converged, inner = projected_search(model, ms, ys, w, tuple(decays), visits)
            steps += inner
        steps += 1
        if not converged:
            break
        if not last:
            cost = fitting._cost(model, x, ms, ys, w)
            if best is not None and cost > best[0] + uphill:
                _, x, best_decay = best
                lo, hi = (lo, decay) if decay > best_decay else (decay, hi)
                decay, size = (decay + best_decay) / 2, abs(decay - best_decay) / 2
                if size <= 4 * eps:
                    return x, True, steps
                continue
            best = cost, x, decay
        step = gauss_newton_step(model, x, ms, ys, w, free)
        lo, hi = (decay, hi) if step > 0 else (lo, decay)
        if abs(step) <= 4 * eps or hi - lo <= 4 * eps:
            return x, True, steps
        if lo < decay + step < hi and abs(step) < size / 2:
            decay, size = decay + step, abs(step)
        else:
            decay, size = (lo + hi) / 2, (hi - lo) / 2
    return x, False, steps
