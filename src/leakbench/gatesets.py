"""Gate groups, twirl projectors and gate-dependence diagnostics.

Two named groups are provided: the single-qubit Paulis (for incoherent
leakage, no leakage subspace) and the signed shelving group {P (+) +-1} on a
qutrit (for coherent leakage).  Arbitrary groups of the form {v (+) +-w} can
be assembled from any pair of unitary 1-designs on the two subspaces.
"""

from __future__ import annotations

import functools
import json
import weakref

import numpy as np

from .liouville import (
    DEFAULT_TOL,
    DIMENSIONS,
    REQUIRED,
    Channel,
    SpaceSpec,
    _kron_conj,
    _operator_stack,
    _read_only,
    complex_entries,
    list_of,
    mix,
    read_operators,
    text,
    transfer_matrix,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)


class GateSet:
    """A finite set of unitaries on H whose averaged action is a group average.

    The read-only ``gates`` (n, d, d), their Liouville matrices
    ``gate_liouvilles`` kron(g, g.conj()) (n, d^2, d^2), phase-invariant, and
    their mean ``twirl_matrix``, idempotent for a group, are formed when the
    set is made.  Construction verifies unitarity and the projector property
    of the averaged conjugation action, which is what sequence averaging
    relies on; an unpickled or copied set is made, and so verified, again.
    """

    def __init__(self, space: SpaceSpec, gates, label: str):
        self.space = space
        self.gates = _operator_stack(gates, space.d, "gates")
        self.label = label
        self.gate_liouvilles = _read_only(_kron_conj(self.gates))
        self.twirl_matrix = _read_only(self.gate_liouvilles.mean(axis=0))
        self._check_unitary()
        self._check_group_structure()

    def _check_unitary(self, tol: float = DEFAULT_TOL):
        devs = np.abs(self.gates @ self.gates.conj().swapaxes(1, 2) - np.eye(self.space.d))
        bad = np.flatnonzero(devs.max(axis=(1, 2)) > tol)
        if bad.size:
            raise ValueError(f"gate {bad[0]} of {self.label!r} is not unitary")

    def _check_group_structure(self, tol: float = 1e-7):
        # Group structure is verified through the averaged action: the twirl
        # must be idempotent and absorb every member from both sides.  Block
        # sets like {P (+) +-1} close only up to subspace-relative phases
        # ((X (+) -1)(Y (+) -1) = iZ (+) 1), which a literal matrix-closure
        # test would reject but the averaged action cancels.
        avg, lios = self.twirl_matrix, self.gate_liouvilles
        dev = np.max(np.abs(np.concatenate([[avg @ avg], avg @ lios, lios @ avg]) - avg))
        if dev > tol:
            raise ValueError(
                f"gate set {self.label!r} does not average like a group "
                f"(deviation {dev:.3e})"
            )

    def __len__(self) -> int:
        return len(self.gates)

    def __reduce__(self):
        return GateSet, (self.space, self.gates, self.label)


def pauli_gateset() -> GateSet:
    """{I, X, Y, Z} on a qubit with no leakage subspace."""
    return GateSet(SpaceSpec(d1=2, d2=0), PAULIS, label="pauli")


def shelving_gateset() -> GateSet:
    """{P (+) +1, P (+) -1 : P = I, X, Y, Z} on a qutrit (d1=2, d2=1)."""
    return signed_design_gateset(
        code_gates=PAULIS, leak_gates=[np.eye(1)], label="shelving"
    )


def signed_design_gateset(code_gates, leak_gates, label: str) -> GateSet:
    """All v (+) mu*w for v, w in the given 1-designs and mu = +-1.

    The two input sets must be unitary 1-designs on the code and leakage
    subspaces for the resulting twirl to have the two-projector form.
    """
    code_gates = np.array(code_gates, dtype=complex)
    leak_gates = np.array(leak_gates, dtype=complex)
    (n1, d1, _), (n2, d2, _) = code_gates.shape, leak_gates.shape
    # Gate (v, w, mu) of the product order v-major, then w, then mu = +1, -1.
    gates = np.zeros((n1, n2, 2, d1 + d2, d1 + d2), dtype=complex)
    gates[..., :d1, :d1] = code_gates[:, None, None]
    gates[..., d1:, d1:] = np.array([1.0, -1.0])[:, None, None] * leak_gates[:, None]
    return GateSet(SpaceSpec(d1=d1, d2=d2), gates.reshape(-1, d1 + d2, d1 + d2), label=label)


class TwirlProjector:
    """The averaged conjugation action of a gate set, in Liouville form."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def twirl(gs: GateSet) -> TwirlProjector:
    """Average of kron(g, g.conj()) over the set (:attr:`GateSet.twirl_matrix`)."""
    return TwirlProjector(gs.twirl_matrix)


def predicted_twirl_matrix(space: SpaceSpec) -> np.ndarray:
    """Closed form A A^dag of the twirl for a 1-design structure on the space.

    A is :attr:`SpaceSpec.twirl_basis`: the vectorized normalized identity
    without leakage, the normalized subspace projectors P_H1/sqrt(d1) and
    P_H2/sqrt(d2) with it.
    """
    basis = space.twirl_basis
    return basis @ basis.conj().T


class NoiseAssignment:
    """Per-gate error channels for a gate set.

    Either a fixed tuple of channels (one per gate index) or a stochastic
    sampler drawing a fresh channel at every application.  Fixed noise holds,
    formed when it is made, the read-only stack ``liouvilles`` (n_gates, d^2,
    d^2) of its channels' Liouville matrices and their uniform mixture
    ``average`` (the channel itself when every gate has the same one), which
    the :class:`ExactModel` on each gate set reads; stochastic noise has None
    for both.  A copy is made anew, without the weak cache of exact models,
    which pickle cannot hold.
    """

    def __init__(self, space: SpaceSpec, channels=None, sampler=None):
        if (channels is None) == (sampler is None):
            raise ValueError("provide exactly one of channels or sampler")
        self.liouvilles = self.average = None
        if channels is not None:
            channels = tuple(channels)
            if not channels:
                raise ValueError("fixed noise needs a channel per gate, got an empty channel list")
            if any(ch.space != space for ch in channels):
                raise ValueError("noise channels act on a different space")
            self.liouvilles = _read_only(np.array([ch.liouville for ch in channels]))
            one = all(ch is channels[0] for ch in channels)
            self.average = channels[0] if one else mix(channels)
        self.space = space
        self.channels = channels
        self.sampler = sampler
        self._models = weakref.WeakKeyDictionary()

    def __reduce__(self):
        return NoiseAssignment, (self.space, self.channels, self.sampler)

    @classmethod
    def uniform(cls, channel: Channel, n_gates: int) -> "NoiseAssignment":
        """The same fixed channel on every gate."""
        return cls(channel.space, channels=[channel] * n_gates)

    @property
    def stochastic(self) -> bool:
        return self.sampler is not None

    def exact_model(self, gs: GateSet) -> "ExactModel":
        """The :class:`ExactModel` of this fixed noise on ``gs``, built on first use."""
        if gs not in self._models:
            if self.stochastic:
                raise ValueError("the exact model needs a deterministic noise assignment")
            self._models[gs] = ExactModel(gs, self.liouvilles, self.average)
        return self._models[gs]


class ExactModel:
    """The exact values of a gate set under fixed noise, formed once, read-only.

    From the noise's per-gate Liouville matrices ``liouvilles`` and their
    uniform mixture ``average`` it forms the |G| steps L(G_g) L(E_g) that
    :func:`~leakbench.protocol.run_sequences` evolves; their mean S, whose
    powers give the sequence average effect . S^m . state
    (:func:`~leakbench.protocol.exact_expectations`); ``epsilon``
    (:func:`gate_dependence_epsilon`); the transfer block B of ``average``
    (:func:`transfer_matrix`), whose powers give the twirled average
    (:func:`~leakbench.protocol.predicted_expectation`).  Only ``decay``, read
    once per oracle, is computed on each read.  The two averages agree under
    gate-independent noise and differ by O(m epsilon) otherwise (Wallman,
    Quantum 2, 47 (2018)).  The model holds no reference to its gate set.
    """

    def __init__(self, gs: GateSet, liouvilles: np.ndarray, average: Channel):
        if len(liouvilles) != len(gs):
            raise ValueError("noise assignment does not match the gate count")
        self.steps = _read_only(gs.gate_liouvilles @ liouvilles)
        self.mean = _read_only(self.steps.mean(axis=0))
        delta = self.mean - gs.twirl_matrix @ average.liouville
        self.epsilon = gs.space.d * float(np.linalg.svd(delta, compute_uv=False)[0])
        self.average = average
        self.transfer = _read_only(transfer_matrix(average))

    @property
    def decay(self) -> float:
        """The least real part of B's eigenvalues, the oracle decay, computed on each read."""
        return float(np.linalg.eigvals(self.transfer).real.min())


def average_noise(na: NoiseAssignment) -> Channel:
    """The uniform mixture of the per-gate channels.

    The Kraus list is the union of member lists scaled by 1/sqrt(n), so the
    Liouville matrix is the arithmetic mean of the members'; noise with one
    channel on every gate has that channel as its mixture.  Every call on
    ``na`` returns the same channel.
    """
    if na.stochastic:
        raise ValueError(
            "stochastic noise has no fixed average; use a Monte Carlo "
            "average with a declared sample count instead"
        )
    return na.average


def gate_dependence_epsilon(gs: GateSet, na: NoiseAssignment) -> float:
    """d * sigma_max(S - twirl @ E_avg), the :class:`ExactModel`'s proxy upper bound on the
    size of gate-dependent noise: it bounds the diamond norm from above (the exact value
    would need an SDP), enough to confirm that the O(m * epsilon) remainder is negligible."""
    return na.exact_model(gs).epsilon


# ---------------------------------------------------------------------------
# Lookup by id / JSON loading
# ---------------------------------------------------------------------------

#: The named gate sets, each built and validated once per process.
_NAMED_GATESETS = {
    "pauli": functools.cache(pauli_gateset),
    "shelving": functools.cache(shelving_gateset),
}


def gateset_by_id(name: str) -> GateSet:
    """Resolve "pauli" or "shelving" to its shared set, or load a custom set
    afresh from a JSON file."""
    if name in _NAMED_GATESETS:
        return _NAMED_GATESETS[name]()
    if name.endswith(".json"):
        with open(name, "r", encoding="utf-8") as fh:
            return gateset_from_dict(json.load(fh))
    raise ValueError(f"unknown gate set {name!r}")


#: The gate-set JSON: {d1, d2, label, gates: [[[re, im], ...row-major...], ...]}.
GATESET_FIELDS = {
    **DIMENSIONS,
    "label": (text, "custom"),
    "gates": (list_of(complex_entries), REQUIRED),
}


def gateset_from_dict(doc: dict, path: str = "") -> GateSet:
    values, space, gates = read_operators(doc, path, GATESET_FIELDS, "gates")
    return GateSet(space, gates, label=values["label"])
