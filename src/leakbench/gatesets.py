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
    relies on.
    """

    def __init__(self, space: SpaceSpec, gates, label: str, validate: bool = True):
        self.space = space
        self.gates = _operator_stack(gates, space.d, "gates")
        self.label = label
        self.gate_liouvilles = _read_only(_kron_conj(self.gates))
        self.twirl_matrix = _read_only(self.gate_liouvilles.mean(axis=0))
        if validate:
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
        return GateSet, (self.space, self.gates, self.label, False)


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
    d^2) of its channels' Liouville matrices, which the :class:`AveragedStep`
    on each gate set reads, and their uniform mixture ``average``; stochastic
    noise has None for both.
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
            self.average = mix(channels)
        self.space = space
        self.channels = channels
        self.sampler = sampler
        self._steps = weakref.WeakKeyDictionary()

    def __reduce__(self):
        return NoiseAssignment, (self.space, self.channels, self.sampler)

    @classmethod
    def uniform(cls, channel: Channel, n_gates: int) -> "NoiseAssignment":
        """The same fixed channel on every gate."""
        return cls(channel.space, channels=[channel] * n_gates)

    @property
    def stochastic(self) -> bool:
        return self.sampler is not None

    def averaged_step(self, gs: GateSet) -> "AveragedStep":
        """The :class:`AveragedStep` of this fixed noise on ``gs``, built on first use."""
        if gs not in self._steps:
            self._steps[gs] = AveragedStep(gs, self)
        return self._steps[gs]


class AveragedStep:
    """The exact averaged step of fixed noise on a gate set, computed once per pair.

    ``steps`` stacks the |G| step matrices L(G_g) L(E_g), with L(E_g) read
    from the noise's ``liouvilles``, and their mean S averages a sequence of
    length m to effect . S^m . state; both are read-only.  ``epsilon`` is
    :func:`gate_dependence_epsilon`.  The entry holds no reference to its
    gate set, which keys it weakly.
    """

    def __init__(self, gs: GateSet, na: NoiseAssignment):
        if na.stochastic:
            raise ValueError("the exact averaged step needs a deterministic noise assignment")
        if len(na.channels) != len(gs):
            raise ValueError("noise assignment does not match the gate count")
        self.steps = _read_only(gs.gate_liouvilles @ na.liouvilles)
        self.mean = _read_only(self.steps.mean(axis=0))
        delta = self.mean - gs.twirl_matrix @ na.average.liouville
        self.epsilon = gs.space.d * float(np.linalg.svd(delta, compute_uv=False)[0])


def average_noise(na: NoiseAssignment) -> Channel:
    """The uniform mixture of the per-gate channels.

    The Kraus list is the union of member lists scaled by 1/sqrt(n), so the
    Liouville matrix is the arithmetic mean of the members'.  Every call on
    ``na`` returns the same channel.
    """
    if na.stochastic:
        raise ValueError(
            "stochastic noise has no fixed average; use a Monte Carlo "
            "average with a declared sample count instead"
        )
    return na.average


def gate_dependence_epsilon(gs: GateSet, na: NoiseAssignment) -> float:
    """Proxy upper bound on the worst-case size of gate-dependent noise variation.

    Builds Delta = avg_g [g_lio @ E_g] - twirl @ E_avg in Liouville form and
    returns d * sigma_max(Delta).  This bounds the diamond norm of Delta from
    above but is not the exact value (that would need an SDP); it suffices to
    confirm the O(m * epsilon) remainder is negligible.
    """
    return na.averaged_step(gs).epsilon


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
