import copy
import json
import pickle

import numpy as np
import pytest
from helpers import random_channel, random_density, random_hermitian
from reference import (
    OperatorBasis,
    apply_kraus,
    born_probability,
    channel_to_dict,
    decay_eigenvalues,
    elementary_basis,
    haar_unitary,
    incoherent_survival,
    kraus_liouville,
    kraus_sum,
    matrix_to_pairs,
    mix,
    normalized_pauli_basis,
    shelving_pulse,
    to_liouville,
    transfer_block,
    vectorize,
)

import leakbench as lb
from leakbench import Channel, SpaceSpec
from leakbench.gatesets import PAULI_X, NoiseAssignment
from leakbench.liouville import (
    DEFAULT_TOL,
    ConfigError,
    _kron_conj,
    channel_from_dict,
    complex_entries,
    vec,
)

QUBIT = SpaceSpec(d1=2, d2=0)
QUTRIT = SpaceSpec(d1=2, d2=1)


def filter_z(p: float) -> Channel:
    return lb.filter_channel(lb.FilterParams(p=p, bloch=(0.0, 0.0, 1.0)))


def survival(rho: np.ndarray, lio: np.ndarray, space: SpaceSpec) -> float:
    """Tr[P_H1 E(rho)] / Tr[rho] of the channel with Liouville matrix ``lio``."""
    out = lio @ vec(rho)
    return float((vec(space.code_projector).conj() @ out).real / np.trace(rho).real)


# ---------------------------------------------------------------------------
# SpaceSpec / bases
# ---------------------------------------------------------------------------


def test_space_spec_dimensions():
    s = SpaceSpec(d1=2, d2=1)
    assert s.d == 3
    assert np.allclose(s.code_projector, np.diag([1, 1, 0]))
    assert np.allclose(s.leak_projector, np.diag([0, 0, 1]))
    with pytest.raises(ValueError):
        SpaceSpec(d1=0, d2=1)
    with pytest.raises(ValueError):
        SpaceSpec(d1=2, d2=-1)


def test_elementary_basis_d1():
    basis = elementary_basis(SpaceSpec(d1=1))
    assert len(basis) == 1
    assert np.allclose(basis.elements[0], [[1.0]])


def test_elementary_basis_d2_orthonormal():
    basis = elementary_basis(QUBIT)
    assert len(basis) == 4
    expected = [np.zeros((2, 2)) for _ in range(4)]
    for k, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        expected[k][i, j] = 1.0
    for a, b in zip(basis.elements, expected):
        assert np.allclose(a, b)
    for i, a in enumerate(basis.elements):
        for j, b in enumerate(basis.elements):
            assert abs(np.trace(a.conj().T @ b) - (i == j)) < 1e-15


def test_elementary_basis_d3_gram_identity():
    basis = elementary_basis(QUTRIT)
    assert len(basis) == 9
    gram = np.array(
        [
            [np.trace(a.conj().T @ b) for b in basis.elements]
            for a in basis.elements
        ]
    )
    assert np.max(np.abs(gram - np.eye(9))) < 1e-12


def test_operator_basis_rejects_non_orthonormal():
    bad = [np.eye(2), np.eye(2), PAULI_X, 1j * PAULI_X]
    with pytest.raises(ValueError):
        OperatorBasis(bad, label="bad")


def test_normalized_pauli_basis_is_orthonormal():
    basis = normalized_pauli_basis()
    assert np.max(np.abs(basis.gram_matrix() - np.eye(4))) < 1e-12


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------


def test_kron_identities():
    # kron(A, A.conj()) of each operator of a stack, as Liouville matrices are built.
    assert np.allclose(_kron_conj(np.eye(2, dtype=complex)[None]), np.eye(4))
    xx = _kron_conj(PAULI_X[None])[0]
    assert np.allclose(xx, np.fliplr(np.eye(4)))


def test_kron_against_index_formula():
    rng = np.random.default_rng(101)
    a = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    got = _kron_conj(a)
    expected = np.zeros((2, 9, 9), dtype=complex)
    for n in range(2):
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    for l in range(3):
                        expected[n, i * 3 + k, j * 3 + l] = a[n, i, j] * a[n, k, l].conj()
    assert np.max(np.abs(got - expected)) < 1e-14


# ---------------------------------------------------------------------------
# Liouville matrices
# ---------------------------------------------------------------------------


def test_identity_channel_liouville():
    ch = Channel(QUTRIT, [np.eye(3)])
    assert np.allclose(ch.liouville, np.eye(9))


def test_unitary_channel_liouville_is_u_kron_ustar():
    rng = np.random.default_rng(5)
    u = haar_unitary(3, rng)
    ch = Channel(QUTRIT, [u])
    assert np.max(np.abs(ch.liouville - np.kron(u, u.conj()))) < 1e-12


def test_filter_liouville_matches_kraus_application():
    ch = filter_z(0.04)
    rng = np.random.default_rng(11)
    for _ in range(10):
        rho = random_density(2, rng)
        via_kraus = apply_kraus(ch.kraus, rho)
        via_liouville = (ch.liouville @ vec(rho)).reshape(2, 2)
        assert np.max(np.abs(via_kraus - via_liouville)) < 1e-12


def test_to_liouville_basis_conversion_preserves_action():
    ch = filter_z(0.03)
    basis = normalized_pauli_basis()
    lio_pauli = to_liouville(ch, basis)
    rng = np.random.default_rng(13)
    rho = random_density(2, rng)
    state = vectorize(rho, "state-column", basis)
    out_coords = lio_pauli @ state.coords
    expected = vectorize(apply_kraus(ch.kraus, rho), "state-column", basis).coords
    assert np.max(np.abs(out_coords - expected)) < 1e-12


def test_to_liouville_dimension_mismatch():
    ch = filter_z(0.03)
    with pytest.raises(ValueError):
        to_liouville(ch, elementary_basis(QUTRIT))


def test_channel_from_liouville_roundtrip():
    rng = np.random.default_rng(17)
    ch = random_channel(QUTRIT, rng)
    rebuilt = Channel.from_liouville(QUTRIT, ch.liouville)
    assert np.max(np.abs(rebuilt.liouville - ch.liouville)) < 1e-12


# ---------------------------------------------------------------------------
# Vectorization / Born rule
# ---------------------------------------------------------------------------


def test_born_rule_pure_state():
    basis = elementary_basis(QUBIT)
    rho = np.array([[1, 0], [0, 0]], dtype=complex)
    state = vectorize(rho, "state-column", basis)
    effect = vectorize(rho, "effect-row", basis)
    assert abs(born_probability(effect, state) - 1.0) < 1e-15


def test_born_rule_code_projector():
    basis = elementary_basis(QUTRIT)
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    state = vectorize(rho, "state-column", basis)
    effect = vectorize(QUTRIT.code_projector, "effect-row", basis)
    assert abs(born_probability(effect, state) - 1.0) < 1e-15


def test_born_rule_random_operators_vs_trace():
    basis = elementary_basis(QUTRIT)
    rng = np.random.default_rng(23)
    rho = random_density(3, rng)
    m = random_hermitian(3, rng)
    got = born_probability(
        vectorize(m, "effect-row", basis), vectorize(rho, "state-column", basis)
    )
    assert abs(got - np.trace(m.conj().T @ rho)) < 1e-12


def test_vectorize_rejects_bad_kind_and_shape():
    basis = elementary_basis(QUBIT)
    with pytest.raises(ValueError):
        vectorize(np.eye(2), "row", basis)
    with pytest.raises(ValueError):
        vectorize(np.eye(3), "state-column", basis)


# ---------------------------------------------------------------------------
# Survival and leakage rates
# ---------------------------------------------------------------------------


def test_survival_identity_channel():
    rng = np.random.default_rng(29)
    ch = Channel(QUBIT, [np.eye(2)])
    rho = random_density(2, rng)
    assert abs(survival(rho, ch.liouville, QUBIT) - 1.0) < 1e-12


def test_survival_filter_protected_and_orthogonal_states():
    p = 0.13
    direction = np.array([1.0, 2.0, -0.5])
    direction /= np.linalg.norm(direction)
    ch = lb.filter_channel(lb.FilterParams(p=p, bloch=tuple(direction)))
    sigma = [PAULI_X, np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    r_dot_sigma = sum(r * s for r, s in zip(direction, sigma))
    protected = (np.eye(2) + r_dot_sigma) / 2.0
    orthogonal = (np.eye(2) - r_dot_sigma) / 2.0
    # Kraus oracle: the +r projector is fixed, the -r projector is attenuated.
    assert np.max(np.abs(apply_kraus(ch.kraus, protected) - protected)) < 1e-12
    assert np.max(np.abs(apply_kraus(ch.kraus, orthogonal) - (1 - p) * orthogonal)) < 1e-12
    assert abs(survival(protected, ch.liouville, QUBIT) - 1.0) < 1e-12
    assert abs(survival(orthogonal, ch.liouville, QUBIT) - (1.0 - p)) < 1e-12


def test_incoherent_survival_trace_preserving_is_one():
    rng = np.random.default_rng(31)
    ch = random_channel(SpaceSpec(d1=3, d2=0), rng, scale=1.0)
    assert abs(lb.transfer_matrix(ch)[0, 0] - 1.0) < 1e-12


def test_incoherent_survival_filter():
    ch = filter_z(0.04)
    # Kraus oracle on the maximally mixed state.
    oracle = np.trace(apply_kraus(ch.kraus, np.eye(2) / 2)).real
    assert abs(oracle - 0.98) < 1e-12
    assert lb.transfer_matrix(ch).shape == (1, 1)
    assert abs(lb.transfer_matrix(ch)[0, 0] - 0.98) < 1e-12


def test_incoherent_survival_linear_in_mixture():
    channels = [filter_z(p) for p in (0.01, 0.02, 0.03, 0.04)]
    mixed = mix(channels)
    expected = np.mean([lb.transfer_matrix(c) for c in channels], axis=0)
    assert abs(lb.transfer_matrix(mixed)[0, 0] - expected[0, 0]) < 1e-12


def test_transfer_matrix_identity():
    s = lb.transfer_matrix(Channel(QUTRIT, [np.eye(3)]))
    assert np.max(np.abs(s - np.eye(2))) < 1e-12


def test_transfer_matrix_ideal_shelving_pulse():
    ch = Channel(QUTRIT, [shelving_pulse(0.0)])
    s = lb.transfer_matrix(ch)
    assert np.max(np.abs(s - transfer_block(ch))) < 1e-12
    # swaps the leak level with one code level
    assert np.allclose(s, [[0.5, 1 / np.sqrt(2)], [1 / np.sqrt(2), 0.0]], atol=1e-12)


def test_transfer_matrix_quarter_pulse_keeps_leak_population():
    ch = Channel(QUTRIT, [shelving_pulse(np.pi / 2)])
    s = lb.transfer_matrix(ch)
    assert np.max(np.abs(s - transfer_block(ch))) < 1e-12
    assert abs(s[1, 1] - 1.0) < 1e-12


def test_transfer_matrix_without_leak_subspace_is_incoherent_survival():
    ch = filter_z(0.01)
    s = lb.transfer_matrix(ch)
    assert s.shape == (1, 1) and s.dtype == float
    assert abs(s[0, 0] - incoherent_survival(ch)) < 1e-12


def test_decay_eigenvalues_identity_and_diagonal():
    assert decay_eigenvalues(np.eye(2)) == (1.0, 1.0)
    plus, minus = decay_eigenvalues(np.array([[1.0, 0.0], [0.0, 0.5]]))
    assert abs(plus - 1.0) < 1e-15 and abs(minus - 0.5) < 1e-15


def test_decay_eigenvalues_match_characteristic_roots():
    rng = np.random.default_rng(37)
    for _ in range(50):
        s = rng.normal(size=(2, 2))
        plus, minus = decay_eigenvalues(s)
        roots = np.roots([1.0, -np.trace(s), np.linalg.det(s)])
        got = sorted([plus, minus], key=lambda z: (np.real(z), np.imag(z)))
        expected = sorted(roots, key=lambda z: (np.real(z), np.imag(z)))
        assert np.max(np.abs(np.array(got) - np.array(expected))) < 1e-9
        assert abs((plus + minus) - np.trace(s)) < 1e-12


def test_coherent_survival_identity_is_two():
    # Tr[P1 E(P1/d1)] + Tr[P2 E(P2/d2)] is the trace of the transfer block.
    assert abs(np.trace(lb.transfer_matrix(Channel(QUTRIT, [np.eye(3)]))) - 2.0) < 1e-12


def _differential_channels():
    """Random filter channels, sampled shelving noise and mixtures of both with
    random trace-decreasing channels, on the qubit and the qutrit."""
    rng = np.random.default_rng(61)
    qubit, qutrit = [], []
    for i in range(10):
        p, r = lb.noise.sample_filter_batch(rng, 1)
        qubit.append(lb.filter_channel(lb.FilterParams(p=float(p[0]), bloch=tuple(r[0]))))
        qubit.append(mix([qubit[-1], random_channel(QUBIT, rng, scale=0.9)], [0.7, 0.3]))
        qutrit.append(lb.sample_coherent_noise(lb.ShelvingParams(), lb.RandomStream(400 + i)))
        qutrit.append(mix([qutrit[-1], random_channel(QUTRIT, rng, scale=0.95)], [0.6, 0.4]))
    return qubit, qutrit


def test_transfer_matrix_spectrum_matches_trace_formulas():
    qubit, qutrit = _differential_channels()
    for ch in qubit:
        (decay,) = np.linalg.eigvals(lb.transfer_matrix(ch))
        assert abs(decay - incoherent_survival(ch)) < 1e-12
    for ch in qutrit:
        s = lb.transfer_matrix(ch)
        assert np.max(np.abs(s - transfer_block(ch))) < 1e-12
        decays = np.sort(np.linalg.eigvals(s))[::-1]
        assert np.max(np.abs(decays - decay_eigenvalues(transfer_block(ch)))) < 1e-12


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def test_diagnostics_identity():
    d = lb.cp_tp_diagnostics(Channel(QUBIT, [np.eye(2)]))
    assert (d.is_cp, d.is_trace_nonincreasing, d.is_trace_preserving) == (True, True, True)


def test_diagnostics_filter():
    ch = filter_z(0.07)
    d = lb.cp_tp_diagnostics(ch)
    assert (d.is_cp, d.is_trace_nonincreasing, d.is_trace_preserving) == (True, True, False)
    spectrum = np.sort(np.linalg.eigvalsh(ch.kraus_sum()))
    assert np.max(np.abs(spectrum - np.array([0.93, 1.0]))) < 1e-12


def test_diagnostics_shelving_noise_trace_preserving():
    ch = lb.sample_coherent_noise(lb.ShelvingParams(), lb.RandomStream(8))
    d = lb.cp_tp_diagnostics(ch)
    assert (d.is_cp, d.is_trace_nonincreasing, d.is_trace_preserving) == (True, True, True)


def test_diagnostics_flags_trace_increasing_map():
    ch = Channel(QUBIT, [np.sqrt(1.3) * np.eye(2)])
    d = lb.cp_tp_diagnostics(ch)
    assert d.is_cp and not d.is_trace_nonincreasing


# ---------------------------------------------------------------------------
# Module invariants
# ---------------------------------------------------------------------------


def test_kraus_and_liouville_agree_on_random_channels():
    rng = np.random.default_rng(41)
    for space in (QUBIT, QUTRIT):
        for _ in range(5):
            ch = random_channel(space, rng, scale=float(rng.uniform(0.5, 1.0)))
            rho = random_density(space.d, rng)
            via_liouville = (ch.liouville @ vec(rho)).reshape(space.d, space.d)
            diff = apply_kraus(ch.kraus, rho) - via_liouville
            assert np.max(np.abs(diff)) < 1e-10


def test_stacked_channel_algebra_matches_kraus_loops():
    rng = np.random.default_rng(83)
    for space in (QUBIT, QUTRIT):
        for n_kraus in (1, 2, 16):
            ch = random_channel(space, rng, n_kraus, scale=float(rng.uniform(0.5, 1.0)))
            rho = random_density(space.d, rng)
            # The broadcast Kronecker products add in the loop's order: equal bit for bit.
            assert np.array_equal(ch.liouville, kraus_liouville(ch.kraus))
            assert np.max(np.abs(ch.kraus_sum() - kraus_sum(ch.kraus))) < 1e-14


def test_kraus_stack_is_read_only_and_list_like():
    ops = [np.eye(2), 2.0 * PAULI_X]
    ch = Channel(QUBIT, ops)
    assert ch.kraus.shape == (2, 2, 2) and len(ch.kraus) == 2
    first, second = ch.kraus
    assert np.array_equal(first, np.eye(2)) and np.array_equal(second, 2.0 * PAULI_X)
    with pytest.raises(ValueError):
        ch.kraus[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        ch.liouville[0, 0] = 5.0
    ops[0][0, 0] = 5.0  # the channel holds its own copy
    assert ch.kraus[0, 0, 0] == 1.0


def test_channel_rejects_ragged_empty_or_misshaped_kraus():
    with pytest.raises(ValueError):
        Channel(QUBIT, [np.eye(2), np.eye(3)])
    for kraus in ([np.eye(3)], [], np.zeros((0, 2, 2)), np.eye(2)):
        with pytest.raises(ValueError, match="one or more 2 x 2 matrices"):
            Channel(QUBIT, kraus)


def test_mixture_liouville_matches_its_kraus_union():
    rng = np.random.default_rng(89)
    for space in (QUBIT, QUTRIT):
        members = [random_channel(space, rng, n, scale=0.9) for n in (1, 2, 16)]
        for weights in (None, [0.2, 0.5, 0.3], [0.0, 1.0, 0.0]):
            mixed = mix(members, weights)
            assert len(mixed.kraus) == 19
            assert np.max(np.abs(mixed.liouville - kraus_liouville(mixed.kraus))) < 1e-14
            assert np.max(np.abs(mixed.liouville - Channel(space, mixed.kraus).liouville)) < 1e-14


def test_survival_rates_linear_in_channel():
    rng = np.random.default_rng(47)
    ch1 = random_channel(QUTRIT, rng, scale=0.9)
    ch2 = random_channel(QUTRIT, rng, scale=1.0)
    for alpha in (0.0, 0.25, 0.7, 1.0):
        mixed = mix([ch1, ch2], [alpha, 1.0 - alpha])
        expected = alpha * lb.transfer_matrix(ch1) + (1 - alpha) * lb.transfer_matrix(ch2)
        assert np.max(np.abs(lb.transfer_matrix(mixed) - expected)) < 1e-10


def test_full_space_survival_nonincreasing_under_composition():
    rng = np.random.default_rng(53)
    space = SpaceSpec(d1=3, d2=0)
    for _ in range(10):
        ch = random_channel(space, rng, scale=float(rng.uniform(0.6, 1.0)))
        extra = random_channel(space, rng, scale=float(rng.uniform(0.6, 1.0)))
        rho = random_density(space.d, rng)
        before = survival(rho, ch.liouville, space)
        after = survival(rho, extra.liouville @ ch.liouville, space)
        assert after <= before + 1e-12


def test_channel_json_roundtrip():
    ch = lb.sample_coherent_noise(lb.ShelvingParams(), lb.RandomStream(15))
    rebuilt = channel_from_dict(json.loads(json.dumps(channel_to_dict(ch))))
    assert rebuilt.space == ch.space
    assert len(rebuilt.kraus) == len(ch.kraus)
    assert np.max(np.abs(rebuilt.liouville - ch.liouville)) < 1e-15


def test_channel_from_dict_refuses_a_trace_increasing_channel_beyond_the_tolerance():
    # Kraus [s I] has the Kraus-sum eigenvalue s^2; up to 1 + DEFAULT_TOL is accepted.
    within = channel_to_dict(Channel(QUBIT, [np.sqrt(1.0 + 0.5 * DEFAULT_TOL) * np.eye(2)]))
    assert channel_from_dict(within, "spam.meas").kraus.shape == (1, 2, 2)
    beyond = channel_to_dict(Channel(QUBIT, [np.sqrt(1.0 + 2.0 * DEFAULT_TOL) * np.eye(2)]))
    with pytest.raises(ConfigError, match=r"^bad spam\.meas: expected a trace-nonincreasing"):
        channel_from_dict(beyond, "spam.meas")


def test_matrix_pair_roundtrip():
    rng = np.random.default_rng(59)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    entries = complex_entries(matrix_to_pairs(m), "m")
    assert np.array_equal(entries.reshape(3, 3), m)


# ---------------------------------------------------------------------------
# Every channel's Liouville matrix, formed when the channel is made
# ---------------------------------------------------------------------------


def _made_channels():
    """(how, channel, its expected Liouville matrix) for every way of making a channel."""
    rng = np.random.default_rng(31)
    own = lb.liouville.liouville_from_kraus
    stream = lb.RandomStream(5)
    pauli = lb.pauli_gateset()
    made = {
        "kraus list": random_channel(QUTRIT, rng, n_kraus=4, scale=0.97),
        "unitary": Channel(QUTRIT, [haar_unitary(3, rng)]),
        "filter_channel": lb.filter_channel(lb.FilterParams(p=0.03, bloch=(0.0, 0.6, 0.8))),
        "channel_from_dict": channel_from_dict(channel_to_dict(random_channel(QUBIT, rng))),
        "from_liouville": Channel.from_liouville(QUTRIT, random_channel(QUTRIT, rng).liouville),
    }
    assignment, _ = lb.noise.sample_filter_assignment(stream.child(0))
    gates = [{"p": 0.01 * (i + 1), "r": [0.0, 0.6, 0.8]} for i in range(len(pauli))]
    given = lb.noise.build_noise_model({"id": "filter", "params": {"gates": gates}}, pauli, stream)
    cases = [(how, ch, own(ch.kraus)) for how, ch in made.items()]
    for how, na in (("sample_filter_assignment", assignment), ("gates param", given)):
        cases += [(f"{how}[{g}]", ch, own(ch.kraus)) for g, ch in enumerate(na.channels)]
    members = [made["kraus list"], made["unitary"]]
    lios = np.array([own(ch.kraus) for ch in members])
    average = NoiseAssignment(QUTRIT, channels=members).average
    cases.append(("noise average", average, np.tensordot([0.5, 0.5], lios, axes=1)))
    copies = {"pickle": lambda x: pickle.loads(pickle.dumps(x)), "deepcopy": copy.deepcopy}
    cases += [
        (f"{name} of {how}", copy_of(ch), expected)
        for how, ch, expected in cases
        for name, copy_of in copies.items()
    ]
    return cases, (assignment, given)


def test_every_made_channel_holds_its_own_read_only_liouville_bit_for_bit():
    assert not isinstance(vars(Channel).get("liouville"), property)
    cases, assignments = _made_channels()
    for how, ch, expected in cases:
        assert "liouville" in vars(ch), how
        if not how.startswith(("pickle of", "deepcopy of")):  # a copy's flags are Python's
            assert not ch.liouville.flags.writeable, how
        assert ch.liouville.tobytes() == expected.tobytes(), how
    for na in assignments:
        stack = np.array([ch.liouville for ch in na.channels])
        assert na.liouvilles.tobytes() == stack.tobytes() and not na.liouvilles.flags.writeable


def test_mix_reads_the_stack_of_its_members():
    rng = np.random.default_rng(8)
    members = [random_channel(QUBIT, rng, n_kraus=k) for k in (1, 2, 3)]
    weights = [0.2, 0.5, 0.3]
    lios = np.array([lb.liouville.liouville_from_kraus(ch.kraus) for ch in members])
    expected = np.tensordot(weights, lios, axes=1)
    mixed = mix(members, weights)
    assert mixed.liouville.tobytes() == expected.tobytes()
