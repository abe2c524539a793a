import copy
import pickle
import re

import numpy as np
import pytest
from helpers import random_channel, random_density
from reference import (
    gate_dependence_epsilon,
    group_deviation,
    matrix_to_pairs,
    numeric_rank,
    stacked_gate_dependence_epsilon,
)

import leakbench as lb
from leakbench import Channel, GateSet, SpaceSpec
from leakbench.cli import figure_config
from leakbench.gatesets import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    gateset_by_id,
    gateset_from_dict,
    predicted_twirl_matrix,
)
from leakbench.liouville import vec
from leakbench.protocol import _experiment_components

QUBIT = SpaceSpec(d1=2, d2=0)
QUTRIT = SpaceSpec(d1=2, d2=1)


def filter_z(p):
    return lb.filter_channel(lb.FilterParams(p=p, bloch=(0.0, 0.0, 1.0)))


# ---------------------------------------------------------------------------
# Named gate sets
# ---------------------------------------------------------------------------


def test_pauli_gateset_members():
    gs = lb.pauli_gateset()
    assert len(gs) == 4
    assert gs.space == QUBIT
    for g in gs.gates:
        assert np.max(np.abs(g @ g.conj().T - np.eye(2))) < 1e-12


def test_pauli_closure_up_to_phase():
    gs = lb.pauli_gateset()
    xy = PAULI_X @ PAULI_Y
    assert np.allclose(xy, 1j * PAULI_Z)
    overlaps = [abs(np.trace(g.conj().T @ xy)) / 2 for g in gs.gates]
    assert abs(max(overlaps) - 1.0) < 1e-12


def test_shelving_gateset_members():
    gs = lb.shelving_gateset()
    assert len(gs) == 8
    assert gs.space == QUTRIT
    for g in gs.gates:
        assert g.shape == (3, 3)
        assert np.max(np.abs(g @ g.conj().T - np.eye(3))) < 1e-12


def test_shelving_gates_self_inverse_up_to_phase():
    x_minus = np.block([[PAULI_X, np.zeros((2, 1))], [np.zeros((1, 2)), -np.eye(1)]])
    assert np.max(np.abs(x_minus @ x_minus - np.eye(3))) < 1e-12


def test_gateset_rejects_non_unitary():
    with pytest.raises(ValueError, match="gate 1 of 'bad' is not unitary"):
        GateSet(QUBIT, [np.eye(2), 2.0 * PAULI_X], label="bad")


def test_gateset_rejects_non_group():
    # {I, X, Y} is not closed; its average action is not a projector.
    with pytest.raises(ValueError, match="does not average like a group"):
        GateSet(QUBIT, [np.eye(2), PAULI_X, PAULI_Y], label="broken")


def test_an_unpickled_gateset_is_validated_again(monkeypatch):
    # {I, X, Y} made with the group check patched out pickles as any set does;
    # unpickling makes it afresh, so the restored check refuses it.
    monkeypatch.setattr(GateSet, "_check_group_structure", lambda self: None)
    blob = pickle.dumps(GateSet(QUBIT, [np.eye(2), PAULI_X, PAULI_Y], label="broken"))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="'broken' does not average like a group"):
        pickle.loads(blob)


def test_gateset_rejects_ragged_or_empty_gates():
    with pytest.raises(ValueError):
        GateSet(QUBIT, [np.eye(2), np.eye(3)], label="ragged")
    with pytest.raises(ValueError, match="one or more 2 x 2 matrices"):
        GateSet(QUBIT, [], label="empty")


def test_gates_and_liouvilles_are_read_only_stacks():
    gs = lb.shelving_gateset()
    assert gs.gates.shape == (8, 3, 3) and gs.gate_liouvilles.shape == (8, 9, 9)
    with pytest.raises(ValueError):
        gs.gates[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        gs.gate_liouvilles[0, 0, 0] = 2.0
    first, *rest = gs.gates
    assert len(rest) == 7 and np.array_equal(first, np.eye(3))


def test_stacked_gate_algebra_matches_per_gate_loops():
    # Named sets, the {I, X} group (not a 1-design) and a phased Pauli set.
    phases = np.exp(1j * np.random.default_rng(73).uniform(0, 2 * np.pi, size=4))
    groups = [
        (lb.pauli_gateset().gates, QUBIT),
        (lb.shelving_gateset().gates, QUTRIT),
        ([np.eye(2), PAULI_X], QUBIT),
        ([ph * g for ph, g in zip(phases, PAULIS)], QUBIT),
    ]
    for gates, space in groups:
        gs = GateSet(space, gates, label="group")
        per_gate = np.array([np.kron(g, g.conj()) for g in gs.gates])
        assert np.array_equal(gs.gate_liouvilles, per_gate)
        assert group_deviation(gates) < 1e-14
    # Non-groups: the stacked check reports the per-gate loop's deviation.
    for gates, space in (
        ([np.eye(2), PAULI_X, PAULI_Y], QUBIT),
        (lb.shelving_gateset().gates[:5], QUTRIT),
    ):
        with pytest.raises(ValueError, match="does not average like a group") as info:
            GateSet(space, gates, label="broken")
        reported = float(re.search(r"deviation ([-+.e0-9]+)", str(info.value)).group(1))
        assert abs(reported - group_deviation(gates)) <= 5e-4 * reported


def test_gate_dependence_epsilon_matches_per_gate_loop():
    rng = np.random.default_rng(79)
    for gs in (lb.pauli_gateset(), lb.shelving_gateset()):
        for n_kraus in (1, 2, 16):
            channels = [random_channel(gs.space, rng, n_kraus, scale=0.95) for _ in gs.gates]
            na = lb.NoiseAssignment(gs.space, channels=channels)
            expected = gate_dependence_epsilon(gs.gates, channels)
            assert abs(lb.gate_dependence_epsilon(gs, na) - expected) < 1e-14


def test_signed_design_gates_are_direct_sums_in_product_order():
    gs = lb.signed_design_gateset(PAULIS, PAULIS, label="two-qubit-blocks")
    zero = np.zeros((2, 2))
    expected = [
        np.block([[v, zero], [zero, mu * w]]) for v in PAULIS for w in PAULIS for mu in (1.0, -1.0)
    ]
    assert np.array_equal(gs.gates, np.array(expected))


# ---------------------------------------------------------------------------
# Twirl projectors
# ---------------------------------------------------------------------------


def test_twirl_singleton_identity():
    gs = GateSet(QUTRIT, [np.eye(3)], label="trivial")
    assert np.allclose(lb.twirl(gs).matrix, np.eye(9))


def test_pauli_twirl_closed_form_entrywise():
    proj = lb.twirl(lb.pauli_gateset()).matrix
    a1 = vec(np.eye(2) / np.sqrt(2))
    assert np.max(np.abs(proj - np.outer(a1, a1.conj()))) < 1e-12
    assert numeric_rank(lb.twirl(lb.pauli_gateset()).matrix) == 1


def test_shelving_twirl_closed_form_entrywise():
    proj = lb.twirl(lb.shelving_gateset()).matrix
    # Independent construction of the two-projector sum.
    a1 = vec(np.diag([1.0, 1.0, 0.0]) / np.sqrt(2))
    a2 = vec(np.diag([0.0, 0.0, 1.0]))
    expected = np.outer(a1, a1.conj()) + np.outer(a2, a2.conj())
    assert np.max(np.abs(proj - expected)) < 1e-12
    assert numeric_rank(lb.twirl(lb.shelving_gateset()).matrix) == 2


def test_twirl_idempotence_both_sets():
    for gs in (lb.pauli_gateset(), lb.shelving_gateset()):
        g_bar = lb.twirl(gs).matrix
        assert np.max(np.abs(g_bar @ g_bar - g_bar)) < 1e-10


def test_twirl_left_invariance():
    for gs in (lb.pauli_gateset(), lb.shelving_gateset()):
        g_bar = lb.twirl(gs).matrix
        for g_lio in gs.gate_liouvilles:
            assert np.max(np.abs(g_bar @ g_lio - g_bar)) < 1e-10


def test_shelving_twirl_annihilates_coherence_blocks():
    rng = np.random.default_rng(61)
    g_bar = lb.twirl(lb.shelving_gateset()).matrix
    for _ in range(10):
        op = np.zeros((3, 3), dtype=complex)
        op[:2, 2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        op[2, :2] = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.max(np.abs(g_bar @ vec(op))) < 1e-12


def test_generic_signed_design_constructor():
    # Both factors are qubit 1-designs; the combined set lives on d1=2, d2=2.
    gs = lb.signed_design_gateset(PAULIS, PAULIS, label="two-qubit-blocks")
    assert len(gs) == 32
    assert gs.space == SpaceSpec(d1=2, d2=2)
    expected = predicted_twirl_matrix(gs.space)
    assert np.max(np.abs(lb.twirl(gs).matrix - expected)) < 1e-10


# ---------------------------------------------------------------------------
# Noise assignments
# ---------------------------------------------------------------------------


def test_average_noise_of_identical_members():
    ch = filter_z(0.02)
    na = lb.NoiseAssignment.uniform(ch, 4)
    avg = lb.average_noise(na)
    assert np.max(np.abs(avg.liouville - ch.liouville)) < 1e-12


def test_average_noise_liouville_is_mean():
    channels = [filter_z(p) for p in (0.01, 0.02, 0.03, 0.04)]
    na = lb.NoiseAssignment(QUBIT, channels=channels)
    avg = lb.average_noise(na)
    mean_lio = np.mean([c.liouville for c in channels], axis=0)
    assert np.max(np.abs(avg.liouville - mean_lio)) < 1e-12
    assert abs(lb.transfer_matrix(avg)[0, 0] - 0.9875) < 1e-12
    expected = np.mean([lb.transfer_matrix(c)[0, 0] for c in channels])
    assert abs(lb.transfer_matrix(avg)[0, 0] - expected) < 1e-12


def _liouville_bytes(channels) -> list:
    """Each channel's Liouville matrix as bytes, from its own Kraus stack."""
    return [lb.liouville.liouville_from_kraus(ch.kraus).tobytes() for ch in channels]


def test_noise_liouvilles_are_the_channels_own_and_feed_the_step():
    rng = np.random.default_rng(9)
    distinct = [random_channel(QUTRIT, rng, n_kraus=k) for k in (1, 2, 3, 4)]
    channels = [distinct[i] for i in (0, 1, 2, 1, 3, 0, 0, 2)]  # 8 gates, 4 channels
    na = lb.NoiseAssignment(QUTRIT, channels=channels)
    gs = gateset_by_id("shelving")
    model, avg = na.exact_model(gs), lb.average_noise(na)
    assert not na.liouvilles.flags.writeable
    assert [row.tobytes() for row in na.liouvilles] == _liouville_bytes(channels)
    # The model's steps, their mean, epsilon and transfer block are the per-channel values.
    lios = np.array([lb.liouville.liouville_from_kraus(ch.kraus) for ch in channels])
    assert model.steps.tobytes() == (gs.gate_liouvilles @ lios).tobytes()
    assert model.mean.tobytes() == (gs.gate_liouvilles @ lios).mean(axis=0).tobytes()
    assert avg.liouville.tobytes() == np.tensordot(np.full(8, 1 / 8), lios, axes=1).tobytes()
    assert model.epsilon == stacked_gate_dependence_epsilon(gs.gates, channels)
    assert lb.gate_dependence_epsilon(gs, na) == model.epsilon
    assert model.transfer.tobytes() == lb.transfer_matrix(avg).tobytes()


#: Gate-independent noise on each named set: a filter channel on the Paulis and a
#: sampled coherent channel on the shelving qutrit.
UNIFORM_CHANNELS = {
    "pauli": lambda: filter_z(0.03),
    "shelving": lambda: lb.sample_coherent_noise(
        lb.ShelvingParams(), lb.RandomStream(3, key=(97,))
    ),
}


@pytest.mark.parametrize("name", sorted(UNIFORM_CHANNELS))
def test_transfer_decays_are_eigenvalues_of_the_averaged_step(name):
    # The twirled closed form is exact for gate-independent noise because the
    # transfer block's decays are S's eigenvalues on the twirl's range.
    gs, ch = gateset_by_id(name), UNIFORM_CHANNELS[name]()
    na = lb.NoiseAssignment.uniform(ch, len(gs))
    model = na.exact_model(gs)
    # One channel on every gate is its own mixture, so B is the channel's own block.
    assert na.average is ch
    assert model.transfer.tobytes() == lb.transfer_matrix(ch).tobytes()
    spectrum = np.linalg.eigvals(model.mean)
    decays = np.linalg.eigvals(model.transfer)
    assert len(decays) == 1 + (gs.space.d2 > 0)
    for decay in decays:
        assert np.min(np.abs(spectrum - decay)) < 1e-12
    assert model.decay == float(decays.real.min())


@pytest.mark.parametrize("seed", range(1, 21))
def test_fig1_oracle_decay_read_from_the_model_is_the_average_channels(seed):
    gs, na, _, _ = _experiment_components(figure_config("fig1", seed))
    expected = float(np.linalg.eigvals(lb.transfer_matrix(lb.average_noise(na))).real.min())
    model = na.exact_model(gs)
    assert model.decay == expected
    assert model.transfer.tobytes() == lb.transfer_matrix(na.average).tobytes()


@pytest.mark.parametrize(
    "copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
@pytest.mark.parametrize("warm", [False, True])
def test_copied_noise_builds_the_same_liouvilles(copy_of, warm):
    rng = np.random.default_rng(10)
    na = lb.NoiseAssignment(QUBIT, channels=[random_channel(QUBIT, rng, n_kraus=k) for k in (2, 1, 3, 2)])
    expected = _liouville_bytes(na.channels)
    if warm:
        na.exact_model(gateset_by_id("pauli"))
    other = copy_of(na)
    assert other.liouvilles is not na.liouvilles and not other._models
    assert [row.tobytes() for row in other.liouvilles] == expected
    assert not other.liouvilles.flags.writeable


def test_noise_assignment_validation():
    with pytest.raises(ValueError):
        lb.NoiseAssignment(QUBIT)
    with pytest.raises(ValueError):
        lb.NoiseAssignment(QUBIT, channels=[Channel(QUTRIT, [np.eye(3)])])


def test_fixed_noise_with_no_channels_is_refused_when_made():
    with pytest.raises(ValueError, match="empty channel list"):
        lb.NoiseAssignment(QUBIT, channels=[])


def test_stochastic_assignment_blocks_average():
    na = lb.NoiseAssignment(QUTRIT, sampler=lb.ShelvingParams())
    assert na.stochastic
    with pytest.raises(ValueError):
        lb.average_noise(na)
    with pytest.raises(ValueError):
        lb.gate_dependence_epsilon(lb.shelving_gateset(), na)


def test_gate_dependence_epsilon_zero_for_uniform_noise():
    gs = lb.pauli_gateset()
    na = lb.NoiseAssignment.uniform(filter_z(0.03), 4)
    assert lb.gate_dependence_epsilon(gs, na) < 1e-12


def test_gate_dependence_epsilon_positive_and_removable():
    gs = lb.pauli_gateset()
    channels = [filter_z(0.01), filter_z(0.05), filter_z(0.02), filter_z(0.04)]
    na = lb.NoiseAssignment(QUBIT, channels=channels)
    eps = lb.gate_dependence_epsilon(gs, na)
    assert eps > 1e-4
    averaged = lb.NoiseAssignment.uniform(lb.average_noise(na), 4)
    assert lb.gate_dependence_epsilon(gs, averaged) < 1e-12


# ---------------------------------------------------------------------------
# Lookup / serialization
# ---------------------------------------------------------------------------


def test_gateset_by_id():
    assert len(gateset_by_id("pauli")) == 4
    assert len(gateset_by_id("shelving")) == 8
    with pytest.raises(ValueError):
        gateset_by_id("clifford")


def test_gateset_json_roundtrip(tmp_path):
    gs = lb.shelving_gateset()
    doc = {"d1": 2, "d2": 1, "label": gs.label, "gates": [matrix_to_pairs(g) for g in gs.gates]}
    rebuilt = gateset_from_dict(doc)
    assert rebuilt.space == gs.space
    for a, b in zip(rebuilt.gates, gs.gates):
        assert np.max(np.abs(a - b)) < 1e-15
    import json

    path = tmp_path / "custom.json"
    path.write_text(json.dumps(doc))
    loaded = gateset_by_id(str(path))
    assert len(loaded) == 8


def test_gate_liouvilles_act_by_conjugation():
    gs = lb.shelving_gateset()
    rng = np.random.default_rng(71)
    rho = random_density(3, rng)
    for g, g_lio in zip(gs.gates, gs.gate_liouvilles):
        direct = g @ rho @ g.conj().T
        via = (g_lio @ vec(rho)).reshape(3, 3)
        assert np.max(np.abs(direct - via)) < 1e-12
