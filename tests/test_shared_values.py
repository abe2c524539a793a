"""The derived values that immutable objects compute once and share.

Each cached value is checked against a fresh computation, for identity on a
second access, and for refusing an in-place write; the callers that share
them are checked to give the same results with the caches warm.
"""

import copy
import functools
import gc
import json
import pickle
import threading

import numpy as np
import pytest
import reference
from helpers import design, random_channel, run_python, unvalidated_gateset

import leakbench as lb
import leakbench.cli as cli
import leakbench.gatesets as gatesets
import leakbench.protocol as protocol
from leakbench import GateSet, NoiseAssignment, SpaceSpec
from leakbench.gatesets import PAULIS, average_noise, gateset_by_id, gateset_from_dict, twirl
from leakbench.liouville import _kron_conj, matrix_to_pairs
from leakbench.noise import RandomStream, build_noise_model, sample_filter_assignment
from leakbench.protocol import (
    ExperimentConfig,
    SpamSpec,
    brute_force_expectation,
    exact_expectations,
    predicted_expectation,
    run_experiment,
    run_sequences,
)

#: The pauli set, the shelving set and a signed design on SpaceSpec(2, 2).
GATESETS = {
    "pauli": lambda: gateset_by_id("pauli"),
    "shelving": lambda: gateset_by_id("shelving"),
    "blocks": lambda: lb.signed_design_gateset(PAULIS, PAULIS, label="blocks"),
}
SPACES = [SpaceSpec(2, 0), SpaceSpec(2, 1), SpaceSpec(2, 2)]


def assert_shared_read_only(owner, attr: str, expected: np.ndarray):
    """``owner.attr`` equals ``expected`` bit for bit, is the same object on a
    second access, and refuses an in-place write."""
    value = getattr(owner, attr)
    assert value.dtype == expected.dtype and np.array_equal(value, expected)
    assert getattr(owner, attr) is value
    with pytest.raises(ValueError, match="read-only"):
        value[(0,) * value.ndim] = 2.0


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_space_values_match_fresh_computation(space):
    code, leak = reference.projectors(space)
    assert_shared_read_only(space, "code_projector", code)
    assert_shared_read_only(space, "leak_projector", leak)
    assert_shared_read_only(space, "twirl_basis", reference.twirl_basis(space))


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_space_copies_carry_no_cached_arrays(space):
    warm = (space.code_projector, space.leak_projector, space.twirl_basis)
    for other in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space), copy.copy(space)):
        assert other == space and hash(other) == hash(space)
        copied = (other.code_projector, other.leak_projector, other.twirl_basis)
        for mine, theirs in zip(warm, copied):
            assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("name", GATESETS)
def test_gateset_values_match_fresh_computation(name):
    gs = GATESETS[name]()
    lios = np.array([np.kron(g, g.conj()) for g in gs.gates])
    assert_shared_read_only(gs, "gate_liouvilles", lios)
    assert_shared_read_only(gs, "twirl_matrix", lios.mean(axis=0))
    first, second = twirl(gs), twirl(gs)
    assert first is not second and first.matrix is second.matrix is gs.twirl_matrix


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_ideal_spam_is_one_shared_value_per_space(space):
    spam = SpamSpec.ideal(space)
    assert SpamSpec.ideal(SpaceSpec(space.d1, space.d2)) is spam
    rho = np.zeros((space.d, space.d), dtype=complex)
    rho[0, 0] = 1.0
    assert_shared_read_only(spam, "rho", rho)
    assert_shared_read_only(spam, "effect", reference.projectors(space)[0])
    assert spam.prep is None and spam.meas is None


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_average_noise_is_computed_once(space):
    rng = np.random.default_rng(space.d)
    channels = [random_channel(space, rng) for _ in range(4)]
    na = NoiseAssignment(space, channels=channels)
    avg = average_noise(na)
    assert average_noise(na) is avg
    fresh = reference.mix(channels)
    assert_shared_read_only(avg, "kraus", fresh.kraus)
    assert_shared_read_only(avg, "liouville", fresh.liouville)
    assert np.allclose(avg.liouville, np.mean([ch.liouville for ch in channels], axis=0))


def test_stochastic_noise_has_no_average_on_any_call():
    na = NoiseAssignment(SpaceSpec(2, 1), sampler=lb.ShelvingParams())
    for _ in range(2):
        with pytest.raises(ValueError, match="no fixed average"):
            average_noise(na)


@pytest.mark.parametrize("name, build", [("pauli", lb.pauli_gateset), ("shelving", lb.shelving_gateset)])
def test_named_gateset_is_shared_and_matches_a_fresh_build(name, build):
    shared = gateset_by_id(name)
    assert gateset_by_id(name) is shared
    fresh = build()
    assert fresh is not build() and fresh is not shared
    assert shared.label == fresh.label and shared.space == fresh.space
    assert np.array_equal(shared.gates, fresh.gates)
    assert np.array_equal(shared.twirl_matrix, fresh.twirl_matrix)


def test_gateset_json_path_is_read_afresh(tmp_path):
    path = tmp_path / "gates.json"

    def write(gates, label):
        doc = {"d1": 2, "gates": [matrix_to_pairs(g) for g in gates], "label": label}
        path.write_text(json.dumps(doc))

    write(PAULIS, "paulis")
    first = gateset_by_id(str(path))
    write([np.eye(2)], "identity")
    second = gateset_by_id(str(path))
    assert (first.label, len(first)) == ("paulis", 4)
    assert (second.label, len(second)) == ("identity", 1)
    assert gateset_by_id(str(path)) is not second


# ---------------------------------------------------------------------------
# Callers with the caches warm: a run_checks() call first builds both named
# sets, their spaces' projectors and twirl bases, their twirl matrices and the
# ideal SPAM of both spaces.
# ---------------------------------------------------------------------------


def test_run_checks_with_warm_caches_match_fresh_gate_sets(monkeypatch):
    warm = cli.run_checks()
    assert cli.run_checks() == warm
    builders = {"pauli": lb.pauli_gateset, "shelving": lb.shelving_gateset}
    monkeypatch.setattr(cli, "gateset_by_id", lambda name: builders[name]())
    assert cli.run_checks() == warm


def test_check_stdout_with_warm_caches_matches_a_fresh_process(capsys):
    cli.run_checks()
    assert cli.main(["check"]) == cli.EXIT_OK
    fresh = run_python("-m", "leakbench", "check")
    assert fresh.returncode == cli.EXIT_OK, fresh.stderr
    assert capsys.readouterr().out == fresh.stdout


def test_run_checks_group_checks_each_named_set_once(monkeypatch):
    for name, build in (("pauli", lb.pauli_gateset), ("shelving", lb.shelving_gateset)):
        monkeypatch.setitem(gatesets._NAMED_GATESETS, name, functools.cache(build))  # cold
    checked = []
    check = GateSet._check_group_structure

    def counted(self, *args, **kwargs):
        checked.append(self.label)
        return check(self, *args, **kwargs)

    monkeypatch.setattr(GateSet, "_check_group_structure", counted)
    cli.run_checks()
    cli.run_checks()
    assert sorted(checked) == ["pauli", "shelving"]


SHELVING_CFG = ExperimentConfig(
    gateset="shelving",
    noise={"id": "shelving", "params": {"phi": 0.2, "sigma_gamma": 0.4}},
    m_list=(3, 1, 2),
    n_sequences=4,
    seed=23,
)
FILTER_CFG = ExperimentConfig(
    gateset="pauli", noise={"id": "filter", "params": {}}, m_list=(3, 1, 2), n_sequences=4, seed=23
)


def test_jobs_match_serial_with_warm_caches():
    cli.run_checks()
    assert run_experiment(SHELVING_CFG, jobs=2).rows() == run_experiment(SHELVING_CFG).rows()


def _read_arrays(gs: GateSet, noise: NoiseAssignment | None, spam: SpamSpec) -> dict:
    """The shared arrays that a run's evolution reads from its components."""
    arrays = {
        "code_projector": gs.space.code_projector,
        "gates": gs.gates,
        "gate_liouvilles": gs.gate_liouvilles,
        "rho": spam.rho,
        "effect": spam.effect,
        "state vector": spam.state_vector(),
        "effect vector": spam.effect_vector(),
    }
    if noise is not None and not noise.stochastic:
        arrays["steps"] = noise.exact_model(gs).steps
    return arrays


@pytest.mark.parametrize("cfg", [SHELVING_CFG, FILTER_CFG], ids=["stochastic", "fixed"])
def test_shard_threads_read_the_callers_read_only_arrays(monkeypatch, cfg):
    components = protocol._experiment_components(cfg)
    read = []  # (thread, arrays) of each batch that a shard evolves

    def recording(indices, gs, noise, spam, *args):
        read.append((threading.current_thread(), _read_arrays(gs, noise, spam)))
        return run_sequences(indices, gs, noise, spam, *args)

    monkeypatch.setattr(protocol, "run_sequences", recording)
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
    run_experiment(cfg, jobs=2, components=components)
    assert len(read) == (3 if components[1].stochastic else 2)
    assert threading.current_thread() not in {thread for thread, _ in read}
    callers = _read_arrays(*components[:3])
    for _, arrays in read:
        assert arrays.keys() == callers.keys()
        assert all(arrays[name] is array for name, array in callers.items())
        assert not any(array.flags.writeable for array in arrays.values())


# ---------------------------------------------------------------------------
# The exact model of each pair of gate set and fixed noise, computed once and
# checked against tests/reference.py.
# ---------------------------------------------------------------------------


def gate_dependent_noise(gs: GateSet, seed: int = 5) -> NoiseAssignment:
    rng = np.random.default_rng(seed)
    return NoiseAssignment(gs.space, channels=[random_channel(gs.space, rng) for _ in gs.gates])


@pytest.mark.parametrize("name", GATESETS)
def test_cached_exact_values_equal_a_fresh_computation_bit_for_bit(name):
    gs = GATESETS[name]()
    na = gate_dependent_noise(gs)
    spam = SpamSpec.ideal(gs.space)
    effect, state = spam.effect_vector(), spam.state_vector()
    ms = (1, 2, 3, 5, 8)
    for noise in (na, None):
        channels = None if noise is None else noise.channels
        step = reference.averaged_step(gs.gates, channels)
        fresh = [reference.powered_expectation(m, step, effect, state) for m in ms]
        for _ in range(2):  # cold, then warm
            assert exact_expectations(ms, gs, noise).tolist() == fresh
            assert [brute_force_expectation(m, gs, noise) for m in ms] == fresh
    fresh_epsilon = reference.stacked_gate_dependence_epsilon(gs.gates, na.channels)
    avg = average_noise(na)
    fresh_predicted = [reference.predicted_expectation(m, avg) for m in ms]
    for _ in range(2):
        assert lb.gate_dependence_epsilon(gs, na) == fresh_epsilon
        assert [predicted_expectation(m, gs, avg) for m in ms] == fresh_predicted
        assert predicted_expectation(np.array(ms), gs, avg).tolist() == fresh_predicted


@pytest.mark.parametrize("name", GATESETS)
def test_averaged_step_is_shared_and_read_only(name):
    gs = GATESETS[name]()
    na = gate_dependent_noise(gs)
    model = na.exact_model(gs)
    assert na.exact_model(gs) is model
    steps = np.array([np.kron(g, g.conj()) for g in gs.gates])
    steps = steps @ np.array([reference.kraus_liouville(ch.kraus) for ch in na.channels])
    assert_shared_read_only(model, "steps", steps)
    assert_shared_read_only(model, "mean", reference.averaged_step(gs.gates, na.channels))
    assert_shared_read_only(model, "transfer", lb.transfer_matrix(average_noise(na)))
    assert model.average is average_noise(na)


def test_one_noise_on_two_gate_sets_of_equal_size_keeps_two_entries():
    pauli = gateset_by_id("pauli")
    reversed_set = GateSet(pauli.space, PAULIS[::-1], label="reversed")
    na = gate_dependent_noise(pauli)
    spam = SpamSpec.ideal(pauli.space)
    for gs in (pauli, reversed_set, pauli, reversed_set):
        step = reference.averaged_step(gs.gates, na.channels)
        fresh = reference.powered_expectation(4, step, spam.effect_vector(), spam.state_vector())
        assert brute_force_expectation(4, gs, na) == fresh
        assert np.array_equal(na.exact_model(gs).mean, step)
    assert na.exact_model(pauli) is not na.exact_model(reversed_set)
    assert len(na._models) == 2
    # A gate set that is gone leaves no entry behind whose key a new one could reuse.
    del reversed_set, gs
    gc.collect()
    assert list(na._models.keys()) == [pauli]


def test_mismatched_gate_count_is_refused_by_every_reader():
    gs = gateset_by_id("shelving")
    na = NoiseAssignment(gs.space, channels=gate_dependent_noise(gs).channels[:4])
    for call in (
        lambda: lb.gate_dependence_epsilon(gs, na),
        lambda: exact_expectations((1, 2), gs, na),
        lambda: run_sequences(np.zeros((1, 2), dtype=int), gs, na),
    ):
        with pytest.raises(ValueError, match="does not match the gate count"):
            call()


def test_repeated_epsilon_takes_one_svd(monkeypatch):
    gs = gateset_by_id("shelving")
    na = gate_dependent_noise(gs)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    values = {lb.gate_dependence_epsilon(gs, na) for _ in range(5)}
    exact_expectations((1, 2, 3), gs, na)
    assert len(values) == 1 and calls == [(9, 9)]


# ---------------------------------------------------------------------------
# Pickles and copies: equal arrays, the hooked values made anew, and no cache
# keyed by a gate set.
# ---------------------------------------------------------------------------


def assert_arrays_read_only(value, names):
    for name in names:
        array = getattr(value, name)
        assert isinstance(array, np.ndarray) and not array.flags.writeable, name


def test_pickled_and_copied_gateset_keeps_read_only_arrays():
    shared = gateset_by_id("shelving")
    for gs in (pickle.loads(pickle.dumps(shared)), copy.deepcopy(shared)):
        assert gs is not shared and gs.gates is not shared.gates
        assert gs.gate_liouvilles is not shared.gate_liouvilles
        assert_arrays_read_only(gs, ("gates", "gate_liouvilles", "twirl_matrix"))
        assert np.array_equal(gs.twirl_matrix, shared.twirl_matrix)


def test_pickled_and_copied_noise_keeps_read_only_arrays_and_leaves_its_steps():
    gs = gateset_by_id("shelving")
    na = gate_dependent_noise(gs)
    entry, epsilon = na.exact_model(gs), lb.gate_dependence_epsilon(gs, na)
    for other in (pickle.loads(pickle.dumps(na)), copy.deepcopy(na), copy.copy(na)):
        assert not other._models and other.average is not na.average
        assert_arrays_read_only(average_noise(other), ("kraus", "liouville"))
        rebuilt = other.exact_model(gs)
        assert rebuilt is not entry and other._models is not na._models
        assert np.array_equal(rebuilt.steps, entry.steps) and not rebuilt.steps.flags.writeable
        assert lb.gate_dependence_epsilon(gs, other) == epsilon
    assert na.exact_model(gs) is entry


def test_pickled_channel_keeps_its_read_only_liouville():
    gs = gateset_by_id("shelving")
    avg = average_noise(gate_dependent_noise(gs))
    for ch in (pickle.loads(pickle.dumps(avg)), copy.deepcopy(avg)):
        assert np.array_equal(ch.liouville, avg.liouville)


def test_copied_stochastic_shelving_noise_keeps_its_sampler():
    na = NoiseAssignment(SpaceSpec(2, 1), sampler=lb.ShelvingParams(phi=0.2))
    for other in (pickle.loads(pickle.dumps(na)), copy.deepcopy(na)):
        assert other.stochastic and other.sampler == na.sampler and not other._models
        with pytest.raises(ValueError, match="deterministic"):
            exact_expectations((1,), gateset_by_id("shelving"), other)


def _derived_arrays(value) -> dict:
    """Every array that ``value`` holds or forms, by name."""
    if isinstance(value, SpaceSpec):
        names = ("code_projector", "leak_projector", "twirl_basis")
        return {name: getattr(value, name) for name in names}
    if isinstance(value, lb.Channel):
        return {"kraus": value.kraus, "liouville": value.liouville}
    if isinstance(value, SpamSpec):
        arrays = {"rho": value.rho, "effect": value.effect,
                  "state vector": value.state_vector(), "effect vector": value.effect_vector()}
        for name in ("prep", "meas"):
            channel = _derived_arrays(getattr(value, name))
            arrays.update({f"{name} {key}": array for key, array in channel.items()})
        return arrays
    if isinstance(value, GateSet):
        return {name: getattr(value, name) for name in ("gates", "gate_liouvilles", "twirl_matrix")}
    model = value.exact_model(GATESETS["blocks"]())
    return {"liouvilles": value.liouvilles, "average": value.average.liouville,
            "steps": model.steps, "mean": model.mean, "transfer": model.transfer}


#: One value of each type with arrays: a space, a channel, SPAM with both channels,
#: a gate set and gate-dependent fixed noise, all on SpaceSpec(2, 2).
COPIED_VALUES = {
    "space": lambda: SpaceSpec(2, 2),
    "channel": lambda: design("blocks")[1].channels[3],
    "spam": lambda: design("blocks")[2],
    "gateset": lambda: GATESETS["blocks"](),
    "noise": lambda: design("blocks")[1],
}
COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "deepcopy": copy.deepcopy,
    "copy": copy.copy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("kind", COPIED_VALUES)
def test_copies_hold_their_originals_arrays_bit_for_bit(kind, how):
    original = COPIED_VALUES[kind]()
    arrays = _derived_arrays(original)
    other = COPIES[how](original)
    assert other is not original
    copied = _derived_arrays(other)
    assert copied.keys() == arrays.keys()
    for name, array in arrays.items():
        assert copied[name].dtype == array.dtype and copied[name].shape == array.shape, name
        assert copied[name].tobytes() == array.tobytes(), name
    if how == "copy" and kind in ("space", "channel", "spam"):  # the defaults: shared arrays
        assert all(copied[name] is array for name, array in arrays.items())


# ---------------------------------------------------------------------------
# The values a gate set and fixed noise form when they are made, however they
# are made, against their definitions.
# ---------------------------------------------------------------------------

#: Gate sets made each way: by name, as a signed design, from a document,
#: unvalidated, unpickled and deep-copied.
GATESET_WAYS = {
    "named": lambda: gateset_by_id("pauli"),
    "signed-design": lambda: lb.signed_design_gateset(PAULIS, [np.eye(1)], label="signed"),
    "document": lambda: gateset_from_dict(
        {"d1": 2, "d2": 1, "gates": [matrix_to_pairs(g) for g in gateset_by_id("shelving").gates]}
    ),
    "unvalidated": lambda: unvalidated_gateset(SpaceSpec(2, 2), GATESETS["blocks"]().gates, "blocks"),
    "pickled": lambda: pickle.loads(pickle.dumps(gateset_by_id("shelving"))),
    "deepcopied": lambda: copy.deepcopy(gateset_by_id("pauli")),
}

#: The "gates" param of filter noise on the four Pauli gates.
FILTER_GATES = [{"p": p, "r": [0.6, 0.0, 0.8]} for p in (0.01, 0.02, 0.03, 0.04)]

#: Fixed noise on a gate set made each way: sampled filter channels, one channel
#: on every gate, filter channels from the "gates" param, unpickled and deep-copied.
NOISE_WAYS = {
    "sampled": lambda gs: sample_filter_assignment(RandomStream(3), len(gs))[0],
    "uniform": lambda gs: NoiseAssignment.uniform(
        random_channel(gs.space, np.random.default_rng(4)), len(gs)
    ),
    "gates-param": lambda gs: build_noise_model(
        {"id": "filter", "params": {"gates": FILTER_GATES}}, gs, RandomStream(0)
    ),
    "pickled": lambda gs: pickle.loads(pickle.dumps(gate_dependent_noise(gs))),
    "deepcopied": lambda gs: copy.deepcopy(gate_dependent_noise(gs)),
}


@pytest.mark.parametrize(
    "gateset_way, noise_way",
    [(way, "pickled") for way in GATESET_WAYS]
    + [("named", way) for way in NOISE_WAYS if way != "pickled"],
)
def test_formed_values_equal_their_definitions_bit_for_bit(gateset_way, noise_way):
    gs = GATESET_WAYS[gateset_way]()
    na = NOISE_WAYS[noise_way](gs)
    lios = _kron_conj(gs.gates)
    # One channel on every gate is its own mixture.
    average = na.channels[0] if noise_way == "uniform" else reference.mix(na.channels)
    expected = {
        (gs, "gate_liouvilles"): lios,
        (gs, "twirl_matrix"): lios.mean(axis=0),
        (na, "liouvilles"): np.array([ch.liouville for ch in na.channels]),
        (na.average, "liouville"): average.liouville,
    }
    for (owner, name), value in expected.items():
        formed = getattr(owner, name)
        assert formed.shape == value.shape and formed.tobytes() == value.tobytes(), name
        assert_arrays_read_only(owner, (name,))
    epsilon = na.exact_model(gs).epsilon
    assert type(epsilon) is float
    assert epsilon == reference.stacked_gate_dependence_epsilon(gs.gates, na.channels)
