"""The engine and the exact average beyond the qutrit.

The paper's code space is any subspace with any leakage subspace beside it.
Two signed designs check the fixed-noise engine and the exact sequence
average there against the per-sequence reference:

- ``blocks``: qubit Paulis on both blocks, (d1, d2) = (2, 2), 32 gates;
- ``two-qubit``: the 16 two-qubit Paulis on the code and the 4 qubit Paulis
  on the leakage subspace, (d1, d2) = (4, 2), 128 gates on d = 6.  Its step
  matrices are 36 x 36, so the word table holds the one-gate words only.
"""

import itertools
import json

import numpy as np
import pytest
from helpers import SETS, design
from reference import decay_eigenvalues, run_sequence, transfer_block

import leakbench as lb
import leakbench.protocol as protocol
from leakbench import Channel, SpaceSpec
from leakbench.gatesets import NoiseAssignment
from leakbench.cli import main
from leakbench.liouville import channel_to_dict, liouville_from_kraus, matrix_to_pairs
from leakbench.protocol import (
    decay_parameters,
    exact_expectations,
    predicted_expectation,
    run_sequences,
)


@pytest.mark.parametrize("name, space, n_gates", [
    ("blocks", SpaceSpec(2, 2), 32),
    ("two-qubit", SpaceSpec(4, 2), 128),
])
def test_engine_matches_per_sequence_reference(name, space, n_gates):
    gs, na, spam = design(name)
    assert gs.space == space and len(gs) == n_gates
    _, offsets = protocol._word_table(na.averaged_step(gs).steps, protocol._CHUNK_ENTRIES)
    assert len(offsets) - 1 == 1  # one-gate words only
    rng = np.random.default_rng(5)
    lengths = np.array([12, 12, 11, 9, 7, 6, 4, 3, 2, 1, 1, 0])
    indices = rng.integers(0, len(gs), size=(len(lengths), lengths[0]))
    ps = run_sequences(indices, gs, na, spam, lengths=lengths)
    for row, length, p in zip(indices, lengths, ps):
        assert abs(p - run_sequence(row[:length], gs, na, spam)) < 1e-12


@pytest.mark.parametrize("name", sorted(SETS))
def test_batched_liouvilles_are_the_per_channel_ones(name):
    # The design's channels are mixtures, holding their members' weighted mean: the
    # stack keeps it.  Kraus-only copies (four operators each) hold their own matrices.
    gs, na, _ = design(name)
    assert [row.tobytes() for row in na.liouvilles] == [ch.liouville.tobytes() for ch in na.channels]
    cold = NoiseAssignment(gs.space, channels=[Channel(gs.space, ch.kraus) for ch in na.channels])
    per_channel = np.array([liouville_from_kraus(ch.kraus) for ch in cold.channels])
    assert cold.liouvilles.tobytes() == per_channel.tobytes()
    assert cold.averaged_step(gs).steps.tobytes() == (gs.gate_liouvilles @ per_channel).tobytes()


@pytest.mark.parametrize("name", sorted(SETS))
def test_exact_average_matches_enumeration(name):
    gs, na, spam = design(name)
    exact = exact_expectations([1, 2], gs, na, spam)
    for m, value in zip((1, 2), exact):
        sequences = itertools.product(range(len(gs)), repeat=m)
        enumerated = np.mean([run_sequence(seq, gs, na, spam) for seq in sequences])
        assert abs(value - enumerated) < 1e-12


@pytest.mark.parametrize("name", sorted(SETS))
def test_decays_are_the_transfer_block_eigenvalues(name):
    gs, na, _ = design(name)
    avg = lb.average_noise(na)
    params = decay_parameters(gs, avg)
    plus, minus = decay_eigenvalues(transfer_block(avg))
    assert abs(params["decay_plus"] - plus) < 1e-12
    assert abs(params["decay_minus"] - minus) < 1e-12


@pytest.mark.parametrize("name", sorted(SETS))
def test_decay_eigen_sum_matches_the_power_loop(name):
    gs, na, spam = design(name)
    avg = lb.average_noise(na)
    params = decay_parameters(gs, avg, spam)
    ms = np.array([1, 2, 5, 10])
    eigen_sum = sum(params[f"amp_{k}"] * params[f"decay_{k}"] ** (ms - 1) for k in ("plus", "minus"))
    assert np.max(np.abs(eigen_sum - predicted_expectation(ms, gs, avg, spam))) < 1e-12


def test_simulate_of_a_gateset_file_is_the_same_with_two_jobs(tmp_path):
    # Noiseless: the filter and shelving models act on d = 2 and 3 only.
    gs, _, spam = design("blocks")
    gateset = tmp_path / "blocks.json"
    gateset.write_text(json.dumps({
        "d1": 2, "d2": 2, "label": gs.label, "gates": [matrix_to_pairs(g) for g in gs.gates],
    }))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "gateset": str(gateset),
        "noise": None,
        "m_list": [1, 3, 6],
        "n_sequences": 8,
        "shots": 50,
        "seed": 3,
        "spam": {
            "rho": matrix_to_pairs(spam.rho),
            "prep": channel_to_dict(spam.prep),
            "meas": channel_to_dict(spam.meas),
        },
    }))
    outputs = []
    for out, jobs in (("serial", "1"), ("pool", "2")):
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / out), "--jobs", jobs]
        assert main(argv) == 0
        outputs.append((tmp_path / out / "decay.csv").read_bytes())
    assert outputs[0] == outputs[1]
