"""The engine and the exact average beyond the qutrit.

The paper's code space is any subspace with any leakage subspace beside it.
Two signed designs check the fixed-noise engine and the exact sequence
average there against the per-sequence reference:

- ``blocks``: qubit Paulis on both blocks, (d1, d2) = (2, 2), 32 gates;
- ``two-qubit``: the 16 two-qubit Paulis on the code and the 4 qubit Paulis
  on the leakage subspace, (d1, d2) = (4, 2), 128 gates on d = 6.  Its step
  matrices are 36 x 36, so the word table holds the one-gate words only.
"""

import functools
import itertools

import numpy as np
import pytest
from helpers import random_channel, random_density
from reference import decay_eigenvalues, run_sequence, transfer_block

import leakbench as lb
import leakbench.protocol as protocol
from leakbench import Channel, SpaceSpec
from leakbench.gatesets import PAULIS, NoiseAssignment
from leakbench.liouville import mix
from leakbench.protocol import SpamSpec, decay_parameters, exact_expectations, run_sequences

SETS = {
    "blocks": (PAULIS, PAULIS),
    "two-qubit": ([np.kron(a, b) for a in PAULIS for b in PAULIS], PAULIS),
}


@functools.cache
def design(name: str):
    """(gate set, gate-dependent noise, SPAM): a random near-identity, trace-decreasing
    Kraus channel per gate, and noisy prep and meas channels on a mixed state."""
    code, leak = SETS[name]
    gs = lb.signed_design_gateset(code, leak, label=name)
    space = gs.space
    rng = np.random.default_rng(sum(map(ord, name)))
    identity = Channel.identity(space)
    channels = [
        mix([identity, random_channel(space, rng, scale=rng.uniform(0.95, 1.0))], [0.9, 0.1])
        for _ in range(len(gs))
    ]
    spam = SpamSpec(
        rho=random_density(space.d, rng),
        effect=space.code_projector,
        prep=random_channel(space, rng, scale=0.98),
        meas=random_channel(space, rng, scale=0.99),
    )
    return gs, NoiseAssignment(space, channels=channels), spam


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
