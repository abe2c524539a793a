"""Shared test utilities: random operators and channels, the larger-space designs,
and a fresh interpreter."""

import functools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np

import leakbench
from leakbench import Channel, SpaceSpec
from leakbench.gatesets import PAULIS, GateSet, NoiseAssignment
from leakbench.liouville import mix
from leakbench.protocol import SpamSpec


def run_python(*args):
    """A fresh interpreter that imports leakbench from where this process does."""
    env = {**os.environ, "PYTHONPATH": str(Path(leakbench.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def unvalidated_gateset(space: SpaceSpec, gates, label: str) -> GateSet:
    """A GateSet made with its unitarity and group checks patched out, so that a set
    which construction refuses can be made."""
    with mock.patch.object(GateSet, "_check_unitary"), mock.patch.object(
        GateSet, "_check_group_structure"
    ):
        return GateSet(space, gates, label)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A random full-rank density matrix via a Ginibre square."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2.0


def random_channel(
    space: SpaceSpec, rng: np.random.Generator, n_kraus: int = 3, scale: float = 1.0
) -> Channel:
    """A random CP trace-nonincreasing channel (trace-preserving iff scale = 1)."""
    d = space.d
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_kraus)]
    total = sum(k.conj().T @ k for k in ops)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Channel(space, [np.sqrt(scale) * k @ inv_sqrt for k in ops])


# The signed designs beyond the qutrit: qubit Paulis on both blocks, (d1, d2) = (2, 2),
# and the two-qubit Paulis on the code beside qubit Paulis on the leakage, (4, 2).
SETS = {
    "blocks": (PAULIS, PAULIS),
    "two-qubit": ([np.kron(a, b) for a in PAULIS for b in PAULIS], PAULIS),
}


@functools.cache
def design(name: str):
    """(gate set, gate-dependent noise, SPAM): a random near-identity, trace-decreasing
    Kraus channel per gate, and noisy prep and meas channels on a mixed state."""
    code, leak = SETS[name]
    gs = leakbench.signed_design_gateset(code, leak, label=name)
    space = gs.space
    rng = np.random.default_rng(sum(map(ord, name)))
    identity = Channel(space, [np.eye(space.d)])
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
