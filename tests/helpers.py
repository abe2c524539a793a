"""Shared test utilities: random operators and channels, and a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import leakbench
from leakbench import Channel, SpaceSpec


def run_python(*args):
    """A fresh interpreter that imports leakbench from where this process does."""
    env = {**os.environ, "PYTHONPATH": str(Path(leakbench.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


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

