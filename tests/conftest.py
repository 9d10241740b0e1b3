"""Shared helpers for the test suite."""

from collections import Counter

import numpy as np

from qfdiv.states import DensityMatrix


def random_hermitian(n, rng, scale=1.0):
    """Random dense Hermitian matrix with entries of order ``scale``."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def random_psd(n, rng, scale=1.0):
    """Random positive semidefinite Hermitian matrix (full rank a.s.)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) / n


def plus_state():
    """Qubit pure state |+><+|: all entries 1/2."""
    return DensityMatrix(np.full((2, 2), 0.5))


def maximally_mixed(n=2):
    """Maximally mixed state I/n."""
    return DensityMatrix(np.eye(n) / n)


def count_eig_calls(monkeypatch):
    """Count calls of numpy's Hermitian eigensolvers, by name, from now on."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
