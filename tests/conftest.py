"""Shared helpers for the test suite."""

from collections import Counter, namedtuple

import numpy as np

from qfdiv.bounds import EQUAL_STATES_EPS, audenaert_eisert_rows, binette_rhs
from qfdiv.divergence import chi2_rows, relative_entropy_rows
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.maximal import build_witness
from qfdiv.states import STATE_TOL, DensityMatrix, abs_condition_rows, ginibre_states


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


def diagonal_state(p, tol=STATE_TOL):
    """The diagonal density matrix of a probability vector, checked at ``tol``."""
    return DensityMatrix(np.diag(np.asarray(p, dtype=float)), tol)


def random_density(n, rank=None, seed=None):
    """One state G G^dag / tr(G G^dag), G an n x rank complex Gaussian (rank
    defaulting to n), from one ``(2, n, rank)`` draw of ``seed``'s generator:
    the one-at-a-time sampling that ``states.random_pairs`` reproduces row by
    row, rho's draw first."""
    rank = n if rank is None else rank
    g = np.empty((1, n, rank), dtype=np.complex128)
    g.real, g.imag = np.random.default_rng(seed).standard_normal((2, n, rank))
    return ginibre_states(g).row(0)


def ill_conditioned_pair(seed, n=4, least=1e-8):
    """rho from ``random_density``, and sigma with a Haar eigenbasis, least
    eigenvalue ``least`` and its other eigenvalues Dirichlet, summing to
    1 - least; all drawn from one generator of ``seed``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    w = np.concatenate([[least], rng.dirichlet(np.ones(n - 1)) * (1.0 - least)])
    return random_density(n, seed=rng), DensityMatrix((q * w) @ q.conj().T)


def relative_entropy(rho, sigma):
    """Umegaki relative entropy of one pair, diagonalizing sigma on its own."""
    return float(relative_entropy_rows(rho.as_stack(), sigma.as_stack())[0])


def quantum_chi2(rho, sigma):
    """Chi-squared divergence of one pair, diagonalizing sigma on its own."""
    return float(chi2_rows(rho.as_stack(), sigma.as_stack())[0])


def audenaert_eisert(rho, sigma):
    """Audenaert-Eisert bound of one pair, with t from ``eigvalsh`` of
    rho - sigma."""
    t = trace_norm_hermitian(rho.mat - sigma.mat)
    return float(audenaert_eisert_rows([t], rho.spectrum[:1], sigma.spectrum[:1])[0])


# one reverse-Pinsker instance: lhs <= rhs with slack = rhs - lhs
BoundCase = namedtuple("BoundCase", "lhs rhs slack condition_met")


def reverse_pinsker(rho, sigma, f):
    """Reverse-Pinsker instance of one pair, composed as ``compare-bounds``
    composes it: the condition and t from the spectrum of rho - sigma, the
    left side D_f(r || s) of the witness and the right side ``binette_rhs``
    at its extreme likelihood ratios, and the trivial 0 <= 0, with no
    witness, for coinciding states."""
    holds, t = abs_condition_rows(rho.as_stack(), sigma.as_stack())
    t, condition = float(t[0]), bool(holds[0])
    if t < EQUAL_STATES_EPS:
        return BoundCase(0.0, 0.0, 0.0, condition)
    w = build_witness(rho, sigma)
    lhs = w.f_divergence(f)
    rhs = binette_rhs(float(w.lambdas[0]), float(w.lambdas[-1]), t, f)
    return BoundCase(lhs, rhs, rhs - lhs, condition)


def count_eig_calls(monkeypatch):
    """Count calls of numpy's Hermitian eigensolvers, by name, from now on."""
    calls = Counter()
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
