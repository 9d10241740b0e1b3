"""Shared helpers for the test suite."""

from collections import Counter, namedtuple

import numpy as np

from qfdiv.bounds import EQUAL_STATES_EPS, audenaert_eisert_rows, binette_rhs
from qfdiv.divergence import chi2_rows, relative_entropy_rows
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.maximal import witness_batch
from qfdiv.states import STATE_TOL, DensityStack, abs_condition_rows, ginibre_states


def random_hermitian(n, rng, scale=1.0):
    """Random dense Hermitian matrix with entries of order ``scale``."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def random_psd(n, rng, scale=1.0):
    """Random positive semidefinite Hermitian matrix (full rank a.s.)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) / n


def plus_state():
    """Qubit pure state |+><+|: all entries 1/2, as a one-row stack."""
    return DensityStack([np.full((2, 2), 0.5)])


def maximally_mixed(n=2):
    """Maximally mixed state I/n, as a one-row stack."""
    return DensityStack([np.eye(n) / n])


def diagonal_state(p, tol=STATE_TOL):
    """The diagonal density matrix of a probability vector, as a one-row
    stack checked at ``tol``."""
    return DensityStack([np.diag(np.asarray(p, dtype=float))], tol)


def random_density(n, rank=None, seed=None):
    """One state G G^dag / tr(G G^dag), G an n x rank complex Gaussian (rank
    defaulting to n), as a one-row stack, from one ``(2, n, rank)`` draw of
    ``seed``'s generator: the one-at-a-time sampling that
    ``states.random_pairs`` reproduces row by row, rho's draw first."""
    rank = n if rank is None else rank
    g = np.empty((1, n, rank), dtype=np.complex128)
    g.real, g.imag = np.random.default_rng(seed).standard_normal((2, n, rank))
    return ginibre_states(g)


def ill_conditioned_pair(seed, n=4, least=1e-8):
    """rho from ``random_density``, and sigma with a Haar eigenbasis, least
    eigenvalue ``least`` and its other eigenvalues Dirichlet, summing to
    1 - least, as one-row stacks; all drawn from one generator of ``seed``."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    w = np.concatenate([[least], rng.dirichlet(np.ones(n - 1)) * (1.0 - least)])
    return random_density(n, seed=rng), DensityStack([(q * w) @ q.conj().T])


def relative_entropy(rho, sigma):
    """Umegaki relative entropy of one pair of one-row stacks."""
    return float(relative_entropy_rows(rho, sigma)[0])


def quantum_chi2(rho, sigma):
    """Chi-squared divergence of one pair of one-row stacks."""
    return float(chi2_rows(rho, sigma)[0])


def audenaert_eisert(rho, sigma):
    """Audenaert-Eisert bound of one pair of one-row stacks, with t from
    ``eigvalsh`` of rho - sigma."""
    t = trace_norm_hermitian(rho.mats[0] - sigma.mats[0])
    return float(audenaert_eisert_rows([t], rho.spectra[0, :1], sigma.spectra[0, :1])[0])


# one reverse-Pinsker instance: lhs <= rhs with slack = rhs - lhs
BoundCase = namedtuple("BoundCase", "lhs rhs slack condition_met")


def reverse_pinsker(rho, sigma, f):
    """Reverse-Pinsker instance of one pair of one-row stacks, composed as
    ``compare-bounds`` composes it: the condition and t from the spectrum
    of rho - sigma, the left side D_f(r || s) of the witness and the right
    side ``binette_rhs`` at its extreme likelihood ratios, and the trivial
    0 <= 0, with no witness, for coinciding states."""
    holds, t = abs_condition_rows(rho, sigma)
    t, condition = float(t[0]), bool(holds[0])
    if t < EQUAL_STATES_EPS:
        return BoundCase(0.0, 0.0, 0.0, condition)
    w = witness_batch(rho, sigma)
    lhs = float(w.f_divergence(f)[0])
    rhs = binette_rhs(float(w.lambdas[0, 0]), float(w.lambdas[0, -1]), t, f)
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
