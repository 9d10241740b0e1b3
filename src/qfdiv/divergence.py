"""Classical f-divergences and the standard quantum divergences.

All quantum definitions here are the conventional ones (relative entropy,
chi-squared, max-relative entropy); the trace distance is
``linalg.trace_norm_hermitian`` of rho - sigma, and the maximal f-divergence
lives in :mod:`qfdiv.maximal`.  Entropic quantities are in nats.  The
``*_rows`` functions evaluate many pairs at once, one per row;
:func:`classical_f_div` is the one-row view of :func:`f_div_rows`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ZeroReference
from .linalg import hermitian_eig, hermitian_part, raise_first_failure, singular_check


def f_div_rows(p, q, f):
    """D_f(p_b || q_b) for each row b of two ``(B, n)`` probability arrays;
    every q entry must be strictly positive."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise DimensionMismatch(f"lengths {p.shape[-1]} and {q.shape[-1]} differ")
    raise_first_failure([(q.min(axis=-1) <= 0.0, lambda i, where: ZeroReference(
        f"{where}reference distribution has a zero entry"))])
    return np.sum(f.values(p / q) * q, axis=-1)


def classical_f_div(p, q, f):
    """D_f(p || q) = sum_i q_i f(p_i / q_i); q must be strictly positive."""
    if len(p) != len(q):
        raise DimensionMismatch(f"lengths {len(p)} and {len(q)} differ")
    return float(f_div_rows(p.probs[None], q.probs[None], f)[0])


def relative_entropy_rows(rho_mats, rho_spectra, sigma_eig):
    """Umegaki relative entropy of each row pair, from precomputed spectra.

    ``rho_spectra`` are the eigenvalues of the ``rho_mats`` rows and
    ``sigma_eig`` the stacked eigendecomposition of the sigma rows, which
    must be invertible.  Zero eigenvalues of rho contribute nothing.
    """
    w = sigma_eig.eigenvalues
    raise_first_failure([singular_check(w[:, 0])])
    p = np.asarray(rho_spectra)
    positive = p > 0.0
    entropy = np.sum(np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0),
                     axis=-1)
    log_s = sigma_eig.compose(np.log(w))
    cross = np.trace(rho_mats @ log_s, axis1=-2, axis2=-1).real
    return entropy - cross


def _ratio_rows(rho_mats, inv_sqrt):
    """sigma^{-1/2} rho sigma^{-1/2}, symmetrized, of each row pair, from
    the rows' sigma^{-1/2}."""
    return hermitian_part(inv_sqrt @ rho_mats @ inv_sqrt)


def chi2_rows(rho_mats, sigma_mats, sigma_eig):
    """Chi-squared divergence tr((sigma^{-1/2} rho sigma^{-1/2})^2 sigma) - 1
    of each row pair, with ``sigma_eig`` the stacked eigendecomposition of
    the sigma rows (a witness's ``sigma`` serves): a route to the maximal
    chi2 that does not go through the witness's T."""
    x = _ratio_rows(rho_mats, sigma_eig.inv_sqrt())
    return np.trace(x @ x @ sigma_mats, axis1=-2, axis2=-1).real - 1.0


def max_relative_entropy(rho, sigma):
    """D_max(rho || sigma) = ln of the largest eigenvalue of
    sigma^{-1/2} rho sigma^{-1/2}, in nats."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    ratio = _ratio_rows(rho.mat, hermitian_eig(sigma.mat).inv_sqrt())
    return math.log(float(np.linalg.eigvalsh(ratio)[-1]))
