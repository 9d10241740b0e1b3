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
from .linalg import adjoint, hermitian_eig, raise_first_failure, singular_check


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
    return float(f_div_rows(p.probs[None], q.probs[None], f)[0])


def _sigma_frame(rho_mats, sigma_eig):
    """P = V^dag rho of each row pair, where sigma = V diag(w) V^dag must be
    invertible.  The reference divergences read sigma only through P and w,
    so they form neither sigma^{-1/2} nor T."""
    raise_first_failure([singular_check(sigma_eig.eigenvalues[..., 0])])
    return adjoint(sigma_eig.vectors) @ rho_mats


def relative_entropy_rows(rho_mats, rho_spectra, sigma_eig):
    """Umegaki relative entropy of each row pair, from rho's spectra and
    sigma's stacked eigendecomposition (a witness's ``sigma`` serves).  Zero
    eigenvalues of rho contribute nothing; tr(rho ln sigma) is
    sum_k ln(w_k) (P V)_kk."""
    frame = _sigma_frame(rho_mats, sigma_eig)
    p = np.asarray(rho_spectra)
    positive = p > 0.0
    entropy = np.sum(np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0),
                     axis=-1)
    diagonal = np.einsum("...kj,...jk->...k", frame, sigma_eig.vectors).real
    return entropy - np.sum(np.log(sigma_eig.eigenvalues) * diagonal, axis=-1)


def chi2_rows(rho_mats, sigma_eig):
    """Chi-squared divergence tr(rho sigma^{-1} rho) - 1 of each row pair,
    as sum_kj |P_kj|^2 / w_k - 1, from sigma's stacked eigendecomposition (a
    witness's ``sigma`` serves): the maximal chi2 by a route that shares
    only that eigendecomposition with the witness."""
    frame = _sigma_frame(rho_mats, sigma_eig)
    weights = np.sum(frame.real ** 2 + frame.imag ** 2, axis=-1)
    return np.sum(weights / sigma_eig.eigenvalues, axis=-1) - 1.0


def max_relative_entropy(rho, sigma):
    """D_max(rho || sigma) in nats: ln of the largest eigenvalue of
    W^{-1/2} V^dag rho V W^{-1/2}, for sigma = V W V^dag.  That matrix has
    T's spectrum but is not T, so this route to ln M shares only sigma's
    eigendecomposition with the witness."""
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"dimensions {rho.dim} and {sigma.dim} differ")
    eig = hermitian_eig(sigma.mat[None])
    rotated = _sigma_frame(rho.mat[None], eig)[0] @ eig.vectors[0]
    scale = eig.eigenvalues[0] ** -0.5
    return math.log(float(np.linalg.eigvalsh(scale[:, None] * rotated * scale)[-1]))
