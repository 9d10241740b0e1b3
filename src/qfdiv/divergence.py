"""Classical f-divergences and the standard quantum divergences.

All quantum definitions here are the conventional ones (relative entropy,
chi-squared, max-relative entropy); the trace distance is
``linalg.trace_norm_hermitian`` of rho - sigma, and the maximal f-divergence
lives in :mod:`qfdiv.maximal`.  Entropic quantities are in nats.  The
``*_rows`` functions evaluate many pairs at once, one per row; a single
pair is a one-row stack.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ZeroReference
from .generators import check_generator
from .linalg import adjoint, numbers, raise_first_failure, singular_check
from .states import check_pair


def f_div_rows(p, q, f):
    """D_f(p_b || q_b) for each row b of two ``(B, n)`` probability arrays;
    every q entry must be strictly positive."""
    check_generator(f)
    p, q = numbers(p), numbers(q)
    if p.shape != q.shape:
        raise DimensionMismatch(f"lengths {p.shape[-1]} and {q.shape[-1]} differ")
    raise_first_failure([(q.min(axis=-1) <= 0.0, lambda i, where: ZeroReference(
        f"{where}reference distribution has a zero entry"))])
    return np.sum(f.values(p / q) * q, axis=-1)


def _sigma_frame(rho, sigma):
    """P = V^dag rho of each row pair of two state stacks
    (:func:`states.check_pair`), where sigma = V diag(w) V^dag (its stack's
    ``eig``) must be invertible.  The reference divergences read sigma only
    through P and w, so they form neither sigma^{-1/2} nor T."""
    check_pair(rho, sigma)
    raise_first_failure([singular_check(sigma.eig.eigenvalues[:, 0])])
    return adjoint(sigma.eig.vectors) @ rho.mats


def relative_entropy_rows(rho, sigma):
    """Umegaki relative entropy of each row pair of two state stacks, from
    rho's ``spectra`` and sigma's ``eig``.  Zero eigenvalues of rho
    contribute nothing; tr(rho ln sigma) is sum_k ln(w_k) (P V)_kk."""
    frame = _sigma_frame(rho, sigma)
    p = rho.spectra
    positive = p > 0.0
    entropy = np.sum(np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0),
                     axis=-1)
    diagonal = np.einsum("...kj,...jk->...k", frame, sigma.eig.vectors).real
    return entropy - np.sum(np.log(sigma.eig.eigenvalues) * diagonal, axis=-1)


def chi2_rows(rho, sigma):
    """Chi-squared divergence tr(rho sigma^{-1} rho) - 1 of each row pair of
    two state stacks, as sum_kj |P_kj|^2 / w_k - 1 from sigma's ``eig``: the
    maximal chi2 by a route that shares only that eigendecomposition with
    the witness."""
    frame = _sigma_frame(rho, sigma)
    weights = np.sum(frame.real ** 2 + frame.imag ** 2, axis=-1)
    return np.sum(weights / sigma.eig.eigenvalues, axis=-1) - 1.0


def max_relative_entropy_rows(rho, sigma):
    """D_max(rho || sigma) in nats of each row pair of two state stacks: ln
    of the largest eigenvalue of W^{-1/2} V^dag rho V W^{-1/2}, for
    sigma = V W V^dag (its stack's ``eig``).  That matrix has T's spectrum
    but is not T, so this route to ln M shares only sigma's
    eigendecomposition with the witness."""
    rotated = _sigma_frame(rho, sigma) @ sigma.eig.vectors
    scale = sigma.eig.eigenvalues ** -0.5
    return np.log(np.linalg.eigvalsh(scale[:, :, None] * rotated * scale[:, None, :])[:, -1])
