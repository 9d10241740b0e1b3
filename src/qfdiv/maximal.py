"""Maximal f-divergence via an explicit classical witness.

For invertible sigma, diagonalize T = sigma^{-1/2} rho sigma^{-1/2} as
sum_i lambda_i |u_i><u_i|.  The classical pair

    s_i = <u_i| sigma |u_i> = ||sigma^{1/2} u_i||^2,      r_i = lambda_i s_i

together with the recovery channel V built from Kraus operators
A_i = sigma^{1/2} |u_i><i| / sqrt(s_i) satisfies V(diag r) = rho and
V(diag s) = sigma.  D_f(r || s) is the maximal f-divergence of
(rho, sigma) for operator-convex f (kl, chi2) and an upper bound on it
otherwise: the pair is always a feasible reverse test, and Matsumoto's
theorem (arXiv 1311.4722) makes it the optimal one for operator-convex f.
The <i| reads the classical register in the computational basis, i.e. V
prepares the input distribution in the eigenbasis of T and then recovers
the quantum pair.  Everything downstream (bounds,
experiments) consumes this construction.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .divergence import chi2_rows, f_div_rows
from .errors import InvariantViolation, NegativeSpectrum, OutOfRange, SingularState
from .generators import builtin_generator
from .linalg import (
    PSD_CLAMP_TOL,
    adjoint,
    hermitian_eig,
    hermitian_part,
    raise_first_failure,
    singular_check,
    trace_norm_hermitian,
)
from .states import DensityStack, QuantumChannel, check_pair

WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class WitnessBatch:
    """Classical witnesses (r, s) of a stack of pairs: row b of each array
    belongs to pair b.

    ``lambdas``, ``r`` and ``s`` are ``(B, n)``: ``lambdas[b]`` holds the
    ascending eigenvalues of sigma^{-1/2} rho sigma^{-1/2} (the
    likelihood-ratio spectrum).  ``columns`` is ``(B, n, n)``: column i of
    ``columns[b]`` is sigma^{1/2} u_i, with u_i the eigenvector of
    lambda_i, and its squared norm is s_i.
    """

    lambdas: np.ndarray
    r: np.ndarray
    s: np.ndarray
    columns: np.ndarray

    def f_divergence(self, f):
        """D_f(r_b || s_b) for every row b: the maximal f-divergence for
        operator-convex f (kl, chi2), an upper bound on it otherwise."""
        return f_div_rows(self.r, self.s, f)

    def recovered(self):
        """V(diag r) = C diag(lambda) C^dag and V(diag s) = C C^dag of every
        row, with C = ``columns``, as state stacks checked at
        ``WITNESS_TOL``; no Kraus operator is built."""
        c = self.columns
        return (DensityStack((c * self.lambdas[:, None, :]) @ adjoint(c), WITNESS_TOL),
                DensityStack(c @ adjoint(c), WITNESS_TOL))

    def channel(self, i):
        """The recovery channel of pair ``i``, assembled on each call: Kraus
        operators A_j = sigma^{1/2} |u_j><j| / sqrt(s_j).  An index off the
        stack raises :class:`OutOfRange`."""
        try:
            i = range(len(self.lambdas))[operator.index(i)]
        except (IndexError, TypeError) as exc:
            raise OutOfRange(f"row {i!r} is not a row of a stack of {len(self.lambdas)}") from exc
        n = self.lambdas.shape[-1]
        idx = np.arange(n)
        kraus = np.zeros((n, n, n), dtype=np.complex128)
        kraus[idx, :, idx] = (self.columns[i] / np.sqrt(self.s[i])).T
        return QuantumChannel(kraus)


def witness_batch(rho, sigma):
    """The witness distributions of every pair in two state stacks
    (:class:`DensityStack`), rho first.

    Both stacks were checked as states where they were built
    (:func:`states.check_pair`), so nothing is checked again here; each
    sigma must also be invertible (min eigenvalue above ``SINGULAR_EPS``).
    Eigenvalues of the ratio matrix in [-1e-8, 0) are clamped to zero
    (rank-deficient rho); anything more negative raises
    :class:`NegativeSpectrum`.  s_i = ||sigma^{1/2} u_i||^2 is read off the
    same columns the Kraus operators use, so the recovery channel is
    complete to rounding even for nearly singular sigma.  r and s must be
    normalized within ``WITNESS_TOL``.  When rows fail, the error is the one
    the lowest failing row raises.  A row whose r gap fails where
    eps n lambda_max exceeds ``WITNESS_TOL`` raises :class:`SingularState`
    naming that conditioning, since the eigensolver's error on T alone can
    open such a gap.  Sigma's eigendecomposition is read from
    its stack (``sigma.eig``), so the reference divergences that read it
    too do not diagonalize sigma again.
    """
    check_pair(rho, sigma)
    eig_s = sigma.eig
    w = eig_s.eigenvalues
    sigma_check = singular_check(w[:, 0])
    # singular rows get a stand-in spectrum so the other rows can proceed
    w_safe = np.where(sigma_check[0][:, None], 1.0, w)
    inv_sqrt = eig_s.compose(w_safe ** -0.5)
    sqrt_s = eig_s.compose(w_safe ** 0.5)

    eig_t = hermitian_eig(hermitian_part(inv_sqrt @ rho.mats @ inv_sqrt))
    lam = eig_t.eigenvalues
    low = lam[:, 0]
    lam = np.where(lam < 0.0, 0.0, lam)

    columns = sqrt_s @ eig_t.vectors
    s_vec = np.sum(columns.real ** 2 + columns.imag ** 2, axis=-2)
    r_vec = lam * s_vec
    s_min = s_vec.min(axis=-1)
    r_gap = np.abs(r_vec.sum(axis=-1) - 1.0)
    s_gap = np.abs(s_vec.sum(axis=-1) - 1.0)
    # r's gap grows like the eigensolver's error on T, eps n lambda_max; past
    # WITNESS_TOL it reads sigma's conditioning, not a broken witness
    lam_max = lam[:, -1]
    ill = np.finfo(float).eps * lam.shape[-1] * lam_max > WITNESS_TOL
    r_bad = r_gap > WITNESS_TOL
    raise_first_failure(
        [
            sigma_check,
            (low < -PSD_CLAMP_TOL, lambda i, where: NegativeSpectrum(
                f"{where}ratio matrix has eigenvalue {low[i]:.3e}")),
            (s_min <= 0.0, lambda i, where: SingularState(
                f"{where}witness weight {s_min[i]:.3e} not positive")),
            (r_bad & ill, lambda i, where: SingularState(
                f"{where}r: |sum - 1| = {r_gap[i]:.3e} exceeds {WITNESS_TOL:g} at "
                f"lambda_max = {lam_max[i]:.3e}, sigma's least eigenvalue {w[i, 0]:.3e}")),
            (r_bad & ~ill, lambda i, where: InvariantViolation(
                "normalization", f"{where}r: |sum - 1| = {r_gap[i]:.3e}")),
            (s_gap > WITNESS_TOL, lambda i, where: InvariantViolation(
                "normalization", f"{where}s: |sum - 1| = {s_gap[i]:.3e}")),
        ]
    )
    for a in (lam, r_vec, s_vec, columns):
        a.flags.writeable = False
    return WitnessBatch(lambdas=lam, r=r_vec, s=s_vec, columns=columns)


def witness_residual_rows(rho, sigma, w):
    """Replay the witness identities of two state stacks
    (:class:`DensityStack`) with witnesses ``w`` and return the named
    residuals, each a ``(B,)`` array.

    Residuals: normalization of r and s, trace-norm errors of the channel
    reconstructions V(diag r) = rho and V(diag s) = sigma, Kraus
    completeness, and the match between the witness's chi2 divergence and
    tr(rho sigma^{-1} rho) - 1 (:func:`divergence.chi2_rows`), relative to
    the divergence floored at 1.  The witness is maximal for operator-convex
    f, so the two agree; the reference shares only sigma's cached ``eig``
    with the witness and runs no eigensolver.  A row passes when every
    residual is within ``WITNESS_TOL``.  The reconstructions are
    :meth:`WitnessBatch.recovered`; sum_i A_i^dag A_i is diagonal, with
    entry i equal to ||sigma^{1/2} u_i||^2 / s_i.
    Arguments that are not state stacks raise :class:`NotAState`.
    """
    chi2_std = chi2_rows(rho, sigma)
    chi2_max = w.f_divergence(builtin_generator("chi2"))
    back_r, back_s = w.recovered()
    kraus_cols = w.columns / np.sqrt(w.s)[:, None, :]
    kraus_diag = np.sum(kraus_cols.real ** 2 + kraus_cols.imag ** 2, axis=-2)
    return {
        "r_normalization": np.abs(w.r.sum(axis=-1) - 1.0),
        "s_normalization": np.abs(w.s.sum(axis=-1) - 1.0),
        "reconstruct_rho": trace_norm_hermitian(back_r.mats - rho.mats),
        "reconstruct_sigma": trace_norm_hermitian(back_s.mats - sigma.mats),
        "kraus_completeness": np.max(np.abs(kraus_diag - 1.0), axis=-1),
        "chi2_match": np.abs(chi2_max - chi2_std) / np.maximum(1.0, np.abs(chi2_max)),
    }
