"""Dense Hermitian linear algebra on small complex matrices.

Plain ``numpy`` arrays in, plain arrays out; the typed state wrappers live in
:mod:`qfdiv.states`.  ``hermitian_part``, ``hermitian_eig``,
``trace_norm_hermitian`` and ``psd_rows`` also take a stack of matrices,
shape ``(B, n, n)``, and work row by row: a single matrix gives a scalar
result, a stack gives one entry per row.  Eigenvector phases follow a fixed
convention so repeated runs on identical input are bit-identical.  Nothing
here checks Hermiticity: a matrix is checked once, where it enters as a
state (the carriers of :mod:`qfdiv.states`), and ``hermitian_eig`` and
``trace_norm_hermitian`` take Hermitian input as given.  On finite input
near the largest float, ``hermitian_part`` and ``hermitian_eig`` return
finite values or raise a typed error, and emit no warning.

Input from outside passes one gate, here: :func:`numbers` is the only
conversion of an outside array, and :func:`check_counts` the only check of
a size, a sample count, a seed or a key part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, NoConvergence, OutOfRange, SingularState

# eigenvalues in [-PSD_CLAMP_TOL, 0) are treated as exact zeros
PSD_CLAMP_TOL = 1e-8
# a state whose least eigenvalue is at or below this is treated as singular
SINGULAR_EPS = 1e-10


def raise_first_failure(checks):
    """Raise the error of the lowest failing row, if any row fails.

    ``checks`` lists ``(bad, make)`` pairs in the order one matrix is
    checked: ``bad`` is a per-row mask and ``make(i, where)`` builds the
    error for row ``i``, with ``where`` the prefix ``"row i: "`` in a stack
    of several rows and ``""`` otherwise.  A row that fails several checks
    reports the earliest, so a stack raises exactly what a loop over its
    rows would raise first.
    """
    rows = np.size(checks[0][0])
    first = None
    for bad, make in checks:
        if bad.any():
            i = int(bad.argmax())
            if first is None or i < first[0]:
                first = (i, make)
    if first is not None:
        i, make = first
        raise make(i, f"row {i}: " if rows > 1 else "")


def singular_check(min_eigenvalues):
    """The ``raise_first_failure`` check that sigma is singular: its least
    eigenvalue, one per row, is at or below ``SINGULAR_EPS``, or nan."""
    low = np.asarray(min_eigenvalues)
    return (~(low > SINGULAR_EPS), lambda i, where: SingularState(
        f"{where}sigma has min eigenvalue {low.flat[i]:.3e}"))


def adjoint(a):
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _scalar(x):
    """A 0-d result as a Python scalar; per-row results stay arrays."""
    return x.item() if np.ndim(x) == 0 else x


# the array kinds (bool, signed, unsigned, float, complex) each dtype takes
_NUMBER_KINDS = {"f": "biuf", "c": "biufc"}


def numbers(a, dtype=float, finite=False):
    """``a`` as an array of ``dtype``, float or complex128: the one place an
    outside array is converted.  Strings (numeric ones too), complex entries
    where reals are wanted, ragged lists, None and other objects raise
    :class:`DomainError`, and so do non-finite entries if ``finite``.  An
    array of ``dtype`` is returned as is, not copied."""
    try:
        raw = np.asarray(a)
    except (TypeError, ValueError) as exc:  # a ragged list, say
        raise DomainError(f"entries are not numbers: {exc}") from exc
    dtype = np.dtype(dtype)
    if raw.dtype.kind not in _NUMBER_KINDS[dtype.kind]:
        raise DomainError(f"entries are not numbers: got {raw.dtype}, need {dtype}")
    out = raw.astype(dtype, copy=False)
    if finite and not np.isfinite(out).all():
        raise DomainError("entries are not finite")
    return out


def check_counts(minimum=1, **named):
    """Raise :class:`OutOfRange`, naming it, for the first of ``named`` that
    is not an integer of at least ``minimum``."""
    for name, value in named.items():
        if not isinstance(value, (int, np.integer)) or value < minimum:
            raise OutOfRange(f"{name} must be an integer >= {minimum}, got {value!r}")


def as_complex_matrix(a):
    """Coerce input to a complex128 square matrix, or stack of them, with
    finite entries; complex128 input is returned as is, not copied."""
    m = numbers(a, np.complex128, finite=True)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def _defects(a):
    # max |a - a^dag| per row; entries near the largest float can overflow
    # into inf, which fails every tolerance; that must not warn
    with np.errstate(over="ignore"):
        return np.abs(a - adjoint(a)).max(axis=(-2, -1))


def hermitian_part(m):
    """(m + m^dag) / 2, of a matrix or of each matrix in a stack, formed as
    m / 2 + m^dag / 2 so that it is finite for finite input."""
    return m * 0.5 + adjoint(m) * 0.5


@dataclass(frozen=True)
class HermitianEigen:
    """Spectral decomposition A = V diag(w) V^dag, of one matrix or a stack.

    ``eigenvalues`` are real and ascending along the last axis; column k of
    ``vectors`` is the eigenvector for ``eigenvalues[..., k]``.
    :func:`hermitian_eig` fixes each column's phase so its largest-modulus
    component is real and positive; the class itself fixes none, and
    :meth:`compose` does not depend on them.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def compose(self, values):
        """V diag(values) V^dag, with ``values`` shaped like the eigenvalues."""
        return (self.vectors * values[..., None, :]) @ adjoint(self.vectors)


def _fix_phases(u):
    # rotate each column so its largest-modulus entry is real positive
    n = u.shape[-1]
    stack = u.reshape(-1, n, n)
    lead_row = np.abs(stack).argmax(axis=-2)
    lead = stack[np.arange(len(stack))[:, None], lead_row, np.arange(n)]
    return u * (lead.conj() / np.abs(lead)).reshape(u.shape[:-2] + (1, n))


def _eigh(m):
    # the one eigensolver call: m must be Hermitian already, and is not checked
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed: {exc}") from exc
    # a finite matrix near the largest float can have an eigenvalue past it
    if not np.isfinite(w).all():
        raise DomainError("eigenvalues overflow the float range")
    return w, u


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix, or of each matrix in a
    stack, with deterministic phases.  ``a`` must be Hermitian already and
    is not checked."""
    w, u = _eigh(a)
    return HermitianEigen(w, _fix_phases(u))


def trace_norm_hermitian(x):
    """Trace norm of a Hermitian matrix, or of each matrix in a stack: sum
    of absolute eigenvalues.  ``x`` must be Hermitian already and is not
    checked."""
    return _scalar(np.sum(np.abs(np.linalg.eigvalsh(x)), axis=-1))


def psd_rows(a, tol):
    """Whether ``a + tol I`` is positive definite, per row: whether its
    Cholesky factorization completes.

    Reads only the lower triangle of each row, as LAPACK does; for a
    Hermitian row the verdict is ``lambda_min > -tol``, up to rounding at
    the boundary.  A stack with at least n rows runs n column steps over
    the whole stack; a shorter one factors each row with one LAPACK call,
    which is cheaper when the steps would outnumber the rows.
    """
    m = np.asarray(a)
    n = m.shape[-1]
    stack = m.reshape((-1, n, n)) + tol * np.eye(n)
    if len(stack) < n:
        ok = np.array([_cholesky_completes(row) for row in stack], dtype=bool)
    else:
        ok = _cholesky_columns(stack)
    return _scalar(ok.reshape(m.shape[:-2]))


def _cholesky_completes(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _cholesky_columns(w):
    # Right-looking Cholesky of every row of the stack at once, overwriting
    # the lower triangle of w; a row fails at its first pivot that is not
    # positive, and from then on divides by 1 so its values stay finite.
    # Upper-triangle entries are updated too but never read.
    ok = np.ones(len(w), dtype=bool)
    # a failed row, or one past a subnormal pivot, may overflow into inf
    # or nan, which fails its later pivots; that must not warn
    with np.errstate(all="ignore"):
        for j in range(w.shape[-1]):
            pivot = w[:, j, j].real
            ok &= pivot > 0.0
            col = w[:, j + 1:, j] / np.sqrt(np.where(ok, pivot, 1.0))[:, None]
            w[:, j + 1:, j + 1:] -= col[:, :, None] * col[:, None, :].conj()
    return ok


def matrix_polynomial(coeffs, x):
    """Evaluate sum_k coeffs[k] X^k by Horner's rule; X may be non-Hermitian."""
    m = as_complex_matrix(x)
    eye = np.eye(m.shape[-1], dtype=np.complex128)
    out = np.zeros_like(m)
    for c in reversed(list(coeffs)):
        out = out @ m + c * eye
    return out
