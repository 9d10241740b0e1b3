"""Pinsker-type inequalities, reverse bounds, and decoherence envelopes.

The bounds are evaluated entrywise over arrays, one pair per entry, and
return the bound itself; callers form the slacks against the side they
compute.  Arrays of different shapes raise :class:`DimensionMismatch`
rather than broadcast.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import (
    DegenerateExtremes,
    DimensionMismatch,
    DomainError,
    NoSecondDerivative,
    OutOfRange,
    QfdivError,
    QuadratureFailure,
)
from .linalg import _scalar, raise_first_failure, singular_check

EQUAL_STATES_EPS = 1e-8
# below this least eigenvalue of rho the second Audenaert-Eisert term is 0
AE_ALPHA_FLOOR = 1e-12
DEFAULT_QUAD_TOL = 1e-8
MAX_QUAD_INTERVALS = 100_000
_LOG_MAX_FLOAT = math.log(sys.float_info.max)


def _floats(*arrays):
    """The arrays as float arrays; raises :class:`DomainError` for entries
    that are not real numbers."""
    try:
        return [np.asarray(x, dtype=float) for x in arrays]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"entries are not real numbers: {exc}") from exc


def _numbers(**named):
    """The named arguments as floats; raises :class:`DomainError` unless each
    is one real number."""
    arrays = _floats(*named.values())
    for name, a in zip(named, arrays):
        if a.ndim:
            raise DomainError(f"{name} must be a number, got shape {a.shape}")
    return [float(a) for a in arrays]


def _one_shape(*arrays):
    """The arrays as float arrays (:func:`_floats`); raises
    :class:`DimensionMismatch` unless they have one shape."""
    arrays = _floats(*arrays)
    shapes = [a.shape for a in arrays]
    if len(set(shapes)) > 1:
        raise DimensionMismatch(f"shapes {', '.join(map(str, shapes[:-1]))} "
                                f"and {shapes[-1]} differ")
    return arrays


def _trace_distance_check(t):
    return (~((0.0 <= t) & (t <= 2.0)), lambda i, where: OutOfRange(
        f"{where}trace distance {t.flat[i]} outside [0, 2]"))


def _extremes_check(m, M):
    return (~((0.0 <= m) & (m < 1.0) & (1.0 < M) & (M < math.inf)),
            lambda i, where: DegenerateExtremes(
                f"{where}need 0 <= m < 1 < M < inf, got m={m.flat[i]}, M={M.flat[i]}"))


def pinsker_chi2_lower(t):
    """Sharp lower envelope of the chi-squared divergence at trace distance t,
    entrywise.

    Piecewise: t^2 on [0, 1], t / (2 - t) on (1, 2]; unbounded as t -> 2.
    """
    (t,) = _floats(t)
    raise_first_failure([_trace_distance_check(t)])
    with np.errstate(divide="ignore"):
        return _scalar(np.where(t <= 1.0, t * t, t / (2.0 - t)))


def decoherence_bounds(chi2_0, lam, t):
    """Trace-distance decay envelopes under decoherence at rate lam.

    Returns (temme, improved): the classical envelope
    exp(-lam t / 2) sqrt(chi2_0) and its refinement
    2 x / (1 + x) with x = exp(-lam t) chi2_0, used while exp(lam t) < chi2_0
    and equal to the classical one after the crossover.  Always
    improved <= temme and improved <= 2.
    """
    chi2_0, lam, t = _numbers(chi2_0=chi2_0, lam=lam, t=t)
    if not 0.0 <= chi2_0 < math.inf:
        raise OutOfRange(f"chi2_0 must be finite and nonnegative, got {chi2_0}")
    if not 0.0 < lam < math.inf:
        raise OutOfRange(f"decay rate must be finite and positive, got {lam}")
    if not 0.0 <= t < math.inf:
        raise OutOfRange(f"time must be finite and nonnegative, got {t}")
    decayed = math.exp(-lam * t) * chi2_0
    temme = math.sqrt(decayed)
    # exp(lam t) overflows past _LOG_MAX_FLOAT, and then exceeds every chi2_0
    if lam * t < _LOG_MAX_FLOAT and math.exp(lam * t) < chi2_0:
        improved = 2.0 * decayed / (1.0 + decayed)
    else:
        improved = temme
    return temme, improved


def binette_rhs(m, M, t, f):
    """Reverse-Pinsker right side (t/2) ``zeta1_closed(m, M, f)``, entrywise
    over arrays of one shape.

    Needs t in [0, 2] and non-degenerate extremes 0 <= m < 1 < M; arrays
    raise for their lowest bad entry.

    Caution: with (m, M) the extreme likelihood ratios of a pair and t its
    trace distance, D_f(r || s) of the witness can exceed this right side
    even when the positivity condition holds.  ||r - s||_1 >= ||rho -
    sigma||_1 by data processing through the recovery channel, with strict
    inequality for non-commuting pairs (for f(x) = |x - 1| the left side IS
    ||r - s||_1 and the right side is exactly ||rho - sigma||_1).  Two forms
    do hold, Binette's inequality on the witness pair itself and the
    trace-distance form for the Umegaki relative entropy;
    ``verify.reverse_pinsker_and_binette`` checks both and says why.
    """
    m, M, t = _one_shape(m, M, t)
    raise_first_failure([_trace_distance_check(t), _extremes_check(m, M)])
    return (t / 2.0) * zeta1_closed(m, M, f)


def zeta1_closed(m, M, f):
    """Closed form f(M)/(M-1) + f(m)/(1-m) of the unit-radius bound,
    entrywise over arrays of one shape."""
    m, M = _one_shape(m, M)
    raise_first_failure([_extremes_check(m, M)])
    return f.values(M) / (M - 1.0) + f.values(m) / (1.0 - m)


def zeta1_integral(m, M, f, quad_tol=DEFAULT_QUAD_TOL):
    """Integral form of the unit-radius bound via the curvature measure.

    Two adaptive-quadrature pieces: gamma in [1, M] weighted by
    (M - gamma)/(M - 1), and gamma in [1, 1/m] weighted by
    (1/m - gamma)/(1/m - 1) with the reflected curvature
    gamma^{-3} f''(1/gamma).  Needs one pair of real numbers, m > 0, and a
    generator with f''.
    """
    if f.second_derivative is None:
        raise NoSecondDerivative(f"generator {f.name} has no second derivative")
    m, M = _numbers(m=m, M=M)
    if not (0.0 < m < 1.0 < M < math.inf):
        raise DegenerateExtremes(f"need 0 < m < 1 < M < inf, got m={m}, M={M}")
    fpp = f.second_derivative
    upper = adaptive_simpson(
        lambda g: (M - g) / (M - 1.0) * fpp(g), 1.0, M, quad_tol
    )
    inv_m = 1.0 / m
    lower = adaptive_simpson(
        lambda g: (inv_m - g) / (inv_m - 1.0) * g ** -3.0 * fpp(1.0 / g),
        1.0,
        inv_m,
        quad_tol,
    )
    return upper + lower


def adaptive_simpson(fn, a, b, tol=DEFAULT_QUAD_TOL, max_intervals=MAX_QUAD_INTERVALS):
    """Adaptive Simpson quadrature of fn over [a, b].

    Interval bisection with an explicit stack; each accepted panel gets the
    Richardson correction (S2 - S1)/15 and the tolerance halves per split.
    Raises :class:`QuadratureFailure` past ``max_intervals`` subintervals,
    and :class:`DomainError` where fn raises an ``ArithmeticError`` or a
    ``ValueError``.
    """
    if a == b:
        return 0.0
    try:
        return _simpson(fn, a, b, tol, max_intervals)
    except QfdivError:
        raise
    except (ArithmeticError, ValueError) as exc:
        raise DomainError(f"integrand undefined on [{a}, {b}]: {exc}") from exc


def _simpson(fn, a, b, tol, max_intervals):
    fa, fb = fn(a), fn(b)
    mid = (a + b) / 2.0
    fm = fn(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, tol)]
    total = 0.0
    intervals = 1
    while stack:
        a0, b0, f0, f1, f2, s0, tol0 = stack.pop()
        m0 = (a0 + b0) / 2.0
        lm = (a0 + m0) / 2.0
        rm = (m0 + b0) / 2.0
        flm, frm = fn(lm), fn(rm)
        left = (m0 - a0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (b0 - m0) / 6.0 * (f1 + 4.0 * frm + f2)
        s1 = left + right
        if abs(s1 - s0) <= 15.0 * tol0:
            total += s1 + (s1 - s0) / 15.0
            continue
        intervals += 1
        if intervals > max_intervals:
            raise QuadratureFailure(
                f"exceeded {max_intervals} subintervals on [{a}, {b}]"
            )
        half = tol0 / 2.0
        stack.append((a0, m0, f0, flm, f1, left, half))
        stack.append((m0, b0, f1, frm, f2, right, half))
    return total


def audenaert_eisert_rows(t, alpha, beta):
    """Relative-entropy upper bound of each row from its trace distance t, in
    [0, 2], and the least eigenvalues alpha of rho, in [-1, 1], and beta of
    sigma, in (``SINGULAR_EPS``, 1], three arrays of one shape:

        (beta + t/2) ln(1 + t/(2 beta)) - alpha ln(1 + t/(2 alpha)),

    where the second term vanishes for alpha < ``AE_ALPHA_FLOOR``.
    """
    t, alpha, beta = _one_shape(t, alpha, beta)
    raise_first_failure([
        _trace_distance_check(t), singular_check(beta),
        # a state's least eigenvalue is at most 1; this fails nan and inf too
        (~((np.abs(alpha) <= 1.0) & (beta <= 1.0)), lambda i, where: OutOfRange(
            f"{where}least eigenvalues alpha={alpha.flat[i]}, beta={beta.flat[i]} "
            "outside [-1, 1]")),
    ])
    alpha = np.maximum(alpha, 0.0)
    first = (beta + t / 2.0) * np.log1p(t / (2.0 * beta))
    kept = alpha >= AE_ALPHA_FLOOR
    safe = np.where(kept, alpha, 1.0)
    second = np.where(kept, safe * np.log1p(t / (2.0 * safe)), 0.0)
    return first - second
