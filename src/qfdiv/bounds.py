"""Pinsker-type inequalities, reverse bounds, and decoherence envelopes.

The bounds are evaluated entrywise over arrays, one pair per entry, and
return the bound itself; callers form the slacks against the side they
compute.  Arrays of different shapes raise :class:`DimensionMismatch`
rather than broadcast.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import (
    DegenerateExtremes,
    DimensionMismatch,
    DomainError,
    NoSecondDerivative,
    OutOfRange,
    QuadratureFailure,
)
from .generators import check_generator
from .linalg import _scalar, numbers, raise_first_failure, singular_check

EQUAL_STATES_EPS = 1e-8
# below this least eigenvalue of rho the second Audenaert-Eisert term is 0
AE_ALPHA_FLOOR = 1e-12
# zeta1_integral's rule: Gauss-Legendre panels at most _PANEL_WIDTH wide in
# u = ln g; twice the nodes may move its result by QUAD_TOL max(1, |result|)
_PANEL_WIDTH, _PANEL_NODES = 2.0, 16
QUAD_TOL = 1e-12
_LOG_MAX_FLOAT = math.log(sys.float_info.max)


def _numbers(**named):
    """The named arguments as floats; raises :class:`DomainError` unless each
    is one real number (:func:`linalg.numbers`)."""
    arrays = [numbers(a) for a in named.values()]
    for name, a in zip(named, arrays):
        if a.ndim:
            raise DomainError(f"{name} must be a number, got shape {a.shape}")
    return [float(a) for a in arrays]


def _one_shape(*arrays):
    """The arrays as float arrays (:func:`linalg.numbers`); raises
    :class:`DimensionMismatch` unless they have one shape."""
    arrays = [numbers(a) for a in arrays]
    shapes = [a.shape for a in arrays]
    if len(set(shapes)) > 1:
        raise DimensionMismatch(f"shapes {', '.join(map(str, shapes[:-1]))} "
                                f"and {shapes[-1]} differ")
    return arrays


def _trace_distance_check(t):
    return (~((0.0 <= t) & (t <= 2.0)), lambda i, where: OutOfRange(
        f"{where}trace distance {t.flat[i]} outside [0, 2]"))


def _extremes_check(m, M, m_positive=False):
    low, ok = ("0 <", 0.0 < m) if m_positive else ("0 <=", 0.0 <= m)
    return (~(ok & (m < 1.0) & (1.0 < M) & (M < math.inf)), lambda i, where: DegenerateExtremes(
        f"{where}need {low} m < 1 < M < inf, got m={m.flat[i]}, M={M.flat[i]}"))


def pinsker_chi2_lower(t):
    """Sharp lower envelope of the chi-squared divergence at trace distance t,
    entrywise.

    Piecewise: t^2 on [0, 1], t / (2 - t) on (1, 2]; ``inf`` at t = 2, which
    is right: states at trace distance 2 have infinite chi-squared divergence.
    """
    t = numbers(t)
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
        # never overflows; bit-identical to 2 x / (1 + x), since doubling is exact
        improved = 2.0 * (decayed / (1.0 + decayed))
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
    entrywise over arrays of one shape.  Once every entry has
    non-degenerate extremes, raises :class:`DomainError` for the lowest entry
    where the form is not finite (f(M) overflows, say)."""
    check_generator(f)
    m, M = _one_shape(m, M)
    raise_first_failure([_extremes_check(m, M)])
    with np.errstate(all="ignore"):
        closed = f.values(M) / (M - 1.0) + f.values(m) / (1.0 - m)
    raise_first_failure([(~np.isfinite(closed), lambda i, where: DomainError(
        f"{where}closed form is {closed.flat[i]} at m={m.flat[i]}, M={M.flat[i]}"))])
    return closed


def zeta1_integral(m, M, f):
    """Integral form of the unit-radius bound, entrywise over arrays of one
    shape with 0 < m < 1 < M < inf: in u = ln g (:func:`_chord_integral`),
    g in [1, M] weighted by (M - g)/(M - 1), and g in [1, 1/m] weighted by
    (1/m - g)/(1/m - 1) with the reflected curvature g^{-3} f''(1/g).
    Each entry takes its own panel count, set by its longer interval, so
    its value and its cost do not depend on the other entries.  Raises
    :class:`QuadratureFailure` where twice the nodes move a result by more
    than ``QUAD_TOL`` max(1, |result|), and :class:`DomainError` where f''
    raises or a result is not finite."""
    check_generator(f)
    fpp = f.second_derivative
    if fpp is None:
        raise NoSecondDerivative(f"generator {f.name} has no second derivative")
    m, M = _one_shape(m, M)
    raise_first_failure([_extremes_check(m, M, m_positive=True)])
    upper, lower = np.log(M), -np.log(m)
    # entries that share a panel count are integrated together
    panels = np.maximum(1, np.ceil(np.maximum(upper, lower) / _PANEL_WIDTH)).astype(int)
    coarse, fine = np.empty_like(m), np.empty_like(m)
    with np.errstate(all="ignore"):
        for count in np.unique(panels).tolist():
            at = panels == count
            lo, hi, up, down = m[at], M[at], upper[at], lower[at]
            try:
                coarse[at], fine[at] = (
                    hi / (hi - 1.0) * _chord_integral(up, 1.0, lambda g: g * fpp(g), n, count)
                    + _chord_integral(down, -1.0, lambda g: g * g * fpp(g), n, count) / (1.0 - lo)
                    for n in (_PANEL_NODES, 2 * _PANEL_NODES))
            except (ArithmeticError, TypeError, ValueError) as exc:
                raise DomainError(f"f'' of {f.name} is undefined on arrays: {exc}") from exc
        apart = ~(np.abs(fine - coarse) <= QUAD_TOL * np.maximum(1.0, np.abs(coarse)))
    raise_first_failure([
        (~np.isfinite(coarse), lambda i, where: DomainError(
            f"{where}integral is {coarse.flat[i]} at m={m.flat[i]}, M={M.flat[i]}")),
        (apart, lambda i, where: QuadratureFailure(f"{where}twice the nodes move "
            f"{coarse.flat[i]} to {fine.flat[i]} at m={m.flat[i]}, M={M.flat[i]}")),
    ])
    return _scalar(coarse)


def _chord_integral(length, sign, curvature, nodes, panels):
    """int_0^L (1 - e^(u - L)) curvature(e^(sign u)) du for each entry L of
    ``length``, over ``panels`` equal panels of the ``nodes``-point
    Gauss-Legendre rule (:func:`_gauss_legendre`).  Each entry's sum is its
    own row's, so its value does not depend on the other entries (a matrix
    product rounds by batch size)."""
    x, w = _gauss_legendre(nodes)
    frac = ((np.arange(panels)[:, None] + (x + 1.0) / 2.0) / panels).ravel()
    column = length[..., None]
    chords = -np.expm1(column * (frac - 1.0)) * curvature(np.exp(sign * column * frac))
    return (chords * np.tile(w, panels)).sum(axis=-1) * length / (2.0 * panels)


@functools.cache
def _gauss_legendre(nodes):
    """The ``nodes``-point Gauss-Legendre nodes and weights on [-1, 1], read
    only, computed once per node count; numpy.polynomial is imported here,
    on first use."""
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


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
