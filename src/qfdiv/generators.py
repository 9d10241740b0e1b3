"""Convex generator functions f for f-divergences.

A generator is convex on (0, inf) with f(1) = 0; the value at 0 is supplied
explicitly as the continuous limit.  Builtins, each built once at import:

    kl    f(x) = x ln x          (nats)
    chi2  f(x) = x^2 - 1
    tv    f(x) = |x - 1|

Convexity and the declared second derivative are spot-checked when a
generator is constructed, so invalid generators fail fast.  ``value`` must
work elementwise on numpy arrays as well as on floats, so divergences of
many distributions are evaluated in one array expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, InvariantViolation, NotAGenerator, UnknownGenerator
from .linalg import numbers

CONVEXITY_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)
_MIDPOINT_SLACK = 1e-12
_FD_REL_TOL = 1e-5


@dataclass(frozen=True)
class FGenerator:
    """A divergence generator with its registration metadata.

    ``second_derivative`` may be None (e.g. tv); operations that need f''
    reject such generators.  Like ``value``, it is evaluated elementwise on
    arrays, and ``zeta1_integral`` needs it smooth in ln x.
    ``operator_convex`` marks generators for which the data-processing
    inequality of the maximal divergence is guaranteed.
    """

    name: str
    value: Callable[[float], float]
    value_at_zero: float
    second_derivative: Optional[Callable[[float], float]] = None
    operator_convex: bool = False

    def __post_init__(self):
        if float(self.value(1.0)) != 0.0:
            raise InvariantViolation("normalization", f"{self.name}: f(1) must be 0")
        for x in CONVEXITY_GRID:
            for y in CONVEXITY_GRID:
                mid = self.value((x + y) / 2)
                chord = (self.value(x) + self.value(y)) / 2
                if mid > chord + _MIDPOINT_SLACK:
                    raise InvariantViolation(
                        "convexity",
                        f"{self.name}: midpoint test failed at ({x}, {y})",
                    )
        if self.second_derivative is not None:
            for x in CONVEXITY_GRID:
                h = x * 1e-4
                fd = (self.value(x + h) - 2 * self.value(x) + self.value(x - h)) / (h * h)
                sd = self.second_derivative(x)
                if abs(fd - sd) > _FD_REL_TOL * max(1.0, abs(sd)):
                    raise InvariantViolation(
                        "second-derivative",
                        f"{self.name}: declared f''({x}) = {sd:.6g} but finite "
                        f"difference gives {fd:.6g}",
                    )

    def values(self, x):
        """Evaluate f elementwise on an array of points x >= 0, using the
        declared limit at x = 0.  Points that are not real numbers
        (:func:`linalg.numbers`), or not >= 0 (nan included), raise
        :class:`DomainError`."""
        x = numbers(x)
        low = x.min(initial=np.inf)  # nan if any entry is nan
        if low > 0.0:
            return self.value(x)
        if not low >= 0.0:
            raise DomainError(f"{self.name}: f is defined on x >= 0, got {low}")
        at_zero = x == 0.0
        return np.where(at_zero, self.value_at_zero,
                        self.value(np.where(at_zero, 1.0, x)))


_BUILTINS = {f.name: f for f in (
    FGenerator(name="kl", value=lambda x: x * np.log(x), value_at_zero=0.0,
               second_derivative=lambda x: 1.0 / x, operator_convex=True),
    FGenerator(name="chi2", value=lambda x: x * x - 1.0, value_at_zero=-1.0,
               second_derivative=lambda x: 2.0, operator_convex=True),
    FGenerator(name="tv", value=lambda x: np.abs(x - 1.0), value_at_zero=1.0,
               second_derivative=None, operator_convex=False),
)}
BUILTIN_NAMES = tuple(_BUILTINS)


def check_generator(f):
    """Raise :class:`NotAGenerator` unless ``f`` is an :class:`FGenerator`
    (a builtin's name, say, is not one: :func:`builtin_generator` looks it up)."""
    if not isinstance(f, FGenerator):
        raise NotAGenerator(f"f must be an FGenerator, got {type(f).__name__}")


def builtin_generator(name):
    """Return one of the builtin generators by name: kl, chi2, or tv; the
    same (frozen) instance on every call."""
    if name not in BUILTIN_NAMES:
        raise UnknownGenerator(name)
    return _BUILTINS[name]
