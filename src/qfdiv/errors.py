"""Exception types raised across the package.

Everything derives from :class:`QfdivError` so callers can catch the whole
family at once; most types also subclass a matching builtin.
"""


class QfdivError(Exception):
    """Base class for all errors raised by this package."""


class NoConvergence(QfdivError, RuntimeError):
    """The eigensolver failed to converge."""


class NegativeSpectrum(QfdivError, ValueError):
    """A matrix expected to be positive semidefinite has an eigenvalue
    below the clamping threshold."""


class DomainError(QfdivError, ValueError):
    """Entries given are not numbers of the kind wanted, or not finite where
    they must be, or a scalar function was undefined or non-finite on the
    spectrum it was applied to."""


class SingularState(QfdivError, ValueError):
    """A state that must be invertible has a near-zero eigenvalue."""


class DimensionMismatch(QfdivError, ValueError):
    """Operands have incompatible dimensions."""


class UnknownGenerator(QfdivError, KeyError):
    """No builtin generator with the requested name."""


class NotAGenerator(QfdivError, TypeError):
    """An argument that must be an ``FGenerator`` is of another type."""


class ZeroReference(QfdivError, ValueError):
    """The reference distribution has a zero entry, so likelihood ratios
    are undefined."""


class OutOfRange(QfdivError, ValueError):
    """A scalar argument lies outside its admissible interval, or a count,
    a seed or a key part is not an integer of at least its minimum."""


class DegenerateExtremes(QfdivError, ValueError):
    """Likelihood-ratio extremes do not satisfy m < 1 < M."""


class NoSecondDerivative(QfdivError, ValueError):
    """The generator does not carry a second derivative, so the integral
    form is unavailable."""


class QuadratureFailure(QfdivError, RuntimeError):
    """A quadrature rule and the rule with twice the nodes disagree."""


class SamplingBudgetExceeded(QfdivError, RuntimeError):
    """Rejection sampling used up its draw budget before keeping every
    requested sample."""


class StreamsConsumed(QfdivError, RuntimeError):
    """One-pass substreams were iterated a second time."""


class ParseError(QfdivError, ValueError):
    """A state file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAState(QfdivError, TypeError):
    """An argument that must be a checked state carrier is of another type."""


class InvariantViolation(QfdivError, ValueError):
    """A typed object failed one of its construction invariants."""

    def __init__(self, invariant, message):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")
