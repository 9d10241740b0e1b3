"""Typed carriers for states and channels, plus random ensembles.

Random sampling is reproducible: every Monte Carlo sample draws from its own
substream derived from (seed, sample index), so results do not depend on
evaluation order.  The batched loops seed a whole chunk of substreams with
one vectorized pass of ``SeedSequence``'s hash (:func:`substreams`), about
4 µs per generator against about 26 µs for one ``SeedSequence`` each, and
every generator is in exactly the state that :func:`substream` gives; each
is built only when the sampling loop reaches it.  Each generator makes one
Gaussian draw straight into a preallocated stack, in the order that
one-at-a-time sampling would draw, so a stack holds exactly the states that
one-at-a-time sampling would give.

Positivity is decided in one place, :func:`linalg.psd_rows`.  Every state
built, sampled or parsed is checked by it at its ``tol``; the eigensolver
runs only when a row fails, to name the lowest failing row.  Spectra and
eigendecompositions are computed on first read.  The condition
|rho - sigma| <= rho + sigma (:func:`abs_condition_rows`) runs one
eigensolver, on rho - sigma, and takes its verdict from ``psd_rows`` too.
Where only the verdicts are read (:func:`abs_condition_holds`), ``psd_rows``
on the anticommutator rho sigma + sigma rho certifies most rows first, since
(rho + sigma)^2 - (rho - sigma)^2 = 2 (rho sigma + sigma rho) and the square
root is operator monotone; the eigensolver runs only on the rows it leaves
open.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvariantViolation, NotAState, OutOfRange

STATE_TOL = 1e-10
CHANNEL_TOL = 1e-9
CONDITION_TOL = 1e-9
# matrix entries per stack in the batched Monte Carlo loops (read only by
# chunks): 256 rows at dim 8, 1024 at dim 4; bounds their memory
CHUNK_ENTRIES = 256 * 8 * 8
# sample indices enter the vectorized seeding hash as one uint32 word each
MAX_INDEX = 2**32 - 1


def substream(seed, *key):
    """Independent generator derived from a base seed and an index key."""
    linalg.check_counts(0, seed=seed, **{f"key[{i}]": part for i, part in enumerate(key)})
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def chunks(samples, n):
    """The index ranges that cover ``range(samples)`` in order, each of
    ``max(1, CHUNK_ENTRIES // n**2)`` rows but the last: the stacks of n x n
    pairs that the batched Monte Carlo loops sample and check together.
    ``samples`` and ``n`` are counts of at least 1 (:class:`OutOfRange`)."""
    linalg.check_counts(samples=samples, n=n)
    rows = max(1, CHUNK_ENTRIES // n**2)
    return [range(start, min(start + rows, samples)) for start in range(0, samples, rows)]


def substreams(seed, prefix, indices):
    """One generator per index, as a sized iterable that can be iterated
    once: generator b is in exactly the state of
    ``substream(seed, *prefix, indices[b])``.

    ``SeedSequence``'s hash runs once over the whole chunk, here; each
    generator is built from its hashed row only when iteration reaches it,
    so a loop that draws once per generator holds one at a time, too few
    live objects to start a garbage collection.  A second iteration raises
    :class:`StreamsConsumed`; a caller that draws from a stream again
    later takes ``list(...)``.  The hash's fixed cost makes it dearer than
    :func:`substream` below about ten indices and about six times cheaper
    per generator at 256 indices.  Indices must be integers in
    ``[0, MAX_INDEX]``, and the prefix a tuple or list of integers >= 0.
    """
    if not isinstance(prefix, (tuple, list)):
        raise OutOfRange(f"prefix must be a tuple or list of integers >= 0, got {prefix!r}")
    linalg.check_counts(0, seed=seed, **{f"prefix[{i}]": part for i, part in enumerate(prefix)})
    idx = linalg.numbers(indices)
    if idx.size and (idx.min() < 0 or idx.max() > MAX_INDEX or np.any(idx != np.floor(idx))):
        raise OutOfRange(f"sample indices must be integers in [0, {MAX_INDEX}]")
    from . import _seeding  # loads numpy.random on first use, not at import

    return _seeding.Generators(int(seed), tuple(map(int, prefix)), idx.astype(np.uint32))


def _check_tol(tol):
    """Raise :class:`OutOfRange` unless ``tol`` is a real number in
    [0, inf): a nan or infinite tolerance would let every check pass."""
    if not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
        raise OutOfRange(f"tolerance must be a real number in [0, inf), got {tol!r}")


def _read_only(a):
    a.flags.writeable = False
    return a


def _check_states(m, tol):
    """Symmetrize a complex ``(B, n, n)`` stack and check each row is a
    state within ``tol``; returns the read-only stack, or raises for the
    lowest failing row.

    :func:`linalg.psd_rows` certifies that no least eigenvalue lies below
    ``-tol``.  Only when a row fails does ``eigvalsh`` run, and its least
    eigenvalues decide which rows fail; a stack with none is accepted.
    The two agree up to rounding at the boundary.
    """
    _check_tol(tol)
    defect = linalg._defects(m)
    m = linalg.hermitian_part(m)
    # a trace near the largest float overflows into inf, which fails
    with np.errstate(over="ignore"):
        tr_gap = np.abs(m.trace(axis1=1, axis2=2).real - 1.0)
    checks = [
        (defect > tol, lambda i, where: InvariantViolation(
            "hermiticity", f"{where}max |A - A^dag| = {defect[i]:.3e}")),
        (tr_gap > tol, lambda i, where: InvariantViolation(
            "trace", f"{where}|tr - 1| = {tr_gap[i]:.3e}")),
    ]
    if not linalg.psd_rows(m, tol).all():
        low = np.linalg.eigvalsh(m)[:, 0]
        # a least eigenvalue the solver could not give (nan) fails too
        checks.append((~(low >= -tol), lambda i, where: InvariantViolation(
            "positivity", f"{where}min eigenvalue {low[i]:.3e}")))
    linalg.raise_first_failure(checks)
    return _read_only(m)


class DensityStack:
    """Stack of density matrices, each Hermitian PSD with unit trace.

    ``mats`` is a new, read-only, symmetrized stack, checked by
    :func:`_check_states`: a failing stack raises for its lowest failing
    row.  ``spectra`` (``eigvalsh``, one row per state) and ``eig``
    (:func:`linalg.hermitian_eig`) are computed on first read and cached;
    their eigenvalues differ in the last bits, so neither stands in for the
    other.  Rows taken from checked stacks (:meth:`take`, :meth:`concatenate`)
    stay checked and are not checked again.  A single state is a one-row
    stack.
    """

    __slots__ = ("mats", "tol", "_spectra", "_eig")

    def __init__(self, mats, tol=STATE_TOL):
        m = linalg.as_complex_matrix(mats)
        if m.ndim != 3:
            raise DimensionMismatch(f"expected a (B, n, n) stack, got shape {m.shape}")
        self.mats = _check_states(m, tol)
        self.tol = tol
        self._spectra = self._eig = None

    @property
    def spectra(self):
        if self._spectra is None:
            self._spectra = _read_only(np.linalg.eigvalsh(self.mats))
        return self._spectra

    @property
    def eig(self):
        if self._eig is None:
            self._eig = linalg.hermitian_eig(self.mats)
            for a in (self._eig.eigenvalues, self._eig.vectors):
                _read_only(a)
        return self._eig

    def take(self, rows):
        """The rows ``rows`` (an index array, a slice or a boolean mask) as a
        stack, without checking them again; it keeps their spectra and
        eigendecompositions if they were already computed.  Rows that do not
        index the stack, or select something other than a stack of its
        matrices, raise :class:`OutOfRange`."""
        try:
            mats = _read_only(self.mats[rows])
        except IndexError as exc:
            raise OutOfRange(f"rows {rows!r} of a stack of {len(self.mats)}: {exc}") from exc
        if mats.shape[1:] != self.mats.shape[1:]:
            raise OutOfRange(f"rows {rows!r} of a stack of shape {self.mats.shape} "
                             f"select shape {mats.shape}, not a stack")
        spectra = None if self._spectra is None else _read_only(self._spectra[rows])
        eig = None if self._eig is None else linalg.HermitianEigen(
            *(_read_only(a[rows]) for a in (self._eig.eigenvalues, self._eig.vectors)))
        return _checked_stack(mats, self.tol, spectra, eig)

    @staticmethod
    def concatenate(stacks):
        """The rows of ``stacks`` in order, as one stack checked at the
        largest of their tolerances, without checking them again; its
        spectra and eigendecompositions are computed on first read.  No
        stacks, or stacks of two matrix shapes, raise :class:`DimensionMismatch`;
        anything but a sequence of stacks raises :class:`NotAState`."""
        stacks = list(stacks) if np.iterable(stacks) else stacks
        check_types(list, stacks=stacks)
        check_types(DensityStack, **{f"stacks[{i}]": s for i, s in enumerate(stacks)})
        shapes = [s.mats.shape for s in stacks]
        if len({shape[1:] for shape in shapes}) != 1:
            raise DimensionMismatch(f"cannot concatenate stacks of shapes {shapes}")
        return _checked_stack(_read_only(np.concatenate([s.mats for s in stacks])),
                              max(s.tol for s in stacks))


def _checked_stack(mats, tol, spectra=None, eig=None):
    """A :class:`DensityStack` of read-only rows already checked at ``tol``."""
    stack = object.__new__(DensityStack)
    stack.mats, stack.tol, stack._spectra, stack._eig = mats, tol, spectra, eig
    return stack


class QuantumChannel:
    """Kraus family {A_i} with sum_i A_i^dag A_i = I within ``CHANNEL_TOL``."""

    __slots__ = ("kraus",)

    def __init__(self, kraus):
        # a family that is not a sequence is read as one operator, which is not 2-d
        ops = [linalg.numbers(a, np.complex128, finite=True)
               for a in (kraus if np.iterable(kraus) else [kraus])]
        if not ops:
            raise InvariantViolation("completeness", "empty Kraus family")
        shapes = sorted({a.shape for a in ops})
        if len(shapes) != 1 or len(shapes[0]) != 2:
            raise DimensionMismatch(f"Kraus operators must share one 2-d shape, got {shapes}")
        stack = np.array(ops)  # a copy: the caller's arrays are never made read-only
        defect = completeness_defect(stack)
        if not defect <= CHANNEL_TOL:
            raise InvariantViolation("completeness", f"max |sum A^dag A - I| = {defect:.3e}")
        stack.flags.writeable = False
        self.kraus = stack

    def __repr__(self):
        k, out, inn = self.kraus.shape
        return f"QuantumChannel({k} Kraus ops, {inn} -> {out})"


def completeness_defect(kraus):
    """Largest entry of |sum_i A_i^dag A_i - I| for a ``(k, m, n)`` Kraus
    stack, summed as one matrix product of the ``(k m, n)`` stacked rows."""
    n = kraus.shape[-1]
    flat = kraus.reshape(-1, n)
    return float(np.max(np.abs(flat.conj().T @ flat - np.eye(n))))


def ginibre_states(factors):
    """The states G G^dag / tr(G G^dag) of a ``(B, n, rank)`` factor stack
    of finite numbers (else :class:`DomainError`), symmetrized once, by the
    state stack."""
    g = linalg.numbers(factors, np.complex128, finite=True)
    m = g @ linalg.adjoint(g)
    return DensityStack(m / m.trace(axis1=1, axis2=2).real[:, None, None])


def random_pairs(rngs, n, rank=None):
    """One (rho, sigma) draw from each generator of ``rngs``, a sized
    iterable read once, rho first, as two stacks of states
    G G^dag / tr(G G^dag), G an n x rank complex Gaussian.

    rank = n (the default) is the Hilbert-Schmidt ensemble; rank < n gives
    rank-deficient states; rank > n keeps full rank but concentrates the
    measure toward the maximally mixed state (induced ensemble with an
    environment of dimension ``rank``).
    """
    rho_factors, sigma_factors = _ginibre_factors(rngs, n, rank)
    return ginibre_states(rho_factors), ginibre_states(sigma_factors)


def _ginibre_factors(rngs, n, rank):
    """``(2, B, n, rank)`` complex Gaussian factors of rho and sigma, rank
    defaulting to n.  Generator b makes one draw into row b of a
    ``(B, 2, 2, n, rank)`` float buffer, whose C order (real then imaginary
    part of rho's factor, then of sigma's) is the order of four separate
    ``(n, rank)`` draws."""
    rank = n if rank is None else rank
    linalg.check_counts(n=n, rank=rank)
    buf = np.empty((len(rngs), 2, 2, n, rank))
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=buf[b])
    g = np.empty((2, len(rngs), n, rank), dtype=np.complex128)
    g.real, g.imag = buf.transpose(2, 1, 0, 3, 4)
    return g


def random_channel(n, k=None, *, seed):
    """Draw a Haar-random isometry C^n -> C^(kn) and split it into k Kraus
    blocks; k defaults to n.  ``seed`` is a generator, which draws on, or
    the base seed of :func:`substream`."""
    k = n if k is None else k
    linalg.check_counts(n=n, k=k)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed)
    g = rng.standard_normal((k * n, n)) + 1j * rng.standard_normal((k * n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return QuantumChannel([q[i * n : (i + 1) * n, :] for i in range(k)])


def apply_channel_rows(kraus, rho):
    """Apply channel b to state b of a stack: sum_i A_bi rho_b A_bi^dag for a
    ``(B, k, m, n)`` Kraus stack of finite entries and a :class:`DensityStack`
    ``rho`` (else :class:`NotAState`), terms added in the order of i, checked at ``rho.tol``."""
    check_types(DensityStack, rho=rho)
    kraus = linalg.numbers(kraus, np.complex128, finite=True)
    if kraus.ndim != 4 or rho.mats.shape != (len(kraus),) + kraus.shape[-1:] * 2:
        raise DimensionMismatch(f"Kraus stack {kraus.shape} cannot act on {rho.mats.shape}")
    terms = (a @ rho.mats @ linalg.adjoint(a) for a in kraus.swapaxes(0, 1))
    return DensityStack(sum(terms), rho.tol)


def check_types(kind, **named):
    """Raise :class:`NotAState`, naming the argument, for the first of
    ``named`` that is not a ``kind``."""
    for name, state in named.items():
        if not isinstance(state, kind):
            raise NotAState(f"{name} must be a {kind.__name__}, got {type(state).__name__}")


def check_pair(rho, sigma):
    """Raise :class:`NotAState`, naming the argument, unless rho and sigma are
    both :class:`DensityStack`, and :class:`DimensionMismatch` if their shapes differ."""
    check_types(DensityStack, rho=rho, sigma=sigma)
    if rho.mats.shape != sigma.mats.shape:
        raise DimensionMismatch(f"stack shapes {rho.mats.shape} and {sigma.mats.shape} differ")


def abs_condition_rows(rho, sigma):
    """Row-wise test of |rho - sigma| <= rho + sigma, up to ``CONDITION_TOL``
    on the spectrum, on two state stacks (:func:`check_pair`), whose rows
    are Hermitian to the last bit and are not checked again.

    One eigendecomposition of the stack rho - sigma gives both its spectra
    and |rho - sigma|, with no phase fixed (|rho - sigma| does not depend on
    them); the verdict is :func:`linalg.psd_rows` of
    rho + sigma - |rho - sigma| at ``CONDITION_TOL``, so no second
    eigensolver runs.  Returns the per-row verdicts and trace distances,
    the spectra's absolute sums.
    """
    check_pair(rho, sigma)
    w, u = linalg._eigh(rho.mats - sigma.mats)
    gap = linalg.HermitianEigen(w, u).compose(np.abs(w))
    holds = linalg.psd_rows(rho.mats + sigma.mats - gap, CONDITION_TOL)
    return holds, np.sum(np.abs(w), axis=-1)


def abs_condition_holds(rho, sigma):
    """The verdicts of :func:`abs_condition_rows`, on the same stacks,
    without the trace distances, and with the eigensolver run only on the
    rows that the anticommutator leaves open.

    (rho + sigma)^2 - (rho - sigma)^2 = 2 (rho sigma + sigma rho), so where
    rho sigma + sigma rho >= 0, (rho - sigma)^2 <= (rho + sigma)^2 and, the
    square root being operator monotone, |rho - sigma| <= rho + sigma.  A
    row is certified when :func:`linalg.psd_rows` finds
    rho sigma + sigma rho - ``CONDITION_TOL`` I positive definite, a margin
    far above rounding, so a certified row satisfies the condition exactly
    and gets the verdict the exact route would give it.
    """
    check_pair(rho, sigma)
    holds = _anticommutator_certifies(rho.mats, sigma.mats)
    rest = ~holds
    if rest.any():
        holds[rest] = abs_condition_rows(rho.take(rest), sigma.take(rest))[0]
    return holds


def _anticommutator_certifies(rho_mats, sigma_mats):
    """Per row, whether rho sigma + sigma rho - ``CONDITION_TOL`` I is
    positive definite."""
    p = rho_mats @ sigma_mats
    return linalg.psd_rows(p + linalg.adjoint(p), -CONDITION_TOL)
