"""Seeded Monte Carlo suites behind the `verify` command.

Each suite returns a :class:`SuiteResult` whose ``worst`` is the largest
residual or violation observed; ``passed`` compares it against the suite
tolerance.  Quantities that are measured but deliberately not asserted
(skip counts, rates) travel in ``extras``.  :func:`condition_rate` measures
a rate, not a residual, and returns a :class:`RateResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    EQUAL_STATES_EPS,
    binette_rhs,
    pinsker_chi2_lower,
    zeta1_closed,
    zeta1_integral,
)
from .divergence import chi2_rows, relative_entropy_rows
from .generators import BUILTIN_NAMES, builtin_generator
from .linalg import (check_counts, hermitian_eig, hermitian_part, matrix_polynomial,
                     singular_check, trace_norm_hermitian)
from .maximal import WITNESS_TOL, witness_batch, witness_residual_rows
from .states import (
    DensityStack,
    abs_condition_holds,
    abs_condition_rows,
    apply_channel_rows,
    chunks,
    random_channel,
    random_pairs,
    substream,
    substreams,
)

INEQUALITY_TOL = 1e-8
IDENTITY_TOL = 1e-8
ZETA1_TOL = 1e-12

# the environment-doubled dim-4 ensemble satisfies the condition more often
# than this; a rate above the floor but not above the minimum is a warning
MIN_CONDITION_RATE = 0.80
CONDITION_RATE_FLOOR = 0.75
# the builtins whose maximal divergence data processing must not increase
_OPERATOR_CONVEX = [g for g in map(builtin_generator, BUILTIN_NAMES) if g.operator_convex]

WITNESS_DIMS = (2, 3, 4, 8)  # the dimensions of `qfdiv verify`'s witness suite
# the (m, M) grid of the zeta1 suite
ZETA1_M_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
ZETA1_M_UPPER_GRID = (1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0)
PSD_RIDGE = 0.1  # times I, added to the trace-identity suite's unit-trace PSD matrices


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst: float
    tol: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.worst <= self.tol


@dataclass(frozen=True)
class RateResult:
    """Fraction of sampled pairs satisfying |rho - sigma| <= rho + sigma."""

    rate: float
    environment: int

    @property
    def passed(self):
        return self.rate > MIN_CONDITION_RATE


def witness_suite(dims, pairs_per_dim, seed):
    """Worst witness residual over random full-rank pairs.

    Pair i of dimension n draws from ``substream(seed, n, i)``, and each
    stack of pairs (:func:`states.chunks`) gets one
    :func:`witness_residual_rows` report on its one witness batch.
    """
    check_counts(pairs_per_dim=pairs_per_dim)
    worst = 0.0
    for dim in dims:
        for rho, sigma, w in _witness_chunks(dim, pairs_per_dim, seed, prefix=(dim,)):
            for gaps in witness_residual_rows(rho, sigma, w).values():
                worst = _worst(worst, gaps)
    return SuiteResult("witness", worst, WITNESS_TOL)


def dpi_suite(dim, trials, seed):
    """Monotonicity of the maximal divergence under random channels.

    Trial i draws a pair and then a channel Phi from ``substream(seed, i)``.
    The trials run in stacks (:func:`states.chunks`) with four witness
    builds per stack, one for each of a trial's four distinct pairs, and
    kl, chi2 and tv are read from them: (rho, sigma), (Phi rho, Phi sigma),
    the witness pair (diag r, diag s), and that pair's image under the
    recovery channel V.  A trial is skipped (``extras['skipped']``) when sigma or Phi sigma
    is too close to singular for the first two witnesses, as read from
    the ``eig`` of their stacks, which those witnesses then share.

    ``worst`` is the largest increase after a channel for the operator-convex
    builtins; equality through the witness recovery channel is tracked in
    ``extras['equality_worst']`` against 1e-9.  The equality residual is
    relative to the divergence magnitude (floored at 1): near-singular sigma
    draws push the chi-squared divergence to 1e4 and beyond, where only the
    relative error is meaningful in double precision.  The tv generator is
    measured out of curiosity (``extras['tv_increase_rate']``) but never
    asserted.
    """
    check_counts(dim=dim, trials=trials)
    tv = builtin_generator("tv")
    worst = 0.0
    equality_worst = 0.0
    skipped = 0
    tv_increases = 0
    for indices in chunks(trials, dim):
        # each stream draws a pair, then a channel
        rngs = list(substreams(seed, (), indices))
        rho, sigma = random_pairs(rngs, dim)
        kraus = np.stack([random_channel(dim, seed=rng).kraus for rng in rngs])
        out_rho = apply_channel_rows(kraus, rho)
        out_sigma = apply_channel_rows(kraus, sigma)
        singular, _ = singular_check(np.minimum(sigma.eig.eigenvalues[:, 0],
                                                out_sigma.eig.eigenvalues[:, 0]))
        skipped += int(np.count_nonzero(singular))
        keep = ~singular
        before = witness_batch(rho.take(keep), sigma.take(keep))
        after = witness_batch(out_rho.take(keep), out_sigma.take(keep))
        for f in _OPERATOR_CONVEX:
            worst = _worst(worst, after.f_divergence(f) - before.f_divergence(f))
        tv_increases += int(np.count_nonzero(
            after.f_divergence(tv) > before.f_divergence(tv) + INEQUALITY_TOL))
        # r and s are normalized to WITNESS_TOL, so diag r and diag s are
        # states at that tolerance
        eye = np.eye(dim)
        classical = witness_batch(DensityStack(before.r[..., None] * eye, WITNESS_TOL),
                                  DensityStack(before.s[..., None] * eye, WITNESS_TOL))
        recovered = witness_batch(*before.recovered())
        for f in _OPERATOR_CONVEX:
            d = classical.f_divergence(f)
            gap = np.abs(recovered.f_divergence(f) - d) / np.maximum(1.0, np.abs(d))
            equality_worst = _worst(equality_worst, gap)
    return SuiteResult(
        "dpi",
        worst,
        INEQUALITY_TOL,
        extras={
            "equality_worst": equality_worst,
            "skipped": skipped,
            "tv_increase_rate": tv_increases / trials,
        },
    )


def _witness_chunks(dim, samples, seed, rank=None, prefix=()):
    """Sample i's pair from ``substream(seed, *prefix, i)``, in the stacks
    of :func:`states.chunks`: yields the rho and sigma stacks and their
    witnesses."""
    for indices in chunks(samples, dim):
        rho, sigma = random_pairs(substreams(seed, prefix, indices), dim, rank)
        yield rho, sigma, witness_batch(rho, sigma)


def _worst(current, gaps):
    """The larger of ``current`` and the entries of ``gaps`` (maybe none)."""
    return max(current, float(np.max(gaps, initial=-math.inf)))


def maximality_and_pinsker(dim, samples, seed):
    """The maximality and pinsker suites on one Hilbert-Schmidt ensemble.

    maximality: standard divergences never exceed their maximal
    counterparts.  ``worst`` collects the largest of: relative entropy above
    maximal kl, trace distance above maximal tv, and the chi-squared
    mismatch (which must vanish).  The mismatch is an identity check, so it
    is measured relative to the chi-squared magnitude (floored at 1); the
    two inequality slacks stay absolute.  The chi-squared divergence comes
    from :func:`chi2_rows`, which shares only sigma's ``eig`` with the
    witness.

    pinsker: chi-squared never drops below its trace-distance envelope.
    """
    check_counts(dim=dim, samples=samples)
    kl, chi2, tv = (builtin_generator(name) for name in ("kl", "chi2", "tv"))
    maximality = 0.0
    pinsker = 0.0
    for rho, sigma, w in _witness_chunks(dim, samples, seed):
        t = trace_norm_hermitian(rho.mats - sigma.mats)
        chi2_std = chi2_rows(rho, sigma)
        max_chi2 = w.f_divergence(chi2)
        relent = relative_entropy_rows(rho, sigma)
        maximality = _worst(maximality, relent - w.f_divergence(kl))
        maximality = _worst(maximality, t - w.f_divergence(tv))
        maximality = _worst(
            maximality, np.abs(chi2_std - max_chi2) / np.maximum(1.0, np.abs(max_chi2)))
        pinsker = _worst(pinsker, -(chi2_std - pinsker_chi2_lower(t)))
    return (SuiteResult("maximality", maximality, INEQUALITY_TOL),
            SuiteResult("pinsker", pinsker, INEQUALITY_TOL))


def reverse_pinsker_and_binette(dim, samples, seed):
    """The reverse-pinsker and witness-binette suites on one
    environment-doubled Ginibre ensemble (rank 2 dim), where the condition
    |rho - sigma| <= rho + sigma holds for most pairs.

    reverse-pinsker skips pairs closer than ``EQUAL_STATES_EPS`` in trace
    distance t, which the condition test returns.  Its ``worst`` is the
    trace-distance form for the MAXIMAL divergence,
    ``D_f^max <= binette_rhs(m, M, t, f)``, on the condition-satisfying
    pairs, with per-generator violation counts in ``extras``.  It is expected to FAIL: for f = tv the left side is
    ||r - s||_1, which data processing through the recovery channel puts at
    or above t, strictly for non-commuting pairs.  Two forms that are
    theorems ride along in ``extras``:

    * ``witness_form_worst`` — Binette's bound on the witness pair itself,
      ``D_f(r||s) <= binette_rhs(m, M, ||r - s||_1, f)``, for kl, chi2, tv;
    * ``relent_form_worst`` — the trace-distance form for the Umegaki
      relative entropy, ``D(rho||sigma) <= binette_rhs(m, M, t, kl)``, over
      the condition-satisfying pairs (``-inf`` when there are none).  In
      the hockey-stick integral
      ``D = int_1^inf E_g(rho||sigma)/g + E_g(sigma||rho)/g^2 dg`` with
      ``E_g(a||b) = tr(a - g b)_+``, each E_g is convex in g, equals t/2
      at g = 1 and vanishes for g >= M (resp. g >= 1/m), so the chord
      bound puts it under (t/2) times ``zeta1_integral(m, M, kl)``, which
      equals ``zeta1_closed(m, M, kl)``.

    witness-binette is the witness form over every pair with m < 1 < M
    (the others are counted in ``extras['skipped']``) at ``WITNESS_TOL``:
    it holds unconditionally, so it certifies the witness construction and
    the bound evaluation jointly at near machine precision.
    """
    check_counts(dim=dim, samples=samples)
    gens = [builtin_generator(name) for name in ("kl", "chi2", "tv")]
    worst = 0.0
    met = 0
    violations = {f.name: 0 for f in gens}
    witness_form_worst = 0.0
    relent_form_worst = -math.inf
    binette_worst = 0.0
    skipped = 0
    for rho, sigma, w in _witness_chunks(dim, samples, seed, rank=2 * dim):
        condition, t = abs_condition_rows(rho, sigma)
        m, big_m = w.lambdas[:, 0], w.lambdas[:, -1]
        rs_l1 = np.abs(w.r - w.s).sum(axis=-1)
        proper = (m < 1.0) & (big_m > 1.0)
        skipped += int(np.count_nonzero(~proper))
        keep = t >= EQUAL_STATES_EPS
        met_kept = condition[keep]
        met += int(np.count_nonzero(met_kept))
        relent = relative_entropy_rows(rho, sigma)[keep]
        for f in gens:
            lhs = w.f_divergence(f)
            # raises for kept rows without m < 1 < M, so keep implies proper
            rhs = binette_rhs(m[keep], big_m[keep], t[keep], f)
            if f.name == "kl":
                relent_form_worst = _worst(relent_form_worst, (relent - rhs)[met_kept])
            gap = (lhs[keep] - rhs)[met_kept]
            worst = _worst(worst, gap)
            violations[f.name] += int(np.count_nonzero(gap > INEQUALITY_TOL))
            witness_gap = lhs[proper] - binette_rhs(
                m[proper], big_m[proper], rs_l1[proper], f)
            witness_form_worst = _worst(witness_form_worst, witness_gap[keep[proper]])
            binette_worst = _worst(binette_worst, witness_gap)
    extras = {
        "condition_met": met,
        "witness_form_worst": witness_form_worst,
        "relent_form_worst": relent_form_worst,
    }
    extras.update({f"violations_{k}": v for k, v in violations.items()})
    return (SuiteResult("reverse-pinsker", worst, INEQUALITY_TOL, extras=extras),
            SuiteResult("witness-binette", binette_worst, WITNESS_TOL,
                        extras={"skipped": skipped}))


def zeta1_suite():
    """Integral and closed forms of the unit-radius bound must agree on the
    ``ZETA1_M_GRID`` x ``ZETA1_M_UPPER_GRID`` grid."""
    m, M = np.meshgrid(ZETA1_M_GRID, ZETA1_M_UPPER_GRID, indexing="ij")
    worst = max(float(np.max(np.abs(zeta1_integral(m, M, f) - zeta1_closed(m, M, f))))
                for f in map(builtin_generator, ("kl", "chi2")))
    return SuiteResult("zeta1", worst, ZETA1_TOL)


def _random_psd(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = hermitian_part(g @ g.conj().T)
    return m / np.trace(m).real + PSD_RIDGE * np.eye(n)


def trace_identity_suite(trials, seed):
    """Polynomial trace identities behind the maximal-divergence formula.

    For random PSD A, B of dimension 2 to 6 and random polynomials f
    (degree <= 4):
    tr(A f(AB) A) = tr(A f(BA) A), and with f(x) = x g(x),
    tr(A^{-1} f(BA)) = tr(B g(AB)).  Residuals are relative to the larger
    side's magnitude (floored at 1).
    """
    check_counts(trials=trials)
    worst = 0.0
    for i in range(trials):
        rng = substream(seed, 101, i)
        n = int(rng.integers(2, 7))
        a = _random_psd(n, rng)
        b = _random_psd(n, rng)
        coeffs = rng.uniform(-1.0, 1.0, size=5)
        ab = a @ b
        ba = b @ a
        lhs = complex(np.trace(a @ matrix_polynomial(coeffs, ab) @ a)).real
        rhs = complex(np.trace(a @ matrix_polynomial(coeffs, ba) @ a)).real
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)

        g_coeffs = rng.uniform(-1.0, 1.0, size=4)
        f_coeffs = np.concatenate(([0.0], g_coeffs))  # f(x) = x g(x)
        lhs2 = complex(
            np.trace(np.linalg.inv(a) @ matrix_polynomial(f_coeffs, ba))
        ).real
        rhs2 = complex(np.trace(b @ matrix_polynomial(g_coeffs, ab))).real
        scale2 = max(1.0, abs(lhs2), abs(rhs2))
        worst = max(worst, abs(lhs2 - rhs2) / scale2)
    return SuiteResult("trace-identity", worst, IDENTITY_TOL)


def operator_jensen_suite(trials, seed):
    """Operator Jensen inequality for the operator-convex builtins.

    With a resolution of identity {L_i} from a random channel (dimension and
    Kraus rank 2 to 4) and points
    x_i >= 0: sum f(x_i) L_i >= f(sum x_i L_i).  ``worst`` is the most
    negative eigenvalue of the difference, sign-flipped, or 0 when no
    difference has a negative eigenvalue.
    """
    check_counts(trials=trials)
    worst = 0.0
    for i in range(trials):
        rng = substream(seed, 202, i)
        n = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        channel = random_channel(n, k, seed=rng)
        lambdas = [a.conj().T @ a for a in channel.kraus]
        xs = rng.uniform(0.0, 3.0, size=k)
        mean_eig = hermitian_eig(hermitian_part(sum(x * l for x, l in zip(xs, lambdas))))
        # the mean is PSD; its rounding-level negative eigenvalues read as 0
        spectrum = np.where(mean_eig.eigenvalues < 0.0, 0.0, mean_eig.eigenvalues)
        for f in _OPERATOR_CONVEX:
            lhs = sum(v * l for v, l in zip(f.values(xs), lambdas))
            rhs = mean_eig.compose(f.values(spectrum))
            low = float(np.linalg.eigvalsh(lhs - rhs)[0])
            worst = max(worst, -low)
    return SuiteResult("operator-jensen", worst, IDENTITY_TOL)


def condition_rate(dim, samples, seed, commuting):
    """Fraction of random pairs satisfying |rho - sigma| <= rho + sigma.

    The ensemble is environment-doubled Ginibre (environment ``2 dim``),
    which reproduces the above-80-percent rate at dim 4; plain
    Hilbert-Schmidt draws (environment ``dim``) satisfy the condition far
    more rarely.  ``commuting`` draws diagonal pairs instead, where the
    condition holds identically and there is no environment (0).  Sample i
    draws from ``substream(seed, i)``; the samples are checked in the stacks
    of :func:`states.chunks`.
    """
    check_counts(dim=dim, samples=samples)
    hits = 0
    for indices in chunks(samples, dim):
        rngs = substreams(seed, (), indices)
        if commuting:
            rho, sigma = _random_commuting_pairs(rngs, dim)
        else:
            rho, sigma = random_pairs(rngs, dim, 2 * dim)
        hits += int(np.count_nonzero(abs_condition_holds(rho, sigma)))
    return RateResult(hits / samples, 0 if commuting else 2 * dim)


def _random_commuting_pairs(rngs, dim):
    """Diagonal (rho, sigma) stacks with Dirichlet spectra, rho first; each
    generator of ``rngs``, a sized iterable read once, draws both spectra in
    one call."""
    spectra = np.empty((len(rngs), 2, dim))
    for b, rng in enumerate(rngs):
        spectra[b] = rng.dirichlet(np.ones(dim), size=2)
    mats = spectra[..., None] * np.eye(dim)
    return DensityStack(mats[:, 0]), DensityStack(mats[:, 1])
