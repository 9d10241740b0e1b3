"""Seeded Monte Carlo suites behind the `verify` command.

Each suite returns a :class:`SuiteResult` whose ``worst`` is the largest
residual or violation observed; ``passed`` compares it against the suite
tolerance.  Quantities that are measured but deliberately not asserted
(skip counts, rates) travel in ``extras``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    binette_rhs,
    check_quantum_pinsker_chi2,
    zeta1_closed,
    zeta1_integral,
)
from .divergence import quantum_chi2, quantum_relative_entropy, trace_distance
from .errors import SingularState
from .generators import builtin_generator
from .linalg import matrix_function_psd, matrix_polynomial
from .maximal import WITNESS_TOL, build_witness, verify_witness
from .states import (
    CHUNK_ROWS,
    DensityStack,
    abs_condition_rows,
    apply_channel,
    diagonal_state,
    random_channel,
    random_pairs,
    satisfies_abs_condition,
    substream,
    substreams,
)

INEQUALITY_TOL = 1e-8
IDENTITY_TOL = 1e-8
ZETA1_TOL = 1e-7

DEFAULT_M_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_M_UPPER_GRID = (1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    worst: float
    tol: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.worst <= self.tol


def random_pair(dim, rng, rank=None):
    """Draw an independent (rho, sigma) pair from one substream."""
    rho, sigma = random_pairs([rng], dim, rank)
    return rho.row(0), sigma.row(0)


def witness_suite(dims=(2, 3, 4, 8), pairs_per_dim=100, seed=42):
    """Worst witness residual over random full-rank pairs.

    One :func:`verify_witness` report per pair serves every builtin
    generator: its residuals do not depend on ``f`` (see there), so the kl
    report is the report of each of them.
    """
    kl = builtin_generator("kl")
    worst = 0.0
    for dim in dims:
        for i in range(pairs_per_dim):
            rho, sigma = random_pair(dim, substream(seed, dim, i))
            worst = max(worst, verify_witness(rho, sigma, kl).worst)
    return SuiteResult("witness", worst, WITNESS_TOL)


def dpi_suite(dim=4, trials=100, seed=42):
    """Monotonicity of the maximal divergence under random channels.

    Trial i draws a pair and then a channel Phi from ``substream(seed, i)``.
    It builds the witness of each of its four distinct pairs once and reads
    kl, chi2 and tv from it: (rho, sigma), (Phi rho, Phi sigma), the witness
    pair (diag r, diag s), and that pair's image under the recovery channel V.
    A trial is skipped (``extras['skipped']``) when sigma or Phi sigma is
    too close to singular for the first two witnesses.

    ``worst`` is the largest increase after a channel for the operator-convex
    builtins; equality through the witness recovery channel is tracked in
    ``extras['equality_worst']`` against 1e-9.  The equality residual is
    relative to the divergence magnitude (floored at 1): near-singular sigma
    draws push the chi-squared divergence to 1e4 and beyond, where only the
    relative error is meaningful in double precision.  The tv generator is
    measured out of curiosity (``extras['tv_increase_rate']``) but never
    asserted.
    """
    convex = [builtin_generator(name) for name in ("kl", "chi2")]
    tv = builtin_generator("tv")
    worst = 0.0
    equality_worst = 0.0
    skipped = 0
    tv_increases = 0
    for i in range(trials):
        rng = substream(seed, i)
        rho, sigma = random_pair(dim, rng)
        channel = random_channel(dim, seed=rng)
        try:
            before = build_witness(rho, sigma)
            after = build_witness(
                apply_channel(channel, rho), apply_channel(channel, sigma)
            )
        except SingularState:
            skipped += 1
            continue
        for f in convex:
            worst = max(worst, after.f_divergence(f) - before.f_divergence(f))
        if after.f_divergence(tv) > before.f_divergence(tv) + INEQUALITY_TOL:
            tv_increases += 1
        diag_r = diagonal_state(before.r)
        diag_s = diagonal_state(before.s)
        classical = build_witness(diag_r, diag_s)
        recovered = build_witness(
            apply_channel(before.channel, diag_r), apply_channel(before.channel, diag_s)
        )
        for f in convex:
            d = classical.f_divergence(f)
            gap = abs(recovered.f_divergence(f) - d) / max(1.0, abs(d))
            equality_worst = max(equality_worst, gap)
    return SuiteResult(
        "dpi",
        worst,
        INEQUALITY_TOL,
        extras={
            "equality_worst": equality_worst,
            "skipped": skipped,
            "tv_increase_rate": tv_increases / trials if trials else 0.0,
        },
    )


def maximality_suite(dim=4, samples=1000, seed=42):
    """Standard divergences never exceed their maximal counterparts.

    ``worst`` collects the largest of: relative entropy above maximal kl,
    trace distance above maximal tv, and the chi-squared mismatch (which must
    vanish).  The mismatch is an identity check, so it is measured relative
    to the chi-squared magnitude (floored at 1); the two inequality slacks
    stay absolute.
    """
    kl = builtin_generator("kl")
    chi2 = builtin_generator("chi2")
    tv = builtin_generator("tv")
    worst = 0.0
    for i in range(samples):
        rho, sigma = random_pair(dim, substream(seed, i))
        w = build_witness(rho, sigma)
        max_chi2 = w.f_divergence(chi2)
        worst = max(
            worst,
            quantum_relative_entropy(rho, sigma) - w.f_divergence(kl),
            trace_distance(rho, sigma) - w.f_divergence(tv),
            abs(quantum_chi2(rho, sigma) - max_chi2) / max(1.0, abs(max_chi2)),
        )
    return SuiteResult("maximality", worst, INEQUALITY_TOL)


def pinsker_suite(dim=4, samples=1000, seed=42):
    """Chi-squared never drops below its trace-distance envelope."""
    worst = 0.0
    for i in range(samples):
        rho, sigma = random_pair(dim, substream(seed, i))
        report = check_quantum_pinsker_chi2(rho, sigma)
        worst = max(worst, -report.slack)
    return SuiteResult("pinsker", worst, INEQUALITY_TOL)


def reverse_pinsker_suite(dim=4, samples=1000, seed=42):
    """Trace-distance reverse-Pinsker bound on condition-satisfying pairs.

    Pairs come from the environment-doubled Ginibre ensemble (rank 2 dim),
    where the condition |rho - sigma| <= rho + sigma holds for most pairs.
    Only condition-satisfying pairs enter ``worst``.

    ``worst`` measures the trace-distance form for the MAXIMAL divergence,
    ``D_f^max <= binette_rhs(m, M, ||rho - sigma||_1, f)``, and this suite
    is expected to FAIL: that form is false on condition-satisfying pairs.
    For f = tv its left side is ||r - s||_1 and its right side is exactly
    t = ||rho - sigma||_1, while data processing through the recovery
    channel gives ||r - s||_1 >= t, strictly for non-commuting pairs.

    Two forms of the bound are theorems, and both ride along in ``extras``:

    * ``witness_form_worst`` — Binette's bound on the witness pair itself,
      ``D_f(r||s) <= binette_rhs(m, M, ||r - s||_1, f)``, over all pairs
      and all three builtins (see also ``witness_binette_suite``);
    * ``relent_form_worst`` — the trace-distance form for the Umegaki
      relative entropy, ``D(rho||sigma) <= binette_rhs(m, M, t, kl)``, over
      the condition-satisfying pairs (``-inf`` when there are none).  In
      the hockey-stick integral
      ``D = int_1^inf E_g(rho||sigma)/g + E_g(sigma||rho)/g^2 dg`` with
      ``E_g(a||b) = tr(a - g b)_+``, each E_g is convex in g, equals t/2
      at g = 1 and vanishes for g >= M (resp. g >= 1/m), so the chord
      bound puts it under (t/2) times ``zeta1_integral(m, M, kl)``, which
      equals ``zeta1_closed(m, M, kl)``.

    Per-generator violation counts of the trace-distance form are reported
    in ``extras`` too.
    """
    gens = [builtin_generator(name) for name in ("kl", "chi2", "tv")]
    kl = gens[0]
    worst = 0.0
    met = 0
    violations = {f.name: 0 for f in gens}
    witness_form_worst = 0.0
    relent_form_worst = -math.inf
    for i in range(samples):
        rho, sigma = random_pair(dim, substream(seed, i), rank=2 * dim)
        w = build_witness(rho, sigma)
        t = trace_distance(rho, sigma)
        if t < 1e-8:
            continue
        m = float(w.lambdas[0])
        big_m = float(w.lambdas[-1])
        rs_l1 = float(np.abs(w.r.probs - w.s.probs).sum())
        condition = satisfies_abs_condition(rho, sigma)
        if condition:
            met += 1
            relent_form_worst = max(
                relent_form_worst,
                quantum_relative_entropy(rho, sigma) - binette_rhs(m, big_m, t, kl),
            )
        for f in gens:
            lhs = w.f_divergence(f)
            witness_form_worst = max(
                witness_form_worst, lhs - binette_rhs(m, big_m, rs_l1, f)
            )
            if condition:
                gap = lhs - binette_rhs(m, big_m, t, f)
                if gap > worst:
                    worst = gap
                if gap > INEQUALITY_TOL:
                    violations[f.name] += 1
    extras = {
        "condition_met": met,
        "witness_form_worst": witness_form_worst,
        "relent_form_worst": relent_form_worst,
    }
    extras.update({f"violations_{k}": v for k, v in violations.items()})
    return SuiteResult("reverse-pinsker", worst, INEQUALITY_TOL, extras=extras)


def witness_binette_suite(dim=4, samples=1000, seed=42):
    """Sharp classical reverse-Pinsker bound evaluated on the witness pair.

    For every pair, ``D_f(r||s) <= binette_rhs(m, M, ||r - s||_1, f)`` where
    (m, M) bracket the likelihood ratios r_i / s_i exactly.  This is the
    form of the bound that holds unconditionally (no positivity condition
    on the states is needed), so the suite must pass at near machine
    precision; it certifies the witness construction and the bound
    evaluation jointly.  Pairs come from the environment-doubled Ginibre
    ensemble (rank 2 dim), as in :func:`reverse_pinsker_suite`.
    """
    gens = [builtin_generator(name) for name in ("kl", "chi2", "tv")]
    worst = 0.0
    skipped = 0
    for i in range(samples):
        rho, sigma = random_pair(dim, substream(seed, i), rank=2 * dim)
        w = build_witness(rho, sigma)
        m = float(w.lambdas[0])
        big_m = float(w.lambdas[-1])
        if m >= 1.0 or big_m <= 1.0:
            skipped += 1
            continue
        rs_l1 = float(np.abs(w.r.probs - w.s.probs).sum())
        for f in gens:
            worst = max(worst, w.f_divergence(f) - binette_rhs(m, big_m, rs_l1, f))
    return SuiteResult(
        "witness-binette",
        worst,
        WITNESS_TOL,
        extras={"skipped": skipped},
    )


def zeta1_suite(m_grid=DEFAULT_M_GRID, M_grid=DEFAULT_M_UPPER_GRID, quad_tol=1e-8):
    """Integral and closed forms of the unit-radius bound must agree."""
    worst = 0.0
    for name in ("kl", "chi2"):
        f = builtin_generator(name)
        for m in m_grid:
            for M in M_grid:
                gap = abs(zeta1_integral(m, M, f, quad_tol) - zeta1_closed(m, M, f))
                worst = max(worst, gap)
    return SuiteResult("zeta1", worst, ZETA1_TOL)


def _random_psd(n, rng, ridge=0.1):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real + ridge * np.eye(n)


def trace_identity_suite(trials=200, seed=42, max_dim=6):
    """Polynomial trace identities behind the maximal-divergence formula.

    For random PSD A, B and random polynomials f (degree <= 4):
    tr(A f(AB) A) = tr(A f(BA) A), and with f(x) = x g(x),
    tr(A^{-1} f(BA)) = tr(B g(AB)).  Residuals are relative to the larger
    side's magnitude (floored at 1).
    """
    worst = 0.0
    for i in range(trials):
        rng = substream(seed, 101, i)
        n = int(rng.integers(2, max_dim + 1))
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


def operator_jensen_suite(trials=200, seed=42, max_dim=4):
    """Operator Jensen inequality for the operator-convex builtins.

    With a resolution of identity {L_i} from a random channel and points
    x_i >= 0: sum f(x_i) L_i >= f(sum x_i L_i).  ``worst`` is the most
    negative eigenvalue of the difference, sign-flipped.
    """
    gens = [g for g in map(builtin_generator, ("kl", "chi2")) if g.operator_convex]
    worst = 0.0
    for i in range(trials):
        rng = substream(seed, 202, i)
        n = int(rng.integers(2, max_dim + 1))
        k = int(rng.integers(2, max_dim + 1))
        channel = random_channel(n, k, seed=rng)
        lambdas = [a.conj().T @ a for a in channel.kraus]
        xs = rng.uniform(0.0, 3.0, size=k)
        mean = sum(x * l for x, l in zip(xs, lambdas))
        for f in gens:
            lhs = sum(f.at(x) * l for x, l in zip(xs, lambdas))
            rhs = matrix_function_psd(mean, f.at)
            low = float(np.linalg.eigvalsh(lhs - rhs)[0])
            worst = max(worst, -low)
    return SuiteResult("operator-jensen", worst, IDENTITY_TOL)


def condition_rate(dim=4, samples=1000, seed=42, commuting=False, environment=None):
    """Fraction of random pairs satisfying |rho - sigma| <= rho + sigma.

    The default ensemble is environment-doubled Ginibre (``environment =
    2 dim``), which reproduces the above-80-percent rate at dim 4; plain
    Hilbert-Schmidt draws (``environment = dim``) satisfy the condition far
    more rarely.  ``commuting`` draws diagonal pairs instead, where the
    condition holds identically.  Sample i draws from ``substream(seed, i)``;
    the samples are checked in stacks of ``CHUNK_ROWS``.
    """
    if environment is None:
        environment = 2 * dim
    hits = 0
    for start in range(0, samples, CHUNK_ROWS):
        rngs = substreams(seed, (), range(start, min(start + CHUNK_ROWS, samples)))
        if commuting:
            rho, sigma = _random_commuting_pairs(rngs, dim)
        else:
            rho, sigma = random_pairs(rngs, dim, environment)
        holds, _ = abs_condition_rows(rho.mats, sigma.mats)
        hits += int(np.count_nonzero(holds))
    rate = hits / samples if samples else 0.0
    return SuiteResult(
        "condition-rate",
        worst=-rate,  # higher is better; packaged so passed == rate >= 0.80
        tol=-0.80,
        extras={
            "rate": rate,
            "samples": samples,
            "commuting": commuting,
            "environment": environment,
        },
    )


def _random_commuting_pairs(rngs, dim):
    """Diagonal (rho, sigma) stacks with Dirichlet spectra, rho first; each
    generator draws both spectra in one call."""
    spectra = np.empty((len(rngs), 2, dim))
    for b, rng in enumerate(rngs):
        spectra[b] = rng.dirichlet(np.ones(dim), size=2)
    mats = spectra[..., None] * np.eye(dim)
    return DensityStack(mats[:, 0]), DensityStack(mats[:, 1])
