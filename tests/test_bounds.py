"""Tests for Pinsker-type bounds, reverse bounds, quadrature, and envelopes."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (
    audenaert_eisert,
    diagonal_state,
    maximally_mixed,
    plus_state,
    quantum_chi2,
    random_density,
    relative_entropy,
    reverse_pinsker,
)
from numpy.polynomial import legendre

from qfdiv import bounds
from qfdiv.bounds import (
    audenaert_eisert_rows,
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
    zeta1_closed,
    zeta1_integral,
)
from qfdiv.divergence import chi2_rows
from qfdiv.errors import (
    DegenerateExtremes,
    DimensionMismatch,
    DomainError,
    NoSecondDerivative,
    NotAGenerator,
    OutOfRange,
    QfdivError,
    QuadratureFailure,
    SingularState,
)
from qfdiv.generators import FGenerator, builtin_generator
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.maximal import witness_batch
from qfdiv.states import DensityStack, random_pairs, substream

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")
TV = builtin_generator("tv")


# ---------------------------------------------------------------------------
# chi-squared lower envelope (Pinsker direction)
# ---------------------------------------------------------------------------


def test_pinsker_lower_envelope_hand_values():
    assert pinsker_chi2_lower(0.0) == 0.0
    assert pinsker_chi2_lower(0.5) == pytest.approx(0.25)
    assert pinsker_chi2_lower(1.0) == pytest.approx(1.0)
    assert pinsker_chi2_lower(1.5) == pytest.approx(3.0)
    assert pinsker_chi2_lower(2.0) == math.inf


def test_pinsker_lower_envelope_is_continuous_at_the_break():
    assert abs(pinsker_chi2_lower(1.0 - 1e-10) - 1.0) <= 1e-9
    assert abs(pinsker_chi2_lower(1.0 + 1e-10) - 1.0) <= 1e-9


def test_pinsker_lower_envelope_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        pinsker_chi2_lower(-0.1)
    with pytest.raises(OutOfRange):
        pinsker_chi2_lower(2.1)


def test_quantum_pinsker_equality_for_pure_vs_mixed():
    rho, sigma = plus_state(), maximally_mixed()
    lhs = pinsker_chi2_lower(trace_norm_hermitian(rho.mats[0] - sigma.mats[0]))
    rhs = quantum_chi2(rho, sigma)
    assert lhs == pytest.approx(1.0, abs=1e-12)
    assert rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(rhs - lhs) <= 1e-12


def test_binary_commuting_pairs_attain_the_pinsker_envelope_at_every_t():
    # q = (1/2, 1/2), p = q + (t/2, -t/2) has chi2 = t^2 for t <= 1, and
    # q = (1 - t/2, t/2), p = (1, 0) has chi2 = t / (2 - t) for t > 1
    t = np.linspace(0.05, 1.95, 39)
    low = t <= 1.0
    q = np.where(low[:, None], 0.5, np.stack([1.0 - t / 2, t / 2], axis=-1))
    p = np.where(low[:, None], q + np.stack([t / 2, -t / 2], axis=-1), [1.0, 0.0])
    assert np.allclose(np.abs(p - q).sum(axis=-1), t, rtol=1e-15, atol=0.0)
    eye = np.eye(2)
    w = witness_batch(DensityStack(p[..., None] * eye), DensityStack(q[..., None] * eye))
    chi2 = w.f_divergence(CHI2)
    envelope = np.array([pinsker_chi2_lower(x) for x in t.tolist()])
    assert np.allclose(chi2, envelope, rtol=1e-12, atol=0.0)


def test_quantum_pinsker_holds_on_random_pairs():
    pairs = [(random_density(4, seed=substream(60, i, 0)).mats,
              random_density(4, seed=substream(60, i, 1)).mats) for i in range(100)]
    rho_mats, sigma_mats = (np.concatenate(m) for m in zip(*pairs))
    slack = (chi2_rows(DensityStack(rho_mats), DensityStack(sigma_mats))
             - pinsker_chi2_lower(trace_norm_hermitian(rho_mats - sigma_mats)))
    assert slack.min() >= -1e-10, (int(slack.argmin()), slack.min())


# ---------------------------------------------------------------------------
# decoherence envelopes
# ---------------------------------------------------------------------------


def test_decoherence_hand_values_at_time_zero():
    temme, improved = decoherence_bounds(4.0, 0.1, 0.0)
    assert temme == pytest.approx(2.0)
    assert improved == pytest.approx(1.6)


def test_decoherence_envelopes_meet_at_the_crossover():
    lam = 0.1
    t_star = math.log(4.0) / lam
    temme, improved = decoherence_bounds(4.0, lam, t_star)
    assert temme == pytest.approx(1.0, abs=1e-12)
    assert improved == pytest.approx(1.0, abs=1e-12)


def test_decoherence_improved_is_continuous_at_the_crossover():
    lam = 0.1
    t_star = math.log(4.0) / lam
    _, before = decoherence_bounds(4.0, lam, t_star - 1e-8)
    _, after = decoherence_bounds(4.0, lam, t_star + 1e-8)
    assert abs(before - after) <= 1e-8


def test_decoherence_improved_never_exceeds_classical_or_two():
    for chi2_0 in (0.5, 1.0, 4.0, 16.0, 1e4, 1e308, 1.7e308):
        for t in np.linspace(0.0, 100.0, 201):
            temme, improved = decoherence_bounds(chi2_0, 0.1, float(t))
            assert improved <= temme + 1e-12
            assert improved <= 2.0 + 1e-12


def test_decoherence_envelopes_decay_monotonically():
    ts = np.linspace(0.0, 50.0, 101)
    pairs = [decoherence_bounds(16.0, 0.2, float(t)) for t in ts]
    temme = [p[0] for p in pairs]
    improved = [p[1] for p in pairs]
    assert all(a >= b - 1e-12 for a, b in zip(temme, temme[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(improved, improved[1:]))


def test_decoherence_rejects_bad_arguments():
    for args in ((-1.0, 0.1, 0.0), (1.0, 0.0, 0.0), (1.0, 0.1, -1.0),
                 (math.nan, 0.1, 1.0), (math.inf, 0.1, 1.0), (1.0, math.nan, 1.0),
                 (1.0, math.inf, 1.0), (1.0, 0.1, math.nan), (1.0, 0.1, math.inf)):
        with pytest.raises(OutOfRange):
            decoherence_bounds(*args)


def test_decoherence_envelopes_vanish_where_exp_lam_t_overflows():
    # exp(lam t) is past the largest float here; every chi2_0 is below it
    assert decoherence_bounds(4.0, 1.0, 800.0) == (0.0, 0.0)


@pytest.mark.parametrize("chi2_0", [1.0, 4.0, 16.0, 100.0])
def test_improved_envelope_is_the_chi2_envelope_of_the_decayed_chi2(chi2_0):
    # the improved bound inverts the Pinsker-type chi-squared envelope at
    # the decayed divergence: envelope(improved) = exp(-lam t) chi2_0
    lam = 0.1
    for t in np.linspace(0.0, 80.0, 801).tolist():
        _, improved = decoherence_bounds(chi2_0, lam, t)
        decayed = math.exp(-lam * t) * chi2_0
        assert pinsker_chi2_lower(improved) == pytest.approx(decayed, rel=1e-12, abs=0.0)


def test_depolarizing_trajectories_stay_below_the_improved_envelope():
    # rho_t = sigma + exp(-g t) (rho - sigma) is the depolarizing semigroup
    # toward sigma; its chi-squared divergence decays as exp(-2 g t) chi2_0,
    # so its trace distance sits below the improved envelope at lam = 2 g
    g = 0.05
    rho, sigma = random_pairs([substream(66, i) for i in range(20)], 4)
    chi2_0 = chi2_rows(rho, sigma).tolist()
    for t in np.linspace(0.0, 80.0, 81).tolist():
        rho_t = sigma.mats + math.exp(-g * t) * (rho.mats - sigma.mats)
        dist = trace_norm_hermitian(rho_t - sigma.mats)
        for i, c in enumerate(chi2_0):
            _, improved = decoherence_bounds(c, 2.0 * g, t)
            assert dist[i] <= improved + 1e-12, (i, t)


def test_amplitude_damping_trajectories_stay_below_the_improved_envelope():
    # qubit generalized amplitude damping toward sigma = diag(p, 1 - p):
    # populations relax at rate g and coherences at g / 2, so chi2_t <=
    # exp(-g t) chi2_0 and the trace distance sits below the improved
    # envelope at lam = g
    g = 0.05
    rho, _ = random_pairs([substream(67, i) for i in range(200)], 2)
    p = substream(68).uniform(0.05, 0.95, size=200)
    sigma = np.zeros((200, 2, 2), dtype=complex)
    sigma[:, 0, 0], sigma[:, 1, 1] = p, 1.0 - p
    sigma_stack = DensityStack(sigma)
    chi2_0 = chi2_rows(rho, sigma_stack)
    ratios = []
    for t in np.linspace(0.0, 80.0, 81).tolist():
        pop, coh = math.exp(-g * t), math.exp(-g * t / 2.0)
        rho_t = sigma + np.array([[pop, coh], [coh, pop]]) * (rho.mats - sigma)
        chi2_t = chi2_rows(DensityStack(rho_t), sigma_stack)
        assert np.all(chi2_t <= pop * chi2_0 * (1.0 + 1e-12)), t
        dist = trace_norm_hermitian(rho_t - sigma)
        for i, c in enumerate(chi2_0.tolist()):
            _, improved = decoherence_bounds(c, g, t)
            assert dist[i] <= improved + 1e-12, (i, t)
            ratios.append(dist[i] / improved)
    # nearly tight (0.999998 at t = 0, 0.9998 at t = 1), so the check has no
    # room to spare
    assert max(ratios) > 0.999


# ---------------------------------------------------------------------------
# reverse-Pinsker right side and the unit-radius coefficient
# ---------------------------------------------------------------------------


def test_binette_rhs_hand_values():
    assert binette_rhs(0.0, 2.0, 1.0, CHI2) == pytest.approx(1.0)
    assert binette_rhs(0.0, 2.0, 1.0, KL) == pytest.approx(math.log(2.0))
    assert binette_rhs(0.0, 2.0, 1.0, TV) == pytest.approx(1.0)


def test_binette_rhs_rejects_degenerate_extremes():
    with pytest.raises(DegenerateExtremes):
        binette_rhs(1.0, 2.0, 1.0, KL)
    with pytest.raises(DegenerateExtremes):
        binette_rhs(0.5, 1.0, 1.0, KL)
    with pytest.raises(OutOfRange):
        binette_rhs(0.5, 2.0, 2.5, KL)


def test_entrywise_bounds_match_scalar_calls():
    rng = substream(92)
    m = rng.uniform(0.0, 1.0, size=12)
    m[0] = 0.0  # the limit f(0) is used
    big_m = rng.uniform(1.001, 20.0, size=12)
    t = rng.uniform(0.0, 2.0, size=12)
    t[1], t[2] = 1.0, 2.0  # both branches of the chi-squared envelope
    for f in (KL, CHI2, TV):
        zeta = zeta1_closed(m, big_m, f)
        rhs = binette_rhs(m, big_m, t, f)
        for i, (a, b, c) in enumerate(zip(m.tolist(), big_m.tolist(), t.tolist())):
            assert zeta[i] == zeta1_closed(a, b, f)
            assert zeta[i] == float(f.values(b)) / (b - 1.0) + float(f.values(a)) / (1.0 - a)
            assert rhs[i] == binette_rhs(a, b, c, f)
    lower = pinsker_chi2_lower(t)
    for i, c in enumerate(t.tolist()):
        assert lower[i] == pinsker_chi2_lower(c)
    assert lower[2] == math.inf


def _raises_like_the_first_failing_scalar_call(fn, columns, *rest):
    for i, row in enumerate(zip(*columns)):
        try:
            fn(*row, *rest)
        except QfdivError as exc:
            with pytest.raises(type(exc), match="^" + re.escape(f"row {i}: {exc}") + "$"):
                fn(*(np.array(c) for c in columns), *rest)
            return
    raise AssertionError("no entry fails")


@pytest.mark.parametrize("m, big_m, t", [
    ([0.5, 0.5, 1.0, 0.5], [2.0, 2.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    ([0.5, 0.5, 1.0, 0.5], [2.0, 2.0, 2.0, 1.0], [1.0, 2.5, 1.0, 1.0]),
    # an entry failing both checks reports the trace distance first
    ([0.5, 0.5, 1.0, 0.5], [2.0, 2.0, 2.0, 1.0], [1.0, 1.0, -0.5, 1.0]),
    ([0.5, -0.1, 0.5], [2.0, 2.0, 0.5], [1.0, 1.0, 1.0]),
])
def test_binette_rhs_raises_for_the_lowest_bad_entry(m, big_m, t):
    _raises_like_the_first_failing_scalar_call(binette_rhs, (m, big_m, t), KL)


def test_zeta1_closed_and_the_envelope_raise_for_the_lowest_bad_entry():
    _raises_like_the_first_failing_scalar_call(
        zeta1_closed, ([0.5, 0.5, 1.0, -0.1], [2.0, 0.9, 2.0, 2.0]), KL)
    _raises_like_the_first_failing_scalar_call(pinsker_chi2_lower, ([1.0, 0.5, 2.5, -1.0],))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, big_m, f", [(1e-300, 1e300, CHI2), (0.5, 1.7e308, KL)],
                         ids=["chi2", "kl"])
def test_zeta1_closed_raises_where_the_closed_form_overflows(m, big_m, f):
    # f(M) overflows: it gave nan with a numpy warning; the integral form
    # stays finite there
    for bound in (lambda: zeta1_closed(m, big_m, f), lambda: binette_rhs(m, big_m, 1.0, f)):
        with pytest.raises(DomainError, match="^" + re.escape(
                f"closed form is inf at m={m}, M={big_m}") + "$"):
            bound()
    assert math.isfinite(zeta1_integral(m, big_m, f))


@pytest.mark.filterwarnings("error")
def test_zeta1_closed_raises_for_the_lowest_entry_that_is_not_finite():
    _raises_like_the_first_failing_scalar_call(
        zeta1_closed, ([0.5, 0.5, 1e-300, 0.5], [2.0, 1.7e308, 1e300, 1.7e308]), KL)
    _raises_like_the_first_failing_scalar_call(
        zeta1_closed, ([0.5, 1e-300, 0.5], [2.0, 1e300, 1e300]), CHI2)


@pytest.mark.parametrize("bound", [
    lambda f: zeta1_closed(0.5, 2.0, f),
    lambda f: binette_rhs(0.5, 2.0, 1.0, f),
    lambda f: zeta1_integral(0.5, 2.0, f),
], ids=["zeta1_closed", "binette_rhs", "zeta1_integral"])
def test_bounds_take_a_generator_not_its_name(bound):
    # a name raised a bare AttributeError about .values or .second_derivative
    with pytest.raises(NotAGenerator, match="^f must be an FGenerator, got str$"):
        bound("kl")


def test_zeta1_closed_hand_values():
    assert zeta1_closed(0.5, 2.0, CHI2) == pytest.approx(1.5)
    assert zeta1_closed(0.5, 2.0, KL) == pytest.approx(math.log(2.0))
    assert zeta1_closed(0.0, 2.0, CHI2) == pytest.approx(2.0)
    assert zeta1_closed(0.0, 2.0, KL) == pytest.approx(2.0 * math.log(2.0))


def test_zeta1_of_total_variation_is_always_two():
    for m in (0.0, 0.3, 0.9):
        for M in (1.1, 2.0, 50.0):
            assert zeta1_closed(m, M, TV) == pytest.approx(2.0)


def test_zeta1_integral_matches_closed_form_on_a_grid():
    for m in (0.1, 0.3, 0.5, 0.7, 0.9):
        for M in (1.1, 1.5, 2.0, 3.0, 5.0, 7.0, 10.0):
            for f in (KL, CHI2):
                closed = zeta1_closed(m, M, f)
                integral = zeta1_integral(m, M, f)
                assert abs(closed - integral) <= 1e-12, (m, M, f.name)


@pytest.mark.parametrize("m, big_m", [(1e-10, 1e10), (0.5, 1e16)])
@pytest.mark.parametrize("f", [KL, CHI2], ids=lambda f: f.name)
def test_zeta1_integral_matches_closed_form_at_extreme_ratios(m, big_m, f):
    # adaptive Simpson raised QuadratureFailure at these ratios, which lie
    # within the likelihood-ratio range that SINGULAR_EPS allows
    closed = zeta1_closed(m, big_m, f)
    assert zeta1_integral(m, big_m, f) == pytest.approx(closed, rel=1e-12, abs=0.0)


def test_zeta1_integral_evaluates_arrays_entrywise():
    m = np.array([[0.1, 0.5, 1e-10], [0.9, 0.3, 0.5]])
    big_m = np.array([[2.0, 1e16, 1e10], [1.1, 7.0, 3.0]])
    for f in (KL, CHI2):
        zeta = zeta1_integral(m, big_m, f)
        assert zeta.shape == m.shape
        for i in np.ndindex(m.shape):
            # each entry takes its own panels and its own row sum
            assert zeta[i] == zeta1_integral(m[i], big_m[i], f)
    assert zeta1_integral(np.float64(0.5), np.array(2.0), KL) == zeta1_integral(0.5, 2.0, KL)
    with pytest.raises(DegenerateExtremes, match="^row 1: need 0 < m < 1 < M < inf"):
        zeta1_integral([0.5, math.nan], [2.0, 2.0], KL)


def test_zeta1_integral_computes_each_gauss_legendre_rule_once(monkeypatch):
    # leggauss costs about 0.45 ms at 16 nodes and 0.80 ms at 32; every
    # call after the first reads the same read-only nodes and weights
    real, calls = legendre.leggauss, []
    monkeypatch.setattr(legendre, "leggauss", lambda n: (calls.append(n), real(n))[1])
    bounds._gauss_legendre.cache_clear()
    try:
        first = zeta1_integral([0.5, 1e-10], [2.0, 1e10], KL)
        assert np.array_equal(zeta1_integral([0.5, 1e-10], [2.0, 1e10], KL), first)
        zeta1_integral(0.3, 7.0, CHI2)
        assert calls == [16, 32]
        for a in (*bounds._gauss_legendre(16), *bounds._gauss_legendre(32)):
            assert not a.flags.writeable
    finally:
        bounds._gauss_legendre.cache_clear()


def test_one_extreme_entry_costs_the_others_neither_memory_nor_accuracy():
    # the (1e-300, 1e300) entry needs 346 panels; the other 199 need one
    m, big_m = np.full(200, 0.5), np.full(200, 2.0)
    plain = zeta1_integral(m, big_m, KL)
    m[0], big_m[0] = 1e-300, 1e300
    tracemalloc.start()
    try:
        mixed = zeta1_integral(m, big_m, KL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6
    assert mixed[1:] == pytest.approx(plain[1:], rel=1e-15, abs=0.0)
    assert mixed[0] == pytest.approx(zeta1_closed(1e-300, 1e300, KL), rel=1e-12)


def test_zeta1_integral_raises_for_a_kinked_second_derivative():
    # f'' = 6 max(x - 3, 0) has a kink at x = 3: the 16- and 32-node rules
    # differ by 5e-3 relative at (0.5, 4), and agree where f'' vanishes
    kinked = FGenerator(name="kinked", value=lambda x: np.maximum(x - 3.0, 0.0) ** 3,
                        value_at_zero=0.0,
                        second_derivative=lambda x: 6.0 * np.maximum(x - 3.0, 0.0))
    with pytest.raises(QuadratureFailure, match="^twice the nodes move "):
        zeta1_integral(0.5, 4.0, kinked)
    with pytest.raises(QuadratureFailure, match="^row 1: "):
        zeta1_integral([0.5, 0.1], [2.0, 10.0], kinked)


def test_zeta1_integral_requires_positive_m():
    with pytest.raises(DegenerateExtremes):
        zeta1_integral(0.0, 2.0, KL)


@pytest.mark.parametrize("bound", [
    lambda: zeta1_closed(0.5, math.inf, KL),
    lambda: binette_rhs(0.5, math.inf, 1.0, KL),
    lambda: zeta1_integral(0.5, math.inf, KL),
], ids=["zeta1_closed", "binette_rhs", "zeta1_integral"])
def test_an_infinite_upper_extreme_is_degenerate(bound):
    # at M = inf, f(M) / (M - 1) is inf / inf: nan with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateExtremes, match="M=inf"):
            bound()


def test_zeta1_integral_requires_second_derivative():
    with pytest.raises(NoSecondDerivative):
        zeta1_integral(0.5, 2.0, TV)


@pytest.mark.parametrize("second_derivative", [
    lambda x: 1.0 / x if x > 0.0 else math.inf,
    lambda x: math.exp(-math.log(x)),
], ids=["reciprocal", "log"])
def test_an_integrand_undefined_on_the_interval_raises_domain_error(second_derivative):
    # kl's f'' = 1/x written for one float: the branch raises numpy's
    # ValueError on an array of nodes, math.log its TypeError
    scalar_only = FGenerator(name="scalar-only", value=KL.value, value_at_zero=0.0,
                             second_derivative=second_derivative)
    with pytest.raises(DomainError, match="^f'' of scalar-only is undefined on arrays: "):
        zeta1_integral(0.5, 2.0, scalar_only)


# ---------------------------------------------------------------------------
# relative-entropy upper bound from trace distance (Audenaert-Eisert)
# ---------------------------------------------------------------------------


def test_audenaert_eisert_hand_case_is_tight():
    # pure vs maximally mixed qubit: bound = ln 2 = the relative entropy
    bound = audenaert_eisert(plus_state(), maximally_mixed())
    assert bound == pytest.approx(math.log(2.0), abs=1e-12)
    assert abs(bound - relative_entropy(plus_state(), maximally_mixed())) <= 1e-12


def test_audenaert_eisert_dominates_relative_entropy():
    for i in range(100):
        rho = random_density(4, seed=substream(61, i, 0))
        sigma = random_density(4, seed=substream(61, i, 1))
        slack = audenaert_eisert(rho, sigma) - relative_entropy(rho, sigma)
        assert slack >= -1e-10, (i, slack)


def test_audenaert_eisert_requires_invertible_sigma():
    with pytest.raises(SingularState):
        audenaert_eisert(maximally_mixed(), diagonal_state([1.0, 0.0]))


@pytest.mark.parametrize("t, beta, error, message", [
    (0.5, math.nan, SingularState, "^sigma has min eigenvalue nan$"),
    (math.nan, 0.25, OutOfRange, "^trace distance nan outside"),
    (-1.0, 0.25, OutOfRange, "^trace distance -1.0 outside"),
    (3.0, 0.25, OutOfRange, "^trace distance 3.0 outside"),
], ids=["beta-nan", "t-nan", "t-negative", "t-above-2"])
def test_audenaert_eisert_rows_reject_nan_and_out_of_range_inputs(t, beta, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            audenaert_eisert_rows([t], [0.1], [beta])


def test_audenaert_eisert_rows_reject_a_bad_alpha_and_rows_of_unequal_length():
    # a nan alpha was read as below AE_ALPHA_FLOOR, an infinite beta gave
    # nan, and rows of unequal length were broadcast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (math.nan, math.inf, -math.inf, 1.5):
            with pytest.raises(OutOfRange,
                               match=r"^least eigenvalues alpha=.*, beta=0.25 outside \[-1, 1\]$"):
                audenaert_eisert_rows([0.5], [alpha], [0.25])
        with pytest.raises(OutOfRange, match="^row 1: least eigenvalues alpha=0.1, beta=inf "):
            audenaert_eisert_rows([0.5, 0.5], [0.1, 0.1], [0.25, math.inf])
    with pytest.raises(DimensionMismatch, match=r"^shapes \(1,\), \(2,\) and \(1,\) differ$"):
        audenaert_eisert_rows([0.5], [0.1, 0.2], [0.25])


def test_binette_rhs_and_zeta1_closed_reject_arrays_of_unequal_shape():
    # the first was broadcast into two values, the second raised numpy's
    # bare ValueError
    with pytest.raises(DimensionMismatch, match=r"^shapes \(1,\), \(2,\) and \(1,\) differ$"):
        binette_rhs([0.1], [2.0, 3.0], [0.5], KL)
    with pytest.raises(DimensionMismatch, match=r"^shapes \(2,\) and \(3,\) differ$"):
        zeta1_closed([0.1, 0.2], [2.0, 3.0, 4.0], KL)
    with pytest.raises(DimensionMismatch, match=r"^shapes \(2,\) and \(3,\) differ$"):
        zeta1_integral([0.1, 0.2], [2.0, 3.0, 4.0], KL)


def test_scalar_bounds_take_numbers_not_arrays():
    # an array raised "truth value ... is ambiguous"
    with pytest.raises(DomainError, match=r"^t must be a number, got shape \(2,\)$"):
        decoherence_bounds(1.0, 0.1, [1.0, 2.0])


# ---------------------------------------------------------------------------
# reverse-Pinsker check on quantum pairs
# ---------------------------------------------------------------------------


def test_reverse_pinsker_equality_for_pure_vs_mixed():
    for f, expected in ((KL, math.log(2.0)), (CHI2, 1.0), (TV, 1.0)):
        rep = reverse_pinsker(plus_state(), maximally_mixed(), f)
        assert rep.condition_met
        assert rep.lhs == pytest.approx(expected, abs=1e-12)
        assert rep.rhs == pytest.approx(expected, abs=1e-12)
        assert abs(rep.slack) <= 1e-12


def test_reverse_pinsker_short_circuits_on_coinciding_states():
    rho = random_density(3, seed=substream(62, 0))
    rep = reverse_pinsker(rho, rho, KL)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.slack == 0.0


@pytest.mark.parametrize("n", [4, 8])
def test_reverse_pinsker_report_matches_the_single_pair_check(n):
    # t comes from eigvalsh, not from the eigendecomposition of rho - sigma
    # that the compare-bounds composition reads
    for i in range(5):
        rho = random_density(n, rank=2 * n, seed=substream(65, n, i, 0))
        sigma = random_density(n, rank=2 * n, seed=substream(65, n, i, 1))
        w = witness_batch(rho, sigma)
        t = trace_norm_hermitian(rho.mats[0] - sigma.mats[0])
        for f in (KL, CHI2, TV):
            rhs = binette_rhs(float(w.lambdas[0, 0]), float(w.lambdas[0, -1]), t, f)
            want = reverse_pinsker(rho, sigma, f)
            assert w.f_divergence(f)[0] == pytest.approx(want.lhs, rel=1e-12, abs=1e-15)
            assert rhs == pytest.approx(want.rhs, rel=1e-12, abs=1e-15), (i, f.name)
            assert rhs - w.f_divergence(f)[0] == pytest.approx(
                want.slack, rel=1e-12, abs=1e-15), (i, f.name)


def test_reverse_pinsker_holds_on_commuting_pairs():
    rng = substream(63)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4)) * 0.96 + 0.01
        q = rng.dirichlet(np.ones(4)) * 0.96 + 0.01
        rho = diagonal_state(p / p.sum())
        sigma = diagonal_state(q / q.sum())
        for f in (KL, CHI2, TV):
            rep = reverse_pinsker(rho, sigma, f)
            assert rep.condition_met
            assert rep.slack >= -1e-10, (f.name, rep)


def test_reverse_pinsker_trace_distance_form_can_fail_despite_condition():
    # The substitution of the quantum trace distance for the witness total
    # variation is invalid: this frozen non-commuting pair satisfies
    # |rho - sigma| <= rho + sigma yet violates the bound for f = tv.
    rho = random_density(4, rank=8, seed=substream(903, 0, 0))
    sigma = random_density(4, rank=8, seed=substream(903, 0, 1))
    rep = reverse_pinsker(rho, sigma, TV)
    assert rep.condition_met
    assert rep.slack < -1e-3


def test_reverse_pinsker_witness_form_always_holds():
    # Binette's classical inequality on the witness pair itself, with
    # t = ||r - s||_1, holds regardless of the operator condition.
    for i in range(100):
        rho = random_density(4, rank=8, seed=substream(903, i, 0))
        sigma = random_density(4, rank=8, seed=substream(903, i, 1))
        w = witness_batch(rho, sigma)
        m, M = float(w.lambdas[0, 0]), float(w.lambdas[0, -1])
        if not (m < 1.0 - 1e-12 < 1.0 + 1e-12 < M):
            continue
        t_witness = float(np.sum(np.abs(w.r[0] - w.s[0])))
        for f in (KL, CHI2, TV):
            lhs = w.f_divergence(f)[0]
            rhs = binette_rhs(m, M, t_witness, f)
            assert lhs <= rhs + 1e-10, (i, f.name, lhs, rhs)


def test_witness_total_variation_dominates_trace_distance():
    # ||r - s||_1 >= ||rho - sigma||_1: the witness map is a classical
    # refinement, so data processing runs in this direction.
    for i in range(50):
        rho = random_density(4, rank=8, seed=substream(64, i, 0))
        sigma = random_density(4, rank=8, seed=substream(64, i, 1))
        w = witness_batch(rho, sigma)
        t_witness = float(np.sum(np.abs(w.r[0] - w.s[0])))
        assert t_witness >= trace_norm_hermitian(rho.mats[0] - sigma.mats[0]) - 1e-10


def test_audenaert_eisert_rows_match_the_single_pair_bound():
    pairs = [(random_density(3, seed=substream(90, i, 0)),
              random_density(3, rank=2, seed=substream(90, i, 1)) if i == 0
              else random_density(3, seed=substream(90, i, 1)))
             for i in range(5)]
    t = [trace_norm_hermitian(r.mats[0] - s.mats[0]) for r, s in pairs]
    alpha = [r.spectra[0, 0] for r, _ in pairs]
    beta = [s.spectra[0, 0] for _, s in pairs]
    beta[0] = 0.0
    with pytest.raises(SingularState, match="^row 0: "):
        audenaert_eisert_rows(t, alpha, beta)
    rows = audenaert_eisert_rows(t[1:], alpha[1:], beta[1:])
    for i, (rho, sigma) in enumerate(pairs[1:]):
        assert rows[i] == audenaert_eisert(rho, sigma)
