"""Tests for the maximal f-divergence witness construction."""

import math
import re

import numpy as np
import pytest
from conftest import (
    count_eig_calls,
    diagonal_state,
    ill_conditioned_pair,
    maximally_mixed,
    plus_state,
    quantum_chi2,
    random_density,
)

from qfdiv.divergence import (
    chi2_rows,
    f_div_rows,
    max_relative_entropy_rows,
    relative_entropy_rows,
)
from qfdiv import linalg, maximal
from qfdiv.errors import (
    DimensionMismatch,
    InvariantViolation,
    NegativeSpectrum,
    NotAState,
    OutOfRange,
    SingularState,
)
from qfdiv.generators import FGenerator, builtin_generator
from qfdiv.linalg import (
    HermitianEigen,
    hermitian_eig,
    matrix_polynomial,
    trace_norm_hermitian,
)
from qfdiv.maximal import (
    WITNESS_TOL,
    witness_batch,
    witness_residual_rows,
)
from qfdiv.states import (
    DensityStack,
    QuantumChannel,
    abs_condition_holds,
    abs_condition_rows,
    apply_channel_rows,
    random_channel,
    random_pairs,
    substream,
    substreams,
)

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")
TV = builtin_generator("tv")


def _through(channel, states):
    """The states sum_i A_i rho A_i^dag of a list of one-row stacks, by the
    Kraus route, checked at the largest of their tolerances."""
    rho = DensityStack.concatenate(states)
    kraus = np.broadcast_to(channel.kraus, (len(states), *channel.kraus.shape))
    return apply_channel_rows(kraus, rho)


def _diag(p):
    """The diagonal state of a witness distribution, at the witness tolerance."""
    return diagonal_state(p, WITNESS_TOL)


def _haar_unitaries(rng, count, n):
    """``count`` Haar-distributed n x n unitaries, from one draw of ``rng``."""
    g = np.empty((count, n, n), dtype=np.complex128)
    g.real, g.imag = rng.standard_normal((2, count, n, n))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


def _residuals(rho, sigma):
    """The witness residuals of one pair of one-row stacks."""
    rows = witness_residual_rows(rho, sigma, witness_batch(rho, sigma))
    return {name: float(gaps[0]) for name, gaps in rows.items()}


def _passes(rho, sigma):
    return max(_residuals(rho, sigma).values()) <= WITNESS_TOL


# ---------------------------------------------------------------------------
# hand case: rho = |+><+|, sigma = I/2
# ---------------------------------------------------------------------------


def test_witness_hand_case_spectrum_and_distributions():
    w = witness_batch(plus_state(), maximally_mixed())
    assert np.allclose(w.lambdas, [[0.0, 2.0]], atol=1e-12)
    assert np.allclose(w.s, [[0.5, 0.5]], atol=1e-12)
    assert np.allclose(w.r, [[0.0, 1.0]], atol=1e-12)


def test_witness_hand_case_divergences():
    w = witness_batch(plus_state(), maximally_mixed())
    assert w.f_divergence(KL)[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert w.f_divergence(TV)[0] == pytest.approx(1.0, abs=1e-12)
    assert w.f_divergence(CHI2)[0] == pytest.approx(1.0, abs=1e-12)


def test_witness_hand_case_reconstructs_both_states():
    rho, sigma = plus_state(), maximally_mixed()
    w = witness_batch(rho, sigma)
    back_r, back_s = _through(w.channel(0), [_diag(w.r[0]), _diag(w.s[0])]).mats
    assert trace_norm_hermitian(back_r - rho.mats[0]) <= 1e-12
    assert trace_norm_hermitian(back_s - sigma.mats[0]) <= 1e-12


def test_witness_hand_case_report_passes():
    residuals = _residuals(plus_state(), maximally_mixed())
    assert max(residuals.values()) <= 1e-12
    assert set(residuals) == {
        "r_normalization",
        "s_normalization",
        "reconstruct_rho",
        "reconstruct_sigma",
        "kraus_completeness",
        "chi2_match",
    }


# ---------------------------------------------------------------------------
# classical reduction
# ---------------------------------------------------------------------------


def test_maximal_divergence_reduces_to_classical_on_diagonal_states():
    rng = substream(40)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) * 0.96 + 0.01
        w = witness_batch(diagonal_state(p), diagonal_state(q))
        for f in (KL, CHI2, TV):
            assert w.f_divergence(f)[0] == pytest.approx(
                f_div_rows(p[None], q[None], f)[0], abs=1e-9
            )


def test_witness_on_diagonal_pair_sorts_likelihood_ratios():
    w = witness_batch(diagonal_state([0.1, 0.6, 0.3]), diagonal_state([0.2, 0.3, 0.5]))
    assert np.allclose(w.lambdas[0], sorted([0.5, 2.0, 0.6]), atol=1e-12)
    # s collects the sigma weights in the same sorted order
    assert np.allclose(w.s[0], [0.2, 0.5, 0.3], atol=1e-12)
    assert np.allclose(w.r[0], [0.1, 0.3, 0.6], atol=1e-12)


# ---------------------------------------------------------------------------
# randomized witness invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_witness_report_passes_on_random_pairs(dim):
    for i in range(25):
        rho = random_density(dim, seed=substream(41, dim, i, 0))
        sigma = random_density(dim, seed=substream(41, dim, i, 1))
        residuals = _residuals(rho, sigma)
        assert max(residuals.values()) <= WITNESS_TOL, residuals


def test_witness_handles_rank_deficient_rho():
    rho = random_density(4, rank=2, seed=substream(43, 0))
    sigma = random_density(4, seed=substream(43, 1))
    w = witness_batch(rho, sigma)
    assert np.sum(w.lambdas[0] <= 1e-10) == 2
    assert np.sum(w.r[0] <= 1e-10) == 2
    assert _passes(rho, sigma)


def test_witness_is_deterministic():
    rho = random_density(4, seed=substream(44, 0))
    sigma = random_density(4, seed=substream(44, 1))
    w1 = witness_batch(rho, sigma)
    w2 = witness_batch(rho, sigma)
    assert np.array_equal(w1.lambdas, w2.lambdas)
    assert np.array_equal(w1.r, w2.r)
    assert np.array_equal(w1.channel(0).kraus, w2.channel(0).kraus)


def test_chi2_maximal_coincides_with_standard_quantum_chi2():
    worst = 0.0
    for i in range(200):
        rho = random_density(4, seed=substream(42, i, 0))
        sigma = random_density(4, seed=substream(42, i, 1))
        gap = abs(witness_batch(rho, sigma).f_divergence(CHI2)[0] - quantum_chi2(rho, sigma))
        worst = max(worst, gap)
    assert worst <= 1e-9


def test_extremes_match_max_relative_entropy_in_both_directions():
    for i in range(50):
        rho = random_density(4, seed=substream(46, i, 0))
        sigma = random_density(4, seed=substream(46, i, 1))
        lambdas = witness_batch(rho, sigma).lambdas[0]
        assert math.log(lambdas[-1]) == pytest.approx(
            max_relative_entropy_rows(rho, sigma)[0], abs=1e-9
        )
        assert -math.log(lambdas[0]) == pytest.approx(
            max_relative_entropy_rows(sigma, rho)[0], abs=1e-9
        )


def test_maximal_divergence_matches_direct_trace_formula():
    # For polynomial f the maximal divergence equals
    # tr(sqrt(sigma) f(sigma^{-1/2} rho sigma^{-1/2}) sqrt(sigma)),
    # computed here through an independent monomial-basis route.
    rng = substream(47)
    base = {
        1: np.array([-1.0, 1.0, 0.0, 0.0, 0.0]),
        2: np.array([1.0, -2.0, 1.0, 0.0, 0.0]),
        4: np.array([1.0, -4.0, 6.0, -4.0, 1.0]),
    }
    for i in range(20):
        c1 = float(rng.uniform(-1.0, 1.0))
        c2 = float(rng.uniform(0.0, 1.0))
        c4 = float(rng.uniform(0.0, 1.0))
        f = FGenerator(
            name="poly",
            value=lambda x, c1=c1, c2=c2, c4=c4: (
                c1 * (x - 1.0) + c2 * (x - 1.0) ** 2 + c4 * (x - 1.0) ** 4
            ),
            value_at_zero=-c1 + c2 + c4,
            second_derivative=lambda x, c2=c2, c4=c4: (
                2.0 * c2 + 12.0 * c4 * (x - 1.0) ** 2
            ),
        )
        coeffs = c1 * base[1] + c2 * base[2] + c4 * base[4]
        rho = random_density(4, seed=substream(47, i, 0))
        sigma = random_density(4, seed=substream(47, i, 1))
        eig = hermitian_eig(sigma.mats[0])
        inv_sqrt = eig.compose(eig.eigenvalues ** -0.5)
        sqrt_s = (eig.vectors * eig.eigenvalues**0.5) @ eig.vectors.conj().T
        t = inv_sqrt @ rho.mats[0] @ inv_sqrt
        direct = float(
            np.trace(sqrt_s @ matrix_polynomial(coeffs, t) @ sqrt_s).real
        )
        scale = max(1.0, abs(direct))
        assert abs(witness_batch(rho, sigma).f_divergence(f)[0] - direct) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# data processing
# ---------------------------------------------------------------------------


def test_dpi_holds_for_operator_convex_generators():
    for i in range(40):
        rho = random_density(3, seed=substream(48, i, 0))
        sigma = random_density(3, seed=substream(48, i, 1))
        ch = random_channel(3, seed=substream(48, i, 2))
        before = witness_batch(rho, sigma)
        out = _through(ch, [rho, sigma])
        after = witness_batch(out.take([0]), out.take([1]))
        for f in (KL, CHI2):
            assert after.f_divergence(f)[0] <= before.f_divergence(f)[0] + 1e-8


def test_witness_channel_attains_dpi_equality():
    # Feeding the classical witness pair through the recovery channel gives
    # back (rho, sigma), so the divergence is exactly preserved.
    for i in range(20):
        rho = random_density(4, seed=substream(50, i, 0))
        sigma = random_density(4, seed=substream(50, i, 1))
        w = witness_batch(rho, sigma)
        diag_r, diag_s = _diag(w.r[0]), _diag(w.s[0])
        before = witness_batch(diag_r, diag_s).f_divergence(KL)[0]
        out = _through(w.channel(0), [diag_r, diag_s])
        after = witness_batch(out.take([0]), out.take([1])).f_divergence(KL)[0]
        assert after == pytest.approx(before, abs=1e-9)
        assert before == pytest.approx(w.f_divergence(KL)[0], abs=1e-9)


def test_the_jordan_reverse_test_attains_the_trace_distance_under_the_condition():
    # rho - sigma = P - N with tr P = tr N = t/2.  The three-outcome test
    # with states P/(t/2), N/(t/2), (sigma - N)/(1 - t/2) and weights
    # p = (t/2, 0, 1 - t/2), q = (0, t/2, 1 - t/2) is a reverse test exactly
    # when sigma >= N, which |rho - sigma| <= rho + sigma gives; its tv is t,
    # the least any reverse test can have, so the witness's tv is at least t.
    rho, sigma = random_pairs(substreams(91, (4,), range(256)), 4, rank=8)
    holds, _ = abs_condition_rows(rho, sigma)
    rho, sigma = rho.take(holds), sigma.take(holds)
    assert len(rho.mats) > 128
    w, u = np.linalg.eigh(rho.mats - sigma.mats)
    pos = (u * np.maximum(w, 0.0)[:, None, :]) @ u.conj().swapaxes(-1, -2)
    neg = (u * np.maximum(-w, 0.0)[:, None, :]) @ u.conj().swapaxes(-1, -2)
    t = np.abs(w).sum(axis=-1)
    half = (t / 2.0)[:, None, None]
    states = (pos / half, neg / half, (sigma.mats - neg) / (1.0 - half))
    p = np.stack([t / 2.0, np.zeros_like(t), 1.0 - t / 2.0], axis=-1)
    q = np.stack([np.zeros_like(t), t / 2.0, 1.0 - t / 2.0], axis=-1)

    def rebuilt(weights):
        return sum(weights[:, k, None, None] * states[k] for k in range(3))

    for weights, target in ((p, rho.mats), (q, sigma.mats)):
        gap = np.abs(np.linalg.eigvalsh(rebuilt(weights) - target)).sum(axis=-1)
        assert gap.max() <= 1e-12
    assert np.linalg.eigvalsh(sigma.mats - neg)[:, 0].min() >= -1e-12
    assert np.abs(np.abs(p - q).sum(axis=-1) - t).max() <= 1e-12
    assert np.all(witness_batch(rho, sigma).f_divergence(TV) >= t - 1e-12)


# ---------------------------------------------------------------------------
# metamorphic relations: read only the maximal divergences, on 256 pairs per
# seed; each bound is 10 times the worst relative gap measured over seeds
# 0-2 (3.0e-11 for kl, 7.9e-10 for chi2, 2.6e-12 under the unitary)
# ---------------------------------------------------------------------------


def _kron_rows(a, b):
    n, m = a.shape[-1], b.shape[-1]
    return np.einsum("bij,bkl->bikjl", a, b).reshape(len(a), n * m, n * m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximal_kl_adds_and_one_plus_chi2_multiplies_on_tensor_products(seed):
    rho_a, sigma_a = random_pairs(substreams(seed, (2,), range(256)), 2)
    rho_b, sigma_b = random_pairs(substreams(seed, (4,), range(256)), 4)
    a, b = witness_batch(rho_a, sigma_a), witness_batch(rho_b, sigma_b)
    ab = witness_batch(DensityStack(_kron_rows(rho_a.mats, rho_b.mats)),
                       DensityStack(_kron_rows(sigma_a.mats, sigma_b.mats)))
    kl = a.f_divergence(KL) + b.f_divergence(KL)
    assert np.all(np.abs(ab.f_divergence(KL) - kl) <= 3e-10 * np.maximum(1.0, kl))
    chi2 = (1.0 + a.f_divergence(CHI2)) * (1.0 + b.f_divergence(CHI2))
    assert np.all(np.abs(1.0 + ab.f_divergence(CHI2) - chi2) <= 8e-9 * chi2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_maximal_kl_is_invariant_under_a_unitary_conjugation(seed):
    rho, sigma = random_pairs(substreams(seed, (4,), range(256)), 4)
    u = _haar_unitaries(substream(seed, 5), 256, 4)
    u_dag = linalg.adjoint(u)
    kl = witness_batch(rho, sigma).f_divergence(KL)
    turned = witness_batch(DensityStack(u @ rho.mats @ u_dag),
                           DensityStack(u @ sigma.mats @ u_dag)).f_divergence(KL)
    assert np.all(np.abs(turned - kl) <= 3e-11 * np.maximum(1.0, kl))


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_witness_requires_invertible_sigma():
    with pytest.raises(SingularState):
        witness_batch(maximally_mixed(), diagonal_state([1.0, 0.0]))


def test_witness_batch_names_the_lowest_non_hermitian_sigma_row():
    # witness_batch takes state stacks, so the carrier checks sigma where
    # the stack is built and names the lowest bad row
    rho, sigma = random_pairs([substream(52, i) for i in range(4)], 3)
    bad = np.array(sigma.mats)
    bad[3, 0, 1] += 1e-3
    bad[1, 2, 0] += 1e-3j
    with pytest.raises(InvariantViolation, match="^hermiticity: row 1: max"):
        witness_batch(rho, DensityStack(bad))
    with pytest.raises(InvariantViolation, match="^hermiticity: max"):
        witness_batch(rho.take([1]), DensityStack(bad[1:2]))
    near = np.array(sigma.mats[:1])
    near[0, 2, 0] += 1e-11  # within STATE_TOL: accepted and symmetrized
    near_stack = DensityStack(near)
    witness_batch(rho.take([0]), near_stack)  # caches the sigma eig it read
    assert np.array_equal(near_stack.eig.eigenvalues,
                          hermitian_eig(linalg.hermitian_part(near)).eigenvalues)


def _spoil(mats, rows, defect):
    """A copy of a dim-3 state stack whose rows ``rows`` have the named
    defect."""
    bad = np.array(mats)
    for row in rows:
        if defect == "hermiticity":
            bad[row, 2, 0] += 1e-3
        elif defect == "trace":
            bad[row] *= 1.01
        else:
            bad[row] = np.diag([1.1, 0.0, -0.1])
    return bad


@pytest.mark.parametrize("defect", ["hermiticity", "trace", "positivity"])
def test_a_bad_rho_row_raises_the_carriers_error_for_the_lowest_row(defect):
    # rho is checked as a state stack, like sigma: a rho row that is not
    # Hermitian, has the wrong trace or is not positive is named
    rho, sigma = random_pairs([substream(54, i) for i in range(4)], 3)
    bad = _spoil(rho.mats, (3, 1), defect)
    with pytest.raises(InvariantViolation, match=f"^{defect}: row 1: "):
        witness_batch(DensityStack(bad), sigma)


def test_witness_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        witness_batch(
            random_density(2, seed=substream(51, 0)),
            random_density(3, seed=substream(51, 1)),
        )


# ---------------------------------------------------------------------------
# batched witnesses
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_a_one_row_witness_is_bit_identical_to_its_batch_row(dim):
    rho, sigma = random_pairs([substream(60, dim, i) for i in range(7)], dim)
    batch = witness_batch(rho, sigma)
    assert batch.lambdas.shape == (7, dim)
    for i in range(7):
        # fresh one-row stacks, so the one-row witness computes sigma's eig alone
        w = witness_batch(DensityStack(rho.mats[i:i + 1]), DensityStack(sigma.mats[i:i + 1]))
        for got, want in (
            (w.lambdas[0], batch.lambdas[i]),
            (w.r[0], batch.r[i]),
            (w.s[0], batch.s[i]),
            (w.columns[0], batch.columns[i]),
            (w.channel(0).kraus, batch.channel(i).kraus),
        ):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert w.f_divergence(KL)[0] == batch.f_divergence(KL)[i]


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_stacked_residuals_match_the_one_row_and_kraus_routes(dim):
    rngs = [substream(64, dim, i) for i in range(6)]
    rho, sigma = random_pairs(rngs, dim)
    batch = witness_batch(rho, sigma)
    rows = witness_residual_rows(rho, sigma, batch)
    back_r, back_s = batch.recovered()
    kraus = np.stack([random_channel(dim, seed=rng).kraus for rng in rngs])
    out = apply_channel_rows(kraus, rho)
    for b in range(6):
        # fresh one-row stacks, so each computes sigma's eig alone
        assert _residuals(DensityStack([rho.mats[b]]), DensityStack([sigma.mats[b]])) == {
            k: float(v[b]) for k, v in rows.items()}
        # the Kraus route of the recovery channel is the independent oracle
        for back, p in ((back_r, batch.r[b]), (back_s, batch.s[b])):
            oracle = _through(batch.channel(b), [_diag(p)]).mats[0]
            assert np.max(np.abs(back.mats[b] - oracle)) <= 1e-12
        one = _through(QuantumChannel(kraus[b]), [rho.take([b])]).mats[0]
        loop = sum(a @ rho.mats[b] @ a.conj().T for a in kraus[b])
        assert np.array_equal(one, out.mats[b])
        assert np.array_equal(one, (loop + loop.conj().T) / 2)


def _classical_sums(p, q):
    """Each builtin divergence and D_max of the rows of two probability
    arrays, as plain numpy sums over (p, q)."""
    return {"kl": np.sum(p * np.log(p / q), axis=-1),
            "chi2": np.sum(p ** 2 / q, axis=-1) - 1.0,
            "tv": np.sum(np.abs(p - q), axis=-1),
            "dmax": np.log(np.max(p / q, axis=-1))}


def test_batched_witness_of_commuting_pairs_is_the_diagonals():
    # diagonal pairs, and the same pairs turned by one Haar unitary each:
    # both commute, so every builtin divergence of the witness, and D_max by
    # its own route, is the classical value of (p, q).  The bound is 1e-11
    # relative to max(1, |D|); the worst gap measured was 3.1e-13 (chi2, dim 8).
    rng = substream(61)
    for dim in (2, 3, 5, 8):
        p = rng.dirichlet(np.ones(dim), size=200)
        q = rng.dirichlet(np.ones(dim), size=200)
        u = _haar_unitaries(rng, 200, dim)
        u_dag = linalg.adjoint(u)
        rho_mats, sigma_mats = p[..., None] * np.eye(dim), q[..., None] * np.eye(dim)
        stacks = [(DensityStack(rho_mats), DensityStack(sigma_mats)),
                  (DensityStack(u @ rho_mats @ u_dag), DensityStack(u @ sigma_mats @ u_dag))]
        witnesses = [witness_batch(*pair) for pair in stacks]
        # the diagonal witness lists the pairs (p_j, q_j) in ascending ratio order
        order = np.argsort(p / q, axis=-1)
        assert np.allclose(witnesses[0].r, np.take_along_axis(p, order, -1), atol=1e-14)
        assert np.allclose(witnesses[0].s, np.take_along_axis(q, order, -1), atol=1e-14)
        assert np.allclose(witnesses[0].lambdas, np.take_along_axis(p / q, order, -1),
                           rtol=1e-12)
        want = _classical_sums(p, q)
        for (rho, sigma), w in zip(stacks, witnesses):
            got = {name: w.f_divergence(builtin_generator(name)) for name in ("kl", "chi2", "tv")}
            got["dmax"] = max_relative_entropy_rows(rho, sigma)
            for name, value in got.items():
                gap = np.abs(value - want[name]) / np.maximum(1.0, np.abs(want[name]))
                assert gap.max() <= 1e-11, (dim, name, gap.max())


def test_a_kl_fault_in_the_witness_fails_the_commuting_pair_check(monkeypatch):
    # kl alone scaled by 1 - 1e-3: chi2_match cannot see it, the commuting
    # pairs' classical sums do
    real = maximal.WitnessBatch.f_divergence
    monkeypatch.setattr(maximal.WitnessBatch, "f_divergence", lambda self, f: (
        real(self, f) * (1.0 - 1e-3) if f.name == "kl" else real(self, f)))
    with pytest.raises(AssertionError, match=r"\(2, 'kl', "):
        test_batched_witness_of_commuting_pairs_is_the_diagonals()


def test_witness_batch_raises_for_the_lowest_failing_row():
    rho, sigma = random_pairs([substream(62, i) for i in range(4)], 3)
    rho_mats = np.array(rho.mats)
    sigma_mats = np.array(sigma.mats)
    sigma_mats[2] = np.diag([0.5, 0.5, 0.0])
    with pytest.raises(SingularState, match="^row 2: sigma has min eigenvalue"):
        witness_batch(DensityStack(rho_mats), DensityStack(sigma_mats))
    # an earlier row that fails a later check still comes first; rho is
    # checked as a state at a tolerance that lets its -0.1 through
    rho_mats[1] = np.diag([1.1, 0.0, -0.1])
    with pytest.raises(NegativeSpectrum, match="^row 1: ratio matrix"):
        witness_batch(DensityStack(rho_mats, tol=0.2), DensityStack(sigma_mats))


def test_witness_batch_rejects_mismatched_stacks():
    with pytest.raises(DimensionMismatch):
        witness_batch(*(random_pairs([substream(65, i) for i in range(2)], n)[0]
                        for n in (3, 4)))


@pytest.mark.parametrize("name", [
    "witness_batch", "witness_residual_rows", "relative_entropy_rows", "chi2_rows",
    "max_relative_entropy_rows", "abs_condition_rows", "abs_condition_holds"])
def test_every_pair_function_names_the_state_stack_it_expects(name):
    # a plain array in either place, or a witness in rho's
    rho, sigma = random_pairs([substream(65, i) for i in range(2)], 3)
    w = witness_batch(rho, sigma)
    call = {
        "witness_batch": witness_batch,
        "witness_residual_rows": lambda r, s: witness_residual_rows(r, s, w),
        "relative_entropy_rows": relative_entropy_rows,
        "chi2_rows": chi2_rows,
        "max_relative_entropy_rows": max_relative_entropy_rows,
        "abs_condition_rows": abs_condition_rows,
        "abs_condition_holds": abs_condition_holds,
    }[name]
    for args, which, got in (((rho.mats, sigma), "rho", "ndarray"),
                             ((rho, sigma.mats), "sigma", "ndarray"),
                             ((w, sigma), "rho", "WitnessBatch")):
        with pytest.raises(NotAState, match=f"^{which} must be a DensityStack, got {got}$"):
            call(*args)


def test_recovery_channel_is_assembled_on_first_read(monkeypatch):
    rho = random_density(3, seed=substream(63, 0))
    sigma = random_density(3, seed=substream(63, 1))

    def refuse(_):
        raise AssertionError("channel assembled")

    monkeypatch.setattr(maximal, "QuantumChannel", refuse)
    w = witness_batch(rho, sigma)
    assert w.f_divergence(KL)[0] >= 0.0
    with pytest.raises(AssertionError, match="channel assembled"):
        w.channel(0)


@pytest.mark.parametrize("i", [2, -3, 1.0, "0", slice(0, 1), None], ids=[
    "past-the-end", "before-the-start", "float", "string", "slice", "none"])
def test_the_recovery_channel_of_an_index_off_the_stack_is_out_of_range(i):
    w = witness_batch(*random_pairs([substream(67, k) for k in range(2)], 3))
    assert np.array_equal(w.channel(-1).kraus, w.channel(1).kraus)
    want = f"^row {re.escape(repr(i))} is not a row of a stack of 2$"
    with pytest.raises(OutOfRange, match=want):
        w.channel(i)


# Two pairs of the witness suite's ensemble, keyed (seed, dim, index) as in
# verify.witness_suite, with nearly singular sigma.  On the first, taking
# s_i = <u_i|sigma|u_i> while the Kraus operators use sigma^{1/2} u_i
# misses the completeness tolerance (defect 1.342e-09).  The second has an
# r normalization defect of about 5.6e-10: within WITNESS_TOL, but above
# the state tolerance at which diag(r) would be checked by default.


def test_witness_is_complete_for_a_nearly_singular_sigma():
    rho, sigma = random_pairs([substream(568437518, 8, 7)], 8)
    assert sigma.spectra[0, 0] < 1e-8
    kraus = witness_batch(rho, sigma).channel(0).kraus
    comp = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    assert np.max(np.abs(comp - np.eye(8))) <= 1e-14
    assert _passes(rho, sigma)


def test_r_gap_of_an_ill_conditioned_sigma_is_a_singular_state():
    # sigma's least eigenvalue is 1e-8, so eps n lambda_max = 3.0e-8 is far
    # above WITNESS_TOL: the eigensolver's error on T alone opens r's gap
    rho, sigma = ill_conditioned_pair(28)
    with pytest.raises(SingularState, match=(
            r"^r: \|sum - 1\| = \d\.\d{3}e-09 exceeds 1e-09 at lambda_max = 3\.39\de\+07, "
            r"sigma's least eigenvalue 1\.000e-08$")):
        witness_batch(rho, sigma)
    stack = [*ill_conditioned_pair(0), rho, sigma]
    with pytest.raises(SingularState, match="^row 1: r: "):
        witness_batch(DensityStack.concatenate(stack[::2]),
                      DensityStack.concatenate(stack[1::2]))


def test_r_gap_of_a_well_conditioned_sigma_stays_an_invariant_violation(monkeypatch):
    real = maximal.hermitian_eig

    def inflated(m):
        e = real(m)
        return HermitianEigen(e.eigenvalues * (1.0 + 1e-6), e.vectors)

    monkeypatch.setattr(maximal, "hermitian_eig", inflated)
    rho, sigma = random_pairs([substream(29, i) for i in range(3)], 4)
    with pytest.raises(InvariantViolation, match=r"^normalization: row 0: r: \|sum - 1\| = 1\.0"):
        witness_batch(rho, sigma)


def test_witness_r_defect_shows_as_its_residual():
    rho, sigma = random_pairs([substream(568657945, 2, 9)], 2)
    residuals = _residuals(rho, sigma)
    assert 1e-10 < residuals["r_normalization"] <= WITNESS_TOL
    assert max(residuals.values()) <= WITNESS_TOL


def test_one_pair_diagonalizes_sigma_once_for_both_entry_points(monkeypatch):
    # a stack caches sigma's eigendecomposition, so the one that
    # witness_batch computes is the one max_relative_entropy_rows reads
    rho, sigma = random_pairs([substream(31, 4)], 4)
    alone = max_relative_entropy_rows(DensityStack(rho.mats), DensityStack(sigma.mats))
    calls = count_eig_calls(monkeypatch)
    w = witness_batch(rho, sigma)
    assert calls == {"eigh": 2}  # sigma, then T
    d_max = max_relative_entropy_rows(rho, sigma)
    assert calls == {"eigh": 2, "eigvalsh": 1}
    assert np.array_equal(d_max, alone)
    assert d_max[0] == pytest.approx(math.log(w.lambdas[0, -1]), rel=1e-12)
