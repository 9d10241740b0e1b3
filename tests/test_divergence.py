"""Tests for classical f-divergences and the standard quantum divergences."""

import math

import numpy as np
import pytest
from conftest import (
    diagonal_state,
    maximally_mixed,
    plus_state,
    quantum_chi2,
    random_density,
    relative_entropy,
)

from qfdiv.divergence import (
    chi2_rows,
    f_div_rows,
    max_relative_entropy_rows,
    relative_entropy_rows,
)
from qfdiv.errors import (
    DimensionMismatch,
    NotAGenerator,
    SingularState,
    ZeroReference,
)
from qfdiv.generators import builtin_generator
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.maximal import witness_batch
from qfdiv.states import (
    DensityStack,
    random_pairs,
    substream,
)

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")
TV = builtin_generator("tv")

# one distribution per row
P34 = np.array([[0.75, 0.25]])
Q12 = np.array([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# classical divergences: hand values
# ---------------------------------------------------------------------------


def test_classical_kl_hand_value():
    # 0.75 ln 1.5 + 0.25 ln 0.5 = 0.13081203594113697
    assert f_div_rows(P34, Q12, KL)[0] == pytest.approx(
        0.13081203594113697, abs=1e-15
    )


def test_classical_chi2_hand_value():
    # 0.5 (1.5^2 + 0.5^2) - 1 = 0.25
    assert f_div_rows(P34, Q12, CHI2)[0] == pytest.approx(0.25, abs=1e-15)


def test_classical_tv_hand_value():
    # 0.5 |1.5 - 1| + 0.5 |0.5 - 1| = 0.5 = ||p - q||_1
    assert f_div_rows(P34, Q12, TV)[0] == pytest.approx(0.5, abs=1e-15)


def test_classical_divergence_vanishes_on_equal_distributions():
    for f in (KL, CHI2, TV):
        assert f_div_rows(Q12, Q12, f)[0] == pytest.approx(0.0, abs=1e-15)


def test_classical_divergence_handles_zero_in_p():
    p = [[0.0, 1.0]]
    # kl: q_0 f(0) = 0;  chi2: 0.5 (-1) + 0.5 (2^2 - 1) = 1;  tv: ||p-q||_1 = 1
    assert f_div_rows(p, Q12, KL)[0] == pytest.approx(math.log(2.0), abs=1e-15)
    assert f_div_rows(p, Q12, CHI2)[0] == pytest.approx(1.0, abs=1e-15)
    assert f_div_rows(p, Q12, TV)[0] == pytest.approx(1.0, abs=1e-15)


def test_classical_divergence_rejects_zero_reference():
    with pytest.raises(ZeroReference):
        f_div_rows(Q12, [[1.0, 0.0]], KL)


@pytest.mark.parametrize("call", [
    lambda f: f_div_rows([[0.75, 0.25]], [[0.5, 0.5]], f),
    lambda f: witness_batch(diagonal_state([0.75, 0.25]),
                            maximally_mixed()).f_divergence(f),
], ids=["f_div_rows", "WitnessBatch.f_divergence"])
def test_divergences_take_a_generator_not_its_name(call):
    # a name raised a bare AttributeError about .values
    with pytest.raises(NotAGenerator, match="^f must be an FGenerator, got str$"):
        call("kl")


def test_classical_divergence_rejects_length_mismatch():
    with pytest.raises(DimensionMismatch):
        f_div_rows([[1.0]], Q12, KL)


# ---------------------------------------------------------------------------
# quantum divergences
# ---------------------------------------------------------------------------


def test_quantum_relative_entropy_pure_vs_mixed():
    # D(|+><+| || I/2) = ln 2
    assert relative_entropy(plus_state(), maximally_mixed()) == (
        pytest.approx(math.log(2.0), abs=1e-12)
    )


def test_quantum_chi2_pure_vs_mixed():
    # tr((2 rho)^2 / 2) - 1 = 2 tr(rho^2) - 1 = 1 for a pure state
    assert quantum_chi2(plus_state(), maximally_mixed()) == pytest.approx(
        1.0, abs=1e-12
    )


def test_trace_distance_pure_vs_mixed():
    assert trace_norm_hermitian(plus_state().mats[0] - maximally_mixed().mats[0]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_max_relative_entropy_pure_vs_mixed():
    # largest eigenvalue of sigma^{-1/2} rho sigma^{-1/2} is 2
    assert max_relative_entropy_rows(plus_state(), maximally_mixed())[0] == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_quantum_divergences_reduce_to_classical_on_diagonal_states():
    rng = substream(30)
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4) * 3.0) * 0.96 + 0.01
        rho, sigma = diagonal_state(p), diagonal_state(q)
        assert relative_entropy(rho, sigma) == pytest.approx(
            f_div_rows(p[None], q[None], KL)[0], abs=1e-9
        )
        assert quantum_chi2(rho, sigma) == pytest.approx(
            f_div_rows(p[None], q[None], CHI2)[0], abs=1e-9
        )
        assert trace_norm_hermitian(rho.mats[0] - sigma.mats[0]) == pytest.approx(
            f_div_rows(p[None], q[None], TV)[0], abs=1e-9
        )
        assert max_relative_entropy_rows(rho, sigma)[0] == pytest.approx(
            math.log(max(p / q)), abs=1e-9
        )


def test_quantum_divergences_vanish_on_equal_states():
    rho = random_density(4, seed=substream(31, 0))
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)
    assert quantum_chi2(rho, rho) == pytest.approx(0.0, abs=1e-10)
    assert trace_norm_hermitian(rho.mats[0] - rho.mats[0]) == 0.0
    assert max_relative_entropy_rows(rho, rho)[0] == pytest.approx(0.0, abs=1e-10)


def test_quantum_divergences_require_invertible_reference():
    rho = maximally_mixed()
    singular = diagonal_state([1.0, 0.0])
    with pytest.raises(SingularState):
        relative_entropy(rho, singular)
    with pytest.raises(SingularState):
        quantum_chi2(rho, singular)
    with pytest.raises(SingularState):
        max_relative_entropy_rows(rho, singular)


def test_quantum_divergences_reject_dimension_mismatch():
    rho = random_density(2, seed=substream(32, 0))
    sigma = random_density(3, seed=substream(32, 1))
    with pytest.raises(DimensionMismatch):
        max_relative_entropy_rows(rho, sigma)


# ---------------------------------------------------------------------------
# row-wise forms: a stack gives each row what that row gives alone
# ---------------------------------------------------------------------------


def test_f_div_rows_match_the_single_pair_divergence():
    rng = substream(80)
    p = rng.dirichlet(np.ones(5), size=8)
    p[0, 2] = 0.0  # the limit at zero ratio is used
    p[0] /= p[0].sum()
    q = rng.dirichlet(np.ones(5), size=8)
    for f in (KL, CHI2, TV):
        rows = f_div_rows(p, q, f)
        for i in range(8):
            one = f_div_rows(p[i:i + 1], q[i:i + 1], f)
            assert rows[i] == one[0]
            loop = sum(float(f.values(a / b)) * b for a, b in zip(p[i], q[i]))
            assert rows[i] == pytest.approx(loop, rel=1e-13, abs=1e-15)


def test_f_div_rows_names_the_row_with_a_zero_reference():
    q = np.full((3, 2), 0.5)
    q[2] = [1.0, 0.0]
    with pytest.raises(ZeroReference, match="^row 2: "):
        f_div_rows(np.full((3, 2), 0.5), q, KL)


def test_relative_entropy_rows_match_the_single_pair_entropy():
    rho, sigma = random_pairs([substream(81, i) for i in range(6)], 3)
    rows = relative_entropy_rows(rho, sigma)
    for i in range(6):
        # a fresh one-row stack computes sigma's eig and rho's spectrum alone
        one = relative_entropy_rows(*(DensityStack(x.mats[i:i + 1]) for x in (rho, sigma)))
        assert rows[i] == one[0]


def test_chi2_rows_match_the_single_pair_chi2():
    rho, sigma = random_pairs([substream(82, i) for i in range(6)], 3)
    rows = chi2_rows(rho, sigma)
    for i in range(6):
        # a fresh stack computes sigma's eig alone, where a row would share the stack's
        assert rows[i] == quantum_chi2(rho.take([i]), DensityStack(sigma.mats[i:i + 1]))
    # sigma's eig cached by a witness gives the same bits
    fresh = DensityStack.concatenate([sigma])
    witness_batch(rho, fresh)
    assert np.array_equal(chi2_rows(rho, fresh), rows)
    # the stack raises what its lowest singular row raises alone
    sigma_mats = np.array(sigma.mats)
    sigma_mats[2] = np.diag([0.5, 0.5, 0.0])
    sigma_mats[4] = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SingularState, match="^sigma has min eigenvalue") as one:
        quantum_chi2(rho.take([2]), DensityStack(sigma_mats[2:3]))
    with pytest.raises(SingularState) as stacked:
        chi2_rows(rho, DensityStack(sigma_mats))
    assert str(stacked.value) == f"row 2: {one.value}"


def test_max_relative_entropy_rows_match_the_single_pair_value():
    rho, sigma = random_pairs([substream(85, i) for i in range(6)], 3)
    rows = max_relative_entropy_rows(rho, sigma)
    for i in range(6):
        # a fresh one-row stack computes sigma's eig alone
        one = max_relative_entropy_rows(*(DensityStack(x.mats[i:i + 1]) for x in (rho, sigma)))
        assert rows[i] == one[0]
    # the stack raises what its lowest singular row raises alone
    sigma_mats = np.array(sigma.mats)
    sigma_mats[3] = np.diag([0.5, 0.5, 0.0])
    sigma_mats[5] = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(SingularState, match="^sigma has min eigenvalue") as one:
        max_relative_entropy_rows(rho.take([3]), DensityStack(sigma_mats[3:4]))
    with pytest.raises(SingularState) as stacked:
        max_relative_entropy_rows(rho, DensityStack(sigma_mats))
    assert str(stacked.value) == f"row 3: {one.value}"


def test_sigma_is_diagonalized_once_per_stack_across_the_pair_functions(monkeypatch):
    # the witness computes sigma's eig and caches it on the stack, and the
    # reference divergences read it there
    pairs = [random_pairs([substream(84, k, i) for i in range(5)], 3) for k in range(2)]
    seen = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(next((k for k, (_, sigma) in enumerate(pairs) if a is sigma.mats), "T"))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    for rho, sigma in pairs:
        witness_batch(rho, sigma)
        relative_entropy_rows(rho, sigma)
        chi2_rows(rho, sigma)
    assert seen == [0, "T", 1, "T"]


def test_one_matrix_is_read_as_a_one_row_stack():
    # one state enters as the one-row stack of its matrix
    rho, sigma = random_pairs([substream(83, 0)], 3)
    one = [DensityStack([x.mats[0]]) for x in (rho, sigma)]
    assert chi2_rows(*one) == pytest.approx(chi2_rows(rho, sigma), rel=1e-14)
    assert relative_entropy_rows(*one) == pytest.approx(
        relative_entropy_rows(rho, sigma), rel=1e-14)
    singular = DensityStack([np.diag([0.5, 0.5, 0.0])])
    with pytest.raises(SingularState, match="^sigma has min eigenvalue"):
        chi2_rows(one[0], singular)
    with pytest.raises(SingularState, match="^sigma has min eigenvalue"):
        relative_entropy_rows(one[0], singular)
