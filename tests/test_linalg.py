"""Tests for the dense Hermitian linear-algebra primitives."""

import math
import warnings

import numpy as np
import pytest
from conftest import maximally_mixed, plus_state, random_hermitian, random_psd

from qfdiv import linalg
from qfdiv.errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NoConvergence,
    SingularState,
)
from qfdiv.states import DensityMatrix, DensityStack

RNG = np.random.default_rng(20240811)
# slack of the Loewner-order comparisons, on the least eigenvalue
LOEWNER_TOL = 1e-10


# ---------------------------------------------------------------------------
# hand-checkable cases
# ---------------------------------------------------------------------------


def test_pauli_x_eigendecomposition():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    eig = linalg.hermitian_eig(x)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-14)
    # phase convention: the largest-modulus component of each column is real
    # positive; on the modulus tie (both components are 1/sqrt 2) the first
    # index wins, so both columns start with +1/sqrt 2.
    expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
    assert np.allclose(eig.vectors, expected, atol=1e-14)


def test_sqrt_of_diagonal():
    eig = linalg.hermitian_eig(np.diag([4.0, 9.0]))
    out = eig.compose(np.sqrt(eig.eigenvalues))
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_quadratic_on_singular_diagonal():
    # f(x) = x^2 - 1 composed through the spectrum of diag(2, 0), f(0) != 0
    eig = linalg.hermitian_eig(np.diag([2.0, 0.0]))
    out = eig.compose(eig.eigenvalues ** 2 - 1.0)
    assert np.allclose(out, np.diag([3.0, -1.0]), atol=1e-12)


def test_inv_sqrt_of_diagonal():
    eig = linalg.hermitian_eig(np.diag([0.25, 0.25, 0.5]))
    out = eig.compose(eig.eigenvalues ** -0.5)
    assert np.allclose(out, np.diag([2.0, 2.0, math.sqrt(2.0)]), atol=1e-12)


def test_trace_norm_of_indefinite_diagonal():
    assert linalg.trace_norm_hermitian(np.diag([1.0, -2.0])) == pytest.approx(3.0)


def test_trace_norm_of_pure_vs_mixed_difference():
    diff = plus_state().mat - maximally_mixed().mat
    assert linalg.trace_norm_hermitian(diff) == pytest.approx(1.0, abs=1e-12)


def _geq(x, y):
    """X >= Y in the Loewner order, up to ``-LOEWNER_TOL`` on the spectrum."""
    return linalg.psd_rows(np.asarray(x) - np.asarray(y), LOEWNER_TOL)


def test_loewner_order_comparable_pair():
    eye = np.eye(3)
    assert _geq(2.0 * eye, eye)
    assert not _geq(eye, 2.0 * eye)


def test_loewner_order_incomparable_projectors():
    p = np.diag([1.0, 0.0])
    q = np.diag([0.0, 1.0])
    assert not _geq(p, q)
    assert not _geq(q, p)


def test_loewner_sum_dominates_absolute_difference_for_qubit_pair():
    rho = plus_state().mat
    sigma = maximally_mixed().mat
    eig = linalg.hermitian_eig(rho - sigma)
    gap = eig.compose(np.abs(eig.eigenvalues))
    assert _geq(rho + sigma, gap)


# ---------------------------------------------------------------------------
# randomized invariants
# ---------------------------------------------------------------------------


def _random_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def test_construct_then_decompose_recovers_spectrum():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        lam = np.sort(rng.uniform(-3.0, 3.0, size=n))
        u = _random_unitary(n, rng)
        a = (u * lam) @ u.conj().T
        eig = linalg.hermitian_eig(a)
        assert np.allclose(eig.eigenvalues, lam, atol=1e-12)
        recon = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
        assert np.max(np.abs(recon - a)) <= 1e-12


def test_eigendecomposition_invariants_on_random_matrices():
    rng = np.random.default_rng(11)
    total = 0
    for n in range(2, 9):
        for _ in range(150):
            a = random_hermitian(n, rng)
            eig = linalg.hermitian_eig(a)
            # ascending eigenvalues
            assert np.all(np.diff(eig.eigenvalues) >= 0.0)
            # unitary eigenvector matrix
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12
            # exact reconstruction
            recon = (eig.vectors * eig.eigenvalues) @ eig.vectors.conj().T
            assert np.max(np.abs(recon - a)) <= 1e-12
            # deterministic phases: the leading component of every column is
            # real and positive
            lead = eig.vectors[
                np.argmax(np.abs(eig.vectors), axis=0), np.arange(n)
            ]
            assert np.all(np.abs(lead.imag) <= 1e-12)
            assert np.all(lead.real > 0.0)
            total += 1
    assert total >= 1000


def test_eigendecomposition_is_deterministic():
    rng = np.random.default_rng(3)
    a = random_hermitian(5, rng)
    e1 = linalg.hermitian_eig(a)
    e2 = linalg.hermitian_eig(a.copy())
    assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
    assert np.array_equal(e1.vectors, e2.vectors)


def test_matrix_polynomial_matches_direct_powers():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = linalg.matrix_polynomial([1.0, 2.0, 3.0], x)
    direct = np.eye(4) + 2.0 * x + 3.0 * (x @ x)
    assert np.allclose(out, direct, atol=1e-12)
    assert np.allclose(linalg.matrix_polynomial([], x), np.zeros((4, 4)))


def test_polynomial_trace_identity_under_congruence():
    # tr(A f(AB) A) = tr(A f(BA) A) for PSD A, B and polynomial f
    rng = np.random.default_rng(19)
    for n in (2, 4, 6):
        for _ in range(25):
            a = random_psd(n, rng)
            b = random_psd(n, rng)
            coeffs = rng.uniform(-1.0, 1.0, size=5)
            fab = linalg.matrix_polynomial(coeffs, a @ b)
            fba = linalg.matrix_polynomial(coeffs, b @ a)
            lhs = np.trace(a @ fab @ a).real
            rhs = np.trace(a @ fba @ a).real
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-8 * scale


def test_polynomial_inverse_weighted_trace_identity():
    # tr(A^{-1} f(BA)) = tr(B g(AB)) when f(x) = x g(x) with polynomial g
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        for _ in range(25):
            a = random_psd(n, rng) + 0.5 * np.eye(n)
            b = random_psd(n, rng)
            g = rng.uniform(-1.0, 1.0, size=4)
            f = np.concatenate(([0.0], g))
            lhs = np.trace(np.linalg.inv(a) @ linalg.matrix_polynomial(f, b @ a))
            rhs = np.trace(b @ linalg.matrix_polynomial(g, a @ b))
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# error paths
# ---------------------------------------------------------------------------


def test_hermitian_defect_within_tolerance_is_symmetrized():
    # within the carrier's tolerance, so accepted and symmetrized
    out = DensityMatrix(np.array([[0.5, 1e-12], [0.0, 0.5]])).mat
    assert np.array_equal(out, linalg.adjoint(out))


def test_singular_check_rejects_a_near_singular_spectrum():
    # the check that guards every sigma^{-1/2} and every w^{-1} in src/
    low = linalg.hermitian_eig(np.diag([1.0, 1e-12])).eigenvalues[..., 0]
    with pytest.raises(SingularState, match="^sigma has min eigenvalue 1.000e-12$"):
        linalg.raise_first_failure([linalg.singular_check(low)])
    # a least eigenvalue the solver could not give fails too
    with pytest.raises(SingularState, match="^row 1: sigma has min eigenvalue nan$"):
        linalg.raise_first_failure([linalg.singular_check(np.array([0.5, np.nan]))])


def test_non_square_input_is_rejected():
    with pytest.raises(DimensionMismatch):
        linalg.as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        linalg.as_complex_matrix(np.zeros(4))


def test_non_finite_entries_are_rejected():
    with pytest.raises(DomainError):
        linalg.as_complex_matrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))


def test_entries_near_the_largest_float_give_finite_results_or_typed_errors():
    # (m + m^dag) / 2 overflows into inf here, and eigh of inf is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = linalg.hermitian_eig(np.diag([1e308, 1e308]))
        assert eig.eigenvalues.tolist() == [1e308, 1e308]
        assert np.array_equal(eig.vectors, np.eye(2))
        big = np.array([[1e308, 1e308j], [-1e308j, 1e308]])
        assert np.array_equal(linalg.hermitian_part(big), big)
        # a defect that overflows fails the carriers' Hermiticity check
        with pytest.raises(InvariantViolation, match="^hermiticity: max .* = inf$"):
            DensityMatrix(np.array([[0.5, 1e308], [-1e308, 0.5]]))
        # a finite matrix whose largest eigenvalue (2e308) is past the largest float
        with pytest.raises(DomainError, match="overflow"):
            linalg.hermitian_eig(np.full((2, 2), 1e308))


def test_in_range_symmetrization_keeps_the_bits_of_the_halved_sum():
    def halved_sum(m):
        return (m + linalg.adjoint(m)) / 2

    # Hermitian within a state's tolerance, not to the last bit
    m = RNG.standard_normal((6, 4, 4)) + 1j * RNG.standard_normal((6, 4, 4))
    m = halved_sum(m) + 1e-12 * RNG.standard_normal((6, 4, 4))
    assert np.array_equal(linalg.hermitian_part(m), halved_sum(m))
    # Ginibre products G G^dag, as states are sampled, and T-shaped products
    # sigma^{-1/2} rho sigma^{-1/2}, as the witness forms them
    rng = np.random.default_rng(34)
    inexact = {"gram": 0, "t": 0}
    for n in (2, 3, 4, 8, 32):
        g = rng.standard_normal((2, 32, n, 2 * n)) + 1j * rng.standard_normal((2, 32, n, 2 * n))
        gram = g @ linalg.adjoint(g)
        rho, sigma = linalg.hermitian_part(gram)
        eig = linalg.hermitian_eig(sigma)
        inv_sqrt = eig.compose(eig.eigenvalues ** -0.5)
        for name, x in (("gram", gram), ("t", inv_sqrt @ rho @ inv_sqrt)):
            inexact[name] += int(np.count_nonzero((x != linalg.adjoint(x)).any(axis=(1, 2))))
            assert np.array_equal(linalg.hermitian_part(x), halved_sum(x))
    # the products are not Hermitian to the last bit, so the halving is tested
    assert inexact["gram"] > 0 and inexact["t"] > 0


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(NoConvergence):
        linalg.hermitian_eig(np.eye(2))


# ---------------------------------------------------------------------------
# stacks: each row is treated exactly as the matrix alone
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 7])
def test_stacked_eigendecomposition_matches_each_matrix_bit_for_bit(n):
    rng = np.random.default_rng(31)
    stack = np.array([random_hermitian(n, rng) for _ in range(5)])
    batch = linalg.hermitian_eig(stack)
    assert batch.eigenvalues.shape == (5, n) and batch.vectors.shape == (5, n, n)
    for i in range(5):
        one = linalg.hermitian_eig(stack[i])
        assert np.array_equal(batch.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(batch.vectors[i], one.vectors)
        lead = one.vectors[np.argmax(np.abs(one.vectors), axis=0), np.arange(n)]
        assert np.all(np.abs(lead.imag) <= 1e-12) and np.all(lead.real > 0.0)


def test_stacked_checks_return_one_entry_per_row():
    rng = np.random.default_rng(32)
    xs = np.array([random_hermitian(3, rng) for _ in range(4)])
    norms = linalg.trace_norm_hermitian(xs)
    assert norms.shape == (4,)
    for i in range(4):
        assert norms[i] == linalg.trace_norm_hermitian(xs[i])
    geq = _geq(np.abs(xs).sum() * np.eye(3)[None] + 0 * xs, xs)
    assert geq.dtype == bool and geq.all()
    assert isinstance(_geq(np.eye(2), np.eye(2)), bool)


def test_stacked_hermiticity_check_names_the_lowest_failing_row():
    stack = np.array([np.eye(2) / 2] * 4, dtype=complex)
    stack[3, 0, 1] = 1.0
    stack[1, 1, 0] = 1.0
    # the state carriers are the one Hermiticity check
    with pytest.raises(InvariantViolation, match=r"^hermiticity: row 1: .* = 1\.000e\+00$"):
        DensityStack(stack)
    with pytest.raises(InvariantViolation, match="^hermiticity: max"):
        DensityStack(stack[1:2])


# ---------------------------------------------------------------------------
# psd_rows against the least eigenvalue
# ---------------------------------------------------------------------------


def _spectra_near_the_boundary(n, tol, rng):
    """Spectra whose least eigenvalue is -tol (1 -+ 1e-3), so that ``a + tol I``
    is just definite or just indefinite: generic, rank-deficient (zeros
    besides the least eigenvalue) and repeated (the least eigenvalue and the
    rest in pairs), each with both signs of the margin."""
    out = []
    for margin in (1e-3, -1e-3):
        low = -tol * (1.0 - margin)
        rest = [
            rng.uniform(0.0, 1.0, n - 1),
            np.r_[np.zeros(n - 2), 1.0][: n - 1],
            np.full(n - 1, low),
            np.repeat(rng.uniform(0.1, 1.0, n), 2)[: n - 1],
            np.zeros(n - 1),
        ]
        out += [np.r_[low, r] for r in rest]
    return out


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_psd_rows_gives_the_eigvalsh_verdict_on_both_paths(monkeypatch, n, tol):
    lapack_calls = []

    def counted(a, _cholesky=np.linalg.cholesky):
        lapack_calls.append(1)
        return _cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = np.random.default_rng(60 + n)
    spectra = _spectra_near_the_boundary(n, tol, rng) * 3
    unitaries = [_random_unitary(n, rng) for _ in spectra]
    stack = np.array([(u * w) @ u.conj().T for w, u in zip(spectra, unitaries)])
    expected = np.linalg.eigvalsh(stack)[:, 0] > -tol
    # the construction puts every row on the side its margin says
    assert expected.tolist() == [w[0] > -tol for w in spectra]
    assert 0 < expected.sum() < len(stack)
    assert np.array_equal(linalg.psd_rows(stack, tol), expected)  # column steps
    assert lapack_calls == []
    assert np.array_equal(linalg.psd_rows(stack[:n - 1], tol), expected[:n - 1])
    for i in range(len(stack)):
        assert linalg.psd_rows(stack[i], tol) is bool(expected[i])
    assert len(lapack_calls) == n - 1 + len(stack)  # one LAPACK call per row


def test_psd_rows_keeps_a_row_failed_after_its_first_bad_pivot():
    a = np.array([np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, 1.0]), np.eye(3)])
    assert linalg.psd_rows(a, 0.5).tolist() == [False, False, True]
    assert [linalg.psd_rows(x, 0.5) for x in a] == [False, False, True]


@pytest.mark.parametrize("n", [1, 3])
def test_psd_rows_of_an_empty_stack_is_empty(n):
    out = linalg.psd_rows(np.zeros((0, n, n), dtype=complex), 1e-9)
    assert out.shape == (0,) and out.dtype == bool


def test_psd_rows_reads_only_the_lower_triangle():
    a = np.array([[[4.0, 100.0], [1.0, 4.0]], [[4.0, 1.0], [100.0, 4.0]]])
    assert linalg.psd_rows(a, 0.0).tolist() == [True, False]
    assert [linalg.psd_rows(x, 0.0) for x in a] == [True, False]


def test_psd_rows_emits_no_warning_on_adversarial_rows():
    # a subnormal pivot at tol = 0 overflows the next column; a failed
    # first pivot keeps huge entries in play; neither may warn
    rows = np.array([
        [[1e-320, 1.0], [1.0, 1.0]],
        [[1e-320, 0.0], [0.0, 1.0]],
        [[-1e300, 1e300], [1e300, 1e300]],
        [[1e300, 0.0], [1e300, -1e300]],
    ], dtype=complex)
    expected = [False, True, False, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.psd_rows(rows, 0.0).tolist() == expected
        assert [linalg.psd_rows(x, 0.0) for x in rows] == expected
