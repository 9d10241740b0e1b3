"""Tests for typed states, channels, and the random ensembles."""

import math
import warnings

import numpy as np
import pytest
from conftest import (
    count_eig_calls,
    diagonal_state,
    maximally_mixed,
    plus_state,
    random_density,
)

from qfdiv import _seeding, linalg, states, verify
from qfdiv.errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NotAState,
    OutOfRange,
    QfdivError,
    StreamsConsumed,
)
from qfdiv.states import (
    CHANNEL_TOL,
    CONDITION_TOL,
    MAX_INDEX,
    STATE_TOL,
    DensityStack,
    QuantumChannel,
    _anticommutator_certifies,
    abs_condition_holds,
    abs_condition_rows,
    apply_channel_rows,
    completeness_defect,
    ginibre_states,
    random_channel,
    random_pairs,
    substream,
    substreams,
)


# ---------------------------------------------------------------------------
# typed wrappers
# ---------------------------------------------------------------------------


def test_density_matrix_accepts_valid_states():
    rho = plus_state()  # a single state is a one-row stack
    assert rho.mats.shape == (1, 2, 2)
    assert not rho.mats.flags.writeable
    assert float(rho.mats[0].trace().real) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "mat, invariant",
    [
        ([[0.5, 0.5j], [0.5j, 0.5]], "hermiticity"),
        ([[0.5, 0.0], [0.0, 0.4]], "trace"),
        ([[1.5, 0.0], [0.0, -0.5]], "positivity"),
        # (m + m^dag) / 2 overflows on these
        ([[0.5, 1e308], [1e308, 0.5]], "positivity"),
        ([[1e308, 0.0], [0.0, 1e308]], "trace"),
    ],
)
def test_density_matrix_invariants(mat, invariant):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation) as info:
            DensityStack([np.array(mat)])
    assert info.value.invariant == invariant


# the entries are converted before the shape is read, so a bare matrix
# fails as its one-row stack does
@pytest.mark.parametrize("build", [DensityStack, lambda m: DensityStack([m])],
                         ids=["matrix", "stack"])
@pytest.mark.parametrize("mat", ["abc", [["a", 0], [0, 1]], [[0.5, 0.5], [0.5]]])
def test_non_numeric_matrices_raise_a_typed_error(build, mat):
    with pytest.raises(DomainError, match="^entries are not numbers: "):
        build(mat)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, "1e-10"])
@pytest.mark.parametrize("build", [
    lambda tol: DensityStack([np.eye(2) * 5], tol),
    lambda tol: DensityStack([[[1, 0], [0, -3]]], tol),
    lambda tol: DensityStack([[[0.5, 1], [0, 0.5]]], tol),
    lambda tol: DensityStack([np.eye(2) / 2, np.eye(2) * 5], tol),
], ids=["trace", "positivity", "hermiticity", "stack"])
def test_a_tolerance_outside_zero_to_infinity_is_rejected(build, tol):
    # a nan or infinite tolerance would let each of these invalid inputs pass
    with pytest.raises(OutOfRange, match=r"^tolerance must be a real number in \[0, inf\)"):
        build(tol)


def test_a_least_eigenvalue_the_solver_cannot_give_fails_positivity(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.full(m.shape[:-1], np.nan))
    with pytest.raises(InvariantViolation, match="^positivity: min eigenvalue nan$"):
        DensityStack([np.diag([1.5, -0.5])])


def test_quantum_channel_requires_completeness():
    with pytest.raises(InvariantViolation) as info:
        QuantumChannel([np.eye(2) * 0.5])
    assert info.value.invariant == "completeness"
    with pytest.raises(InvariantViolation):
        QuantumChannel([])
    with pytest.raises(DomainError, match="^entries are not finite$"):
        QuantumChannel([np.eye(2) * np.nan])


def _einsum_defect(kraus):
    comp = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    return float(np.max(np.abs(comp - np.eye(kraus.shape[-1]))))


def test_completeness_defect_matches_the_einsum_sum():
    rng = substream(8, 0)
    complete = random_channel(3, k=5, seed=substream(8, 1)).kraus
    # a non-square (k, m, n) family: one complete, one arbitrary
    q, _ = np.linalg.qr(rng.standard_normal((4 * 2, 3))
                        + 1j * rng.standard_normal((4 * 2, 3)))
    isometry = q.reshape(4, 2, 3)
    arbitrary = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    for kraus in (complete, isometry, arbitrary):
        assert abs(completeness_defect(kraus) - _einsum_defect(kraus)) <= 1e-14
    assert completeness_defect(isometry) <= 1e-14
    assert completeness_defect(arbitrary) > 1.0


def test_quantum_channel_rejects_completeness_just_past_its_tolerance():
    QuantumChannel([np.eye(2) * np.sqrt(1.0 + CHANNEL_TOL / 2)])
    with pytest.raises(InvariantViolation) as info:
        QuantumChannel([np.eye(2) * np.sqrt(1.0 + 2 * CHANNEL_TOL)])
    assert info.value.invariant == "completeness"


def test_quantum_channel_accepts_unitary_kraus():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    ch = QuantumChannel([hadamard])
    out = apply_channel_rows(ch.kraus[None], plus_state())
    assert np.allclose(out.mats[0], np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("kraus, error, match", [
    (5, DimensionMismatch, r"^Kraus operators must share one 2-d shape, got \[\(\)\]$"),
    (None, DomainError, "^entries are not numbers: "),
    (2.5, DimensionMismatch, r"^Kraus operators must share one 2-d shape, got \[\(\)\]$"),
], ids=["int", "none", "float"])
def test_quantum_channel_rejects_a_family_that_is_not_a_sequence(kraus, error, match):
    # a family that is not a sequence is read as one operator
    with pytest.raises(error, match=match):
        QuantumChannel(kraus)


def test_quantum_channel_rejects_mixed_shapes():
    with pytest.raises(DimensionMismatch, match=r"got \[\(2, 2\), \(3, 3\)\]$"):
        QuantumChannel([np.eye(2), np.eye(3)])


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_random_density_is_a_valid_state(n):
    rho = random_pairs([substream(1, n)], n)[0]
    assert rho.mats.shape == (1, n, n)
    w = np.linalg.eigvalsh(rho.mats[0])
    assert w[0] >= -1e-12
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


def test_random_density_rank_one_is_pure():
    rho = random_pairs([substream(2, 0)], 4, rank=1)[0].mats[0]
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx(1.0, abs=1e-12)


def test_random_density_respects_requested_rank():
    rho = random_pairs([substream(2, 1)], 5, rank=2)[0]
    w = np.linalg.eigvalsh(rho.mats[0])
    assert np.sum(w > 1e-12) == 2


def test_random_density_rejects_bad_rank():
    with pytest.raises(OutOfRange, match="^rank must be an integer >= 1, got 0$"):
        random_pairs([substream(2, 2)], 3, rank=0)


def test_random_pairs_names_a_bad_size():
    # a float n or rank raised numpy's bare TypeError, and n = 0 raised
    # an error naming the rank
    for n, rank, name in [(1.5, None, "n"), (0, None, "n"), (3, 2.5, "rank")]:
        with pytest.raises(OutOfRange, match=f"^{name} must be an integer >= 1"):
            random_pairs([substream(2, 2)], n, rank)


def test_substream_is_deterministic_and_keyed():
    a = random_density(4, seed=substream(5, 3)).mats
    b = random_density(4, seed=substream(5, 3)).mats
    c = random_density(4, seed=substream(5, 4)).mats
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


ORACLE_INDICES = [*range(300), MAX_INDEX]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 2, 2**32, 2**64 + 3])
@pytest.mark.parametrize("prefix", [(), (4,), (0, 3), (2**33,)])
def test_substreams_match_one_seed_sequence_per_index(seed, prefix):
    words = _seeding.seed_states(seed, prefix, np.array(ORACLE_INDICES, dtype=np.uint32))
    streams = substreams(seed, prefix, ORACLE_INDICES)
    assert len(streams) == len(ORACLE_INDICES)
    rngs = list(streams)
    for b, i in enumerate(ORACLE_INDICES):
        expected = np.random.SeedSequence(seed, spawn_key=(*prefix, i))
        assert np.array_equal(words[b], expected.generate_state(4, np.uint64))
        oracle = substream(seed, *prefix, i)
        assert rngs[b].bit_generator.state == oracle.bit_generator.state
        assert np.array_equal(rngs[b].standard_normal(17), oracle.standard_normal(17))


def test_substreams_are_built_one_at_a_time_and_iterate_once():
    streams = substreams(5, (1,), range(3))
    assert len(streams) == 3
    it = iter(streams)
    first = next(it)
    assert first.standard_normal() == substream(5, 1, 0).standard_normal()
    rest = list(it)
    assert len(rest) == 2 and all(rng is not first for rng in rest)
    # a second pass must not restart the streams and redraw their Gaussians
    for again in (iter, list, lambda s: random_pairs(s, 2)):
        with pytest.raises(StreamsConsumed):
            again(streams)
    assert issubclass(StreamsConsumed, QfdivError)
    assert len(streams) == 3


def test_substreams_reject_what_one_index_word_cannot_hold():
    for indices in ([MAX_INDEX + 1], [-1], [0.5], [np.nan]):
        with pytest.raises(OutOfRange):
            substreams(1, (), indices)
    # numpy holds this list only as Python objects, which the input gate
    # refuses as entries that are not numbers
    with pytest.raises(DomainError):
        substreams(1, (), [0, 2**64 + 3])


@pytest.mark.parametrize("seed, key", [(-1, ()), (3, (-2,)), (3, (0, -1)), (None, (0,))])
def test_substream_and_substreams_reject_negative_seeds_and_keys(seed, key):
    with pytest.raises(OutOfRange):
        substream(seed, *key)
    with pytest.raises(OutOfRange):
        substreams(seed, key, [0, 1])


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 4)])
def test_random_channel_is_trace_preserving(n, k):
    ch = random_channel(n, k=k, seed=substream(6, n, k))
    assert ch.kraus.shape == (k, n, n)
    comp = sum(a.conj().T @ a for a in ch.kraus)
    assert np.max(np.abs(comp - np.eye(n))) <= 1e-9
    rho = random_density(n, seed=substream(6, 99, n, k))
    out = apply_channel_rows(ch.kraus[None], rho)
    assert float(out.mats[0].trace().real) == pytest.approx(1.0, abs=1e-10)


def test_random_channel_names_a_bad_argument():
    # each raised a bare TypeError or ValueError; a seed of None drew unseeded
    for args, kwargs, name in [((2, 1.5), {"seed": 1}, "k"), (("a",), {"seed": 1}, "n"),
                               ((0,), {"seed": 1}, "n"),
                               ((2,), {"seed": -1}, "seed"), ((2,), {"seed": 0.5}, "seed"),
                               ((2,), {"seed": None}, "seed")]:
        with pytest.raises(OutOfRange, match=f"^{name} must be "):
            random_channel(*args, **kwargs)
    # a generator draws on, as dpi_suite relies on
    rng = substream(9, 0)
    first = random_channel(2, seed=rng).kraus
    assert np.array_equal(first, random_channel(2, seed=substream(9, 0)).kraus)
    assert not np.array_equal(random_channel(2, seed=rng).kraus, first)
    assert np.array_equal(random_channel(2, seed=3).kraus, random_channel(2, seed=3).kraus)


def test_single_kraus_channel_is_unitary():
    ch = random_channel(3, k=1, seed=substream(7, 0))
    (u,) = ch.kraus
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) <= 1e-10


def test_apply_channel_checks_dimensions():
    ch = random_channel(2, seed=substream(8, 0))
    rho = random_density(3, seed=substream(8, 1))
    with pytest.raises(DimensionMismatch):
        apply_channel_rows(ch.kraus[None], rho)


# ---------------------------------------------------------------------------
# diagonal embedding and the absolute-value condition
# ---------------------------------------------------------------------------


def _holds(rho, sigma):
    return bool(abs_condition_rows(rho, sigma)[0][0])


def test_abs_condition_holds_for_the_qubit_hand_pair():
    assert _holds(plus_state(), maximally_mixed())


def test_abs_condition_holds_for_any_commuting_pair():
    rng = substream(10)
    for _ in range(25):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert _holds(diagonal_state(p), diagonal_state(q))


def test_abs_condition_fails_for_a_generic_hilbert_schmidt_pair():
    rho = random_density(4, seed=substream(900, 0, 0))
    sigma = random_density(4, seed=substream(900, 0, 1))
    assert not _holds(rho, sigma)


def test_abs_condition_examples_with_frozen_seeds():
    # a square-ensemble pair that does satisfy the condition
    rho = random_density(4, seed=substream(900, 17, 0))
    sigma = random_density(4, seed=substream(900, 17, 1))
    assert _holds(rho, sigma)
    # an environment-doubled pair (rank 2n) drawn closer to the center
    rho = random_density(4, rank=8, seed=substream(901, 0, 0))
    sigma = random_density(4, rank=8, seed=substream(901, 0, 1))
    assert _holds(rho, sigma)


def test_abs_condition_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        _holds(random_density(2, seed=substream(11, 0)),
               random_density(3, seed=substream(11, 1)))


# ---------------------------------------------------------------------------
# stacks of states: a stack gives each row what that row gives alone
# ---------------------------------------------------------------------------


def test_random_pairs_stack_exactly_the_one_at_a_time_draws():
    rho, sigma = random_pairs([substream(12, i) for i in range(6)], 4, rank=8)
    assert rho.mats.shape == sigma.mats.shape == (6, 4, 4)
    for i in range(6):
        rng = substream(12, i)
        one_rho = random_density(4, rank=8, seed=rng)
        one_sigma = random_density(4, rank=8, seed=rng)
        assert np.array_equal(rho.mats[i:i + 1], one_rho.mats)
        assert np.array_equal(sigma.mats[i:i + 1], one_sigma.mats)
        assert np.array_equal(rho.take([i]).spectra, one_rho.spectra)


@pytest.mark.parametrize("n, rank", [(2, 1), (4, 8), (8, 3)])
def test_random_pairs_match_four_explicit_gaussian_draws(n, rank):
    # reference: rho re, rho im, sigma re, sigma im as four separate draws,
    # which is the stream order the single-draw sampler must reproduce
    keys = range(5)
    rngs = [substream(15, n, i) for i in keys]
    rho, sigma = random_pairs(rngs, n, rank)
    factors, after = [], []
    for i in keys:
        rng = substream(15, n, i)
        draws = [rng.standard_normal((n, rank)) for _ in range(4)]
        factors.append([draws[0] + 1j * draws[1], draws[2] + 1j * draws[3]])
        after.append(rng.random())
    factors = np.array(factors)
    want_rho, want_sigma = ginibre_states(factors[:, 0]), ginibre_states(factors[:, 1])
    assert np.array_equal(rho.mats, want_rho.mats)
    assert np.array_equal(sigma.mats, want_sigma.mats)
    assert np.array_equal(rho.spectra, want_rho.spectra)
    assert np.array_equal(sigma.spectra, want_sigma.spectra)
    # the stream continues where four draws leave it (dpi_suite relies on it)
    assert [rng.random() for rng in rngs] == after


def test_density_stack_names_the_lowest_failing_row():
    mats = np.array([np.eye(2) / 2] * 4, dtype=complex)
    mats[3] = np.diag([1.2, -0.2])
    mats[2] = np.diag([0.6, 0.6])
    with pytest.raises(InvariantViolation, match="row 2: ") as info:
        DensityStack(mats)
    assert info.value.invariant == "trace"
    with pytest.raises(InvariantViolation) as info:
        DensityStack(mats[3:])
    assert info.value.invariant == "positivity"
    assert str(info.value).startswith("positivity: min eigenvalue")
    with pytest.raises(DimensionMismatch):
        DensityStack(mats[3])


# ---------------------------------------------------------------------------
# positivity is certified by linalg.psd_rows; the eigensolver runs only
# when a row fails, and spectra are computed where they are read
# ---------------------------------------------------------------------------


def _state_with_least_eigenvalue(low, n=4, seed=0):
    """A dense unit-trace Hermitian matrix whose least eigenvalue is ``low``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    w = np.full(n, (1.0 - low) / (n - 1))
    w[0] = low
    return (u * w) @ u.conj().T


def test_positivity_accepts_half_a_tolerance_below_zero(monkeypatch):
    calls = count_eig_calls(monkeypatch)
    mats = [_state_with_least_eigenvalue(-0.5 * STATE_TOL, seed=k) for k in range(5)]
    DensityStack(mats[:1])
    DensityStack(mats)
    assert sum(calls.values()) == 0


def test_positivity_rejects_twice_the_tolerance_below_zero():
    bad = _state_with_least_eigenvalue(-2.0 * STATE_TOL)
    with pytest.raises(InvariantViolation) as info:
        DensityStack([bad])
    assert str(info.value) == "positivity: min eigenvalue -2.000e-10"
    mats = [_state_with_least_eigenvalue(0.1, seed=k) for k in range(5)]
    mats[3] = bad
    with pytest.raises(InvariantViolation) as info:
        DensityStack(mats)
    assert str(info.value) == "positivity: row 3: min eigenvalue -2.000e-10"


def test_positivity_failure_below_a_hermiticity_failure_is_raised_first():
    mats = np.array([np.eye(2) / 2] * 4, dtype=complex)
    mats[1] = np.diag([1.2, -0.2])
    mats[2] = [[0.5, 0.5j], [0.5j, 0.5]]
    with pytest.raises(InvariantViolation) as info:
        DensityStack(mats)
    assert str(info.value) == "positivity: row 1: min eigenvalue -2.000e-01"
    mats[1] = np.eye(2) / 2
    with pytest.raises(InvariantViolation) as info:
        DensityStack(mats)
    assert info.value.invariant == "hermiticity"


def test_rank_one_state_at_dim_64_passes_without_the_eigensolver(monkeypatch):
    rng = np.random.default_rng(3)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    pure = np.outer(v, v.conj()) / np.vdot(v, v).real
    calls = count_eig_calls(monkeypatch)
    rho = DensityStack([pure])
    assert sum(calls.values()) == 0
    assert rho.spectra[0, -1] == pytest.approx(1.0)
    assert calls == {"eigvalsh": 1}


def test_sampling_runs_no_eigensolver(monkeypatch):
    rngs = [substream(17, i) for i in range(8)]
    calls = count_eig_calls(monkeypatch)
    random_pairs(rngs, 4, rank=8)
    random_pairs([substream(17, 8)], 16, rank=1)
    assert sum(calls.values()) == 0


def test_spectra_are_computed_once_and_read_only(monkeypatch):
    rho, _ = random_pairs([substream(18, i) for i in range(6)], 4)
    calls = count_eig_calls(monkeypatch)
    spectra = rho.spectra
    assert rho.spectra is spectra
    row = rho.take(slice(2, 3))  # passes on the stack's row
    assert np.shares_memory(row.spectra, spectra)
    assert calls == {"eigvalsh": 1}
    assert not spectra.flags.writeable
    assert not row.spectra.flags.writeable
    with pytest.raises(AttributeError):
        rho.spectra = spectra
    with pytest.raises(AttributeError):
        row.spectra = spectra[:1]


def test_state_carriers_neither_alias_nor_freeze_their_input():
    rho, _ = random_pairs([substream(20, i) for i in range(3)], 3)
    arr = np.array(rho.mats)
    arr[:, 0, 1] += 1e-13  # within STATE_TOL, so symmetrizing changes it
    before = arr.copy()
    stack, one = DensityStack(arr), DensityStack(arr[1:2])
    for mats, given in ((stack.mats, arr), (one.mats, arr[1:2])):
        assert not np.shares_memory(mats, arr)
        assert not mats.flags.writeable
        assert not np.array_equal(mats, given)
    assert arr.dtype == np.complex128 and arr.flags.writeable
    assert np.array_equal(arr, before)


def test_selected_rows_stay_checked_and_keep_their_spectra(monkeypatch):
    # take and concatenate wrap rows that were checked already:
    # no second check runs, and the selected rows are read-only
    rho, sigma = random_pairs([substream(23, i) for i in range(6)], 3)
    wide = DensityStack(rho.mats, tol=1e-9)
    spectra = rho.spectra
    checks = []
    monkeypatch.setattr(states, "_check_states", lambda *args: checks.append(args))
    picked = rho.take([4, 1])
    joined = DensityStack.concatenate(
        [picked, sigma.take(np.arange(6) < 2), wide.take(slice(5, 6))])
    one = rho.take(slice(3, 4))
    assert checks == []
    assert np.array_equal(picked.mats, rho.mats[[4, 1]])
    assert np.array_equal(picked.spectra, spectra[[4, 1]]) and picked.tol == STATE_TOL
    assert np.array_equal(joined.mats, np.concatenate([rho.mats[[4, 1]], sigma.mats[:2],
                                                       rho.mats[5:]]))
    assert joined.tol == 1e-9
    assert np.array_equal(one.mats, rho.mats[3:4]) and np.array_equal(one.spectra, spectra[3:4])
    for stack in (picked, joined, one):
        assert not stack.mats.flags.writeable and not stack.spectra.flags.writeable


def test_take_keeps_cached_eig_rows_bit_identical_to_a_fresh_eig(monkeypatch):
    # eig is computed once, read-only, and never stands in for spectra;
    # take hands its rows on with no eigensolver call, with the bits that a
    # fresh hermitian_eig of the taken rows gives
    rho, _ = random_pairs([substream(24, i) for i in range(256)], 5, rank=10)
    calls = count_eig_calls(monkeypatch)
    eig = rho.eig
    assert rho.eig is eig and calls == {"eigh": 1}
    assert not eig.eigenvalues.flags.writeable and not eig.vectors.flags.writeable
    picks = [[7, 3, 200], slice(10, 20), np.arange(256) % 3 == 0]
    taken = [rho.take(rows) for rows in picks]
    for stack in taken:
        assert stack.eig.vectors.shape == stack.mats.shape  # kept, not computed
    assert calls == {"eigh": 1}
    assert rho.spectra.shape == (256, 5)
    assert calls == {"eigh": 1, "eigvalsh": 1}
    for rows, stack in zip(picks, taken):
        fresh = linalg.hermitian_eig(rho.mats[rows])
        assert np.array_equal(stack.eig.eigenvalues, fresh.eigenvalues)
        assert np.array_equal(stack.eig.vectors, fresh.vectors)
        assert not stack.eig.eigenvalues.flags.writeable
        assert not stack.eig.vectors.flags.writeable


def test_row_spectra_match_the_stack_and_a_fresh_state():
    rho, _ = random_pairs([substream(19, i) for i in range(256)], 5, rank=10)
    before = [rho.take(slice(i, i + 1)).spectra for i in range(256)]  # each its own
    for i in range(256):
        fresh = DensityStack(rho.mats[i:i + 1]).spectra
        assert np.array_equal(before[i], rho.spectra[i:i + 1])
        assert np.array_equal(rho.take(slice(i, i + 1)).spectra, rho.spectra[i:i + 1])
        assert np.array_equal(fresh, rho.spectra[i:i + 1])


def test_abs_condition_rows_agree_with_the_single_pair_test():
    rho, sigma = random_pairs([substream(13, i) for i in range(40)], 4)
    holds, t = abs_condition_rows(rho, sigma)
    assert 0 < holds.sum() < 40  # both outcomes occur in the square ensemble
    for i in range(40):
        one = slice(i, i + 1)
        assert holds[i] == abs_condition_rows(rho.take(one), sigma.take(one))[0][0]
        # the sum of 4 eigenvalues, each within the 1e-14 the spectra were held to
        assert np.allclose(t[i], np.abs(np.linalg.eigvalsh(rho.mats[i] - sigma.mats[i])).sum(),
                           atol=4e-14)


def test_abs_condition_rows_rejects_a_shape_mismatch():
    pair = [DensityStack(np.eye(n)[None] / n) for n in (2, 3)]
    for test in (abs_condition_rows, abs_condition_holds):
        with pytest.raises(DimensionMismatch, match=r"shapes \(1, 2, 2\) and \(1, 3, 3\)"):
            test(*pair)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_the_anticommutator_certifies_only_rows_the_exact_test_accepts(n):
    # ranks 1 (pure), n (Hilbert-Schmidt) and 2n (environment-doubled), and
    # commuting pairs, on which rho sigma + sigma rho = 2 rho sigma
    stacks = [random_pairs(substreams(71, (n, rank), range(256)), n, rank)
              for rank in (1, n, 2 * n)]
    stacks.append(verify._random_commuting_pairs(substreams(72, (n,), range(256)), n))
    certified_rows = 0
    for rho, sigma in stacks:
        exact, _ = abs_condition_rows(rho, sigma)
        certified = _anticommutator_certifies(rho.mats, sigma.mats)
        assert not (certified & ~exact).any()
        assert np.array_equal(abs_condition_holds(rho, sigma), exact)
        certified_rows += int(certified.sum())
    assert certified_rows >= 256


def _least_slack(rho, sigma):
    """Least eigenvalue of rho + sigma - |rho - sigma|, row by row."""
    w, v = np.linalg.eigh(rho - sigma)
    gap = (v * np.abs(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return np.linalg.eigvalsh(rho + sigma - gap)[..., 0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_anticommutator_certifies_no_row_at_the_condition_boundary(n):
    # Mixing a pair with the maximally mixed state, rho_s = s rho + (1 - s) I/n,
    # scales rho - sigma by s, so the slack rho + sigma - |rho - sigma| is
    # s slack + 2 (1 - s) I/n and its least eigenvalue is linear in s: each
    # failing pair is mixed so that it reads -CONDITION_TOL (1 -+ 1e-3).
    # The true slack stays negative, so no row may be certified.
    rho, sigma = random_pairs(substreams(73, (n,), range(64)), n)
    low = _least_slack(rho.mats, sigma.mats)
    failing = low < -0.1
    assert failing.sum() >= 8
    eye = np.eye(n) / n
    for side, verdict in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
        target = -side * CONDITION_TOL
        s = ((target - 2.0 / n) / (low[failing] - 2.0 / n))[:, None, None]
        mixed = [DensityStack(s * m[failing] + (1.0 - s) * eye)
                 for m in (rho.mats, sigma.mats)]
        reached = _least_slack(*(x.mats for x in mixed))
        assert np.allclose(reached, target, rtol=1e-5, atol=0.0)
        assert not _anticommutator_certifies(*(x.mats for x in mixed)).any()
        exact, _ = abs_condition_rows(*mixed)
        assert exact.tolist() == [verdict] * len(exact)
        assert np.array_equal(abs_condition_holds(*mixed), exact)


def test_apply_channel_rows_checks_at_the_tolerance_of_its_states():
    # a witness-style state, normalized only to 5e-10
    rho = DensityStack(np.diag([0.5, 0.5 + 5e-10])[None], 1e-9)
    ch = random_channel(2, seed=substream(14))
    assert apply_channel_rows(ch.kraus[None], rho).tol == 1e-9
    # a Kraus stack 5e-10 short of complete takes an exact state as far
    # from unit trace, within 1e-9 and not within STATE_TOL
    short = np.sqrt(1.0 - 5e-10) * np.eye(2)[None, None]
    assert apply_channel_rows(short, DensityStack(np.eye(2)[None] / 2, 1e-9)).tol == 1e-9
    with pytest.raises(InvariantViolation, match="^trace: "):
        apply_channel_rows(short, DensityStack(np.eye(2)[None] / 2))


def test_apply_channel_rows_takes_a_state_stack_only():
    kraus = np.eye(2)[None, None]
    with pytest.raises(NotAState, match="^rho must be a DensityStack, got ndarray$"):
        apply_channel_rows(kraus, np.eye(2)[None] / 2)
    with pytest.raises(NotAState, match="^rho must be a DensityStack, got list$"):
        apply_channel_rows(kraus, [DensityStack([np.eye(2) / 2])])


def _three_rows():
    return random_pairs([substream(25, i) for i in range(3)], 3)[0]


@pytest.mark.parametrize("select, error, match", [
    (lambda s: s.take([7]), OutOfRange, "index 7 "),
    (lambda s: s.take([-4]), OutOfRange, "index -4 "),
    (lambda s: s.take(np.array([True, False])), OutOfRange, "boolean axis is 2"),
    (lambda s: s.take([0.5]), OutOfRange, r"rows \[0.5\]"),
    (lambda s: DensityStack.concatenate([]), DimensionMismatch, r"shapes \[\]"),
    (lambda s: DensityStack.concatenate(
        [s, random_pairs([substream(25, 3)], 4)[0]]), DimensionMismatch,
     r"shapes \[\(3, 3, 3\), \(1, 4, 4\)\]"),
    # selections that index the stack but give no (B', n, n) stack
    (lambda s: s.take(np.array([[0, 1]])), OutOfRange, r"select shape \(1, 2, 3, 3\), not a stack"),
    (lambda s: s.take((0, 1)), OutOfRange, r"select shape \(3,\), not a stack"),
    (lambda s: s.take(None), OutOfRange, r"select shape \(1, 3, 3, 3\), not a stack"),
    (lambda s: s.take(0), OutOfRange, r"select shape \(3, 3\), not a stack"),
    (lambda s: DensityStack.concatenate([np.eye(2) / 2]), NotAState,
     r"^stacks\[0\] must be a DensityStack, got ndarray$"),
    (lambda s: DensityStack.concatenate([s, s.mats]), NotAState,
     r"^stacks\[1\] must be a DensityStack, got ndarray$"),
    (lambda s: DensityStack.concatenate(5), NotAState, "^stacks must be a list, got int$"),
    (lambda s: DensityStack.concatenate(s), NotAState, "^stacks must be a list, got DensityStack$"),
], ids=["take-past-the-end", "take-before-the-start", "take-short-mask", "take-float", "concatenate-nothing",
        "concatenate-n3-with-n4", "take-2d-index", "take-tuple", "take-none", "take-int",
        "concatenate-an-array", "concatenate-a-stack-and-an-array", "concatenate-an-int",
        "concatenate-one-stack"])
def test_row_selection_raises_typed_errors_naming_the_index_or_shapes(select, error, match):
    with pytest.raises(error, match=match):
        select(_three_rows())
