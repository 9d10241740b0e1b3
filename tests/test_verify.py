"""Tests for the seeded Monte Carlo verification suites."""

import gc

import numpy as np
import pytest
from conftest import count_eig_calls

from qfdiv import cli, maximal, states, verify
from qfdiv.bounds import EQUAL_STATES_EPS, binette_rhs
from qfdiv.divergence import f_div_rows
from qfdiv.errors import OutOfRange
from qfdiv.generators import builtin_generator
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.states import (
    QuantumChannel,
    abs_condition_holds,
    chunks,
    random_pairs,
    substream,
)
from qfdiv.verify import (
    _random_commuting_pairs,
    condition_rate,
    dpi_suite,
    maximality_and_pinsker,
    operator_jensen_suite,
    reverse_pinsker_and_binette,
    trace_identity_suite,
    witness_suite,
    zeta1_suite,
)

KL = builtin_generator("kl")
CHI2 = builtin_generator("chi2")
TV = builtin_generator("tv")


def _count_witness_builds(monkeypatch):
    calls = []
    real = maximal.witness_batch

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "witness_batch", counting)
    return calls


def test_witness_suite_builds_one_witness_per_stack(monkeypatch):
    # the residual report reads the stack's one witness batch, and its chi2
    # reference reads sigma's cached eig; 300 pairs are one stack at dim 3
    # and stacks of 256 and 44 at dim 8, each with the eigh of sigma and of
    # T and the eigvalsh of the two reconstruction errors
    calls = _count_witness_builds(monkeypatch)
    eig = count_eig_calls(monkeypatch)
    witness_suite(dims=(3, 8), pairs_per_dim=300, seed=42)
    stacks = [len(indices) for n in (3, 8) for indices in chunks(300, n)]
    assert stacks == [300, 256, 44]
    assert [len(rho.mats) for rho, _ in calls] == stacks
    assert eig == {"eigh": 2 * len(calls), "eigvalsh": 2 * len(calls)}


def test_witness_suite_fails_when_the_witness_divergence_is_off(monkeypatch):
    # a relative fault of 1e-7 in the witness's D_f shows in chi2_match,
    # whose reference tr(rho sigma^-1 rho) - 1 does not read the witness
    real = maximal.WitnessBatch.f_divergence
    assert witness_suite(dims=(4,), pairs_per_dim=20, seed=42).passed
    monkeypatch.setattr(maximal.WitnessBatch, "f_divergence",
                        lambda self, f: real(self, f) * (1.0 + 1e-7))
    result = witness_suite(dims=(4,), pairs_per_dim=20, seed=42)
    assert not result.passed
    assert result.worst > 1e-8


def test_dpi_suite_builds_each_distinct_pair_once(monkeypatch):
    # (rho, sigma), the channel outputs, (diag r, diag s) and its recovery
    calls = _count_witness_builds(monkeypatch)
    result = dpi_suite(dim=8, trials=300, seed=42)
    assert result.extras["skipped"] == 0
    stacks = [len(indices) for indices in chunks(300, 8)]
    assert stacks == [256, 44]
    assert [len(rho.mats) for rho, _ in calls] == [rows for rows in stacks for _ in range(4)]


def test_dpi_suite_diagonalizes_each_sigma_stack_once(monkeypatch):
    # per stack of trials: the eig of sigma and of Phi sigma, which the
    # singular skip reads and the first two witnesses take with their rows,
    # T of those two witnesses, and sigma and T of the last two; no eigvalsh.
    # 1000 trials are one stack at dim 4, and 300 two at dim 8
    for dim, trials, stacks in ((4, 1000, 1), (8, 300, 2)):
        assert len(chunks(trials, dim)) == stacks
        calls = count_eig_calls(monkeypatch)
        dpi_suite(dim=dim, trials=trials, seed=42)
        assert calls == {"eigh": 8 * stacks}


def _reset_channel(dim, seed):
    # every Kraus operator |0><k| maps each state to |0><0|
    kraus = np.zeros((dim, dim, dim), dtype=complex)
    kraus[np.arange(dim), 0, np.arange(dim)] = 1.0
    return QuantumChannel(kraus)


def test_dpi_suite_skips_trials_whose_channel_output_is_singular(monkeypatch):
    # Phi sigma is singular, so no trial reaches the equality check
    monkeypatch.setattr(verify, "random_channel", _reset_channel)
    result = dpi_suite(dim=3, trials=4, seed=42)
    assert result.extras["skipped"] == 4
    assert result.worst == 0.0
    assert result.extras["equality_worst"] == 0.0


def test_dpi_suite_skips_only_the_singular_rows_of_a_stack(monkeypatch):
    # the reset channel on odd calls only: those trials are skipped and the
    # even ones still reach all four witness builds
    real = verify.random_channel
    calls = []

    def every_other(dim, seed):
        calls.append(dim)
        return (_reset_channel if len(calls) % 2 == 0 else real)(dim, seed=seed)

    monkeypatch.setattr(verify, "random_channel", every_other)
    builds = _count_witness_builds(monkeypatch)
    result = dpi_suite(dim=3, trials=7, seed=42)
    assert result.extras["skipped"] == 3
    rho, sigma = random_pairs([substream(42, i) for i in range(7)], 3)
    assert np.array_equal(builds[0][0].mats, rho.mats[0::2])
    assert np.array_equal(builds[0][1].mats, sigma.mats[0::2])
    assert [len(r.mats) for r, _ in builds] == [4] * 4
    assert 0.0 < result.extras["equality_worst"] <= 1e-9
    assert result.passed


@pytest.mark.parametrize("run", [maximality_and_pinsker, reverse_pinsker_and_binette],
                         ids=lambda run: run.__name__)
def test_stacked_passes_build_one_witness_batch_per_chunk(monkeypatch, run):
    # at dim 8, 600 samples are three stacks of at most 256 pairs
    calls = _count_witness_builds(monkeypatch)
    run(dim=8, samples=600, seed=42)
    stacks = [len(indices) for indices in chunks(600, 8)]
    assert stacks == [256, 256, 88]
    assert [len(rho.mats) for rho, _ in calls] == stacks


def _worst_and_extras(*results):
    return [(r.worst, r.extras) for r in results]


def _fig2_csv(out):
    assert cli.main(["fig2", "--samples", "200", "--out", str(out)]) == 0
    return (out / "fig2.csv").read_bytes()


# each run reads a value of every sampled stack
STACKED_RUNS = {
    "condition_rate": lambda out: [
        condition_rate(dim=n, samples=300, seed=42, commuting=False).rate for n in (2, 4, 8)],
    "fig2": _fig2_csv,
    "witness_suite": lambda out: _worst_and_extras(
        witness_suite(dims=(2, 4, 8), pairs_per_dim=40, seed=42)),
    "dpi_suite": lambda out: _worst_and_extras(dpi_suite(dim=4, trials=40, seed=42)),
    "maximality_and_pinsker": lambda out: _worst_and_extras(
        *maximality_and_pinsker(dim=4, samples=100, seed=42)),
    "reverse_pinsker_and_binette": lambda out: _worst_and_extras(
        *reverse_pinsker_and_binette(dim=4, samples=100, seed=42)),
}


@pytest.mark.parametrize("run", STACKED_RUNS.values(), ids=STACKED_RUNS)
def test_the_stack_size_moves_no_value(tmp_path, monkeypatch, run):
    # every stacked operation works row by row, so stacks of 7 rows at dim
    # 4 (28 at dim 2, 1 at dim 8) give the default run's values bit for bit
    default = run(tmp_path / "default")
    monkeypatch.setattr(states, "CHUNK_ENTRIES", 7 * 4 * 4)
    assert [len(indices) for n in (2, 4, 8) for indices in chunks(30, n)] == (
        [28, 2] + [7, 7, 7, 7, 2] + [1] * 30)
    assert run(tmp_path / "small") == default


def test_stacked_passes_are_pinned_at_seed_42():
    # reverse_pinsker_and_binette gives the values of the one-pair-at-a-time
    # suite, bit for bit; the stacked witness and dpi suites reconstruct
    # V(diag r) as C diag(lambda) C^dag, which moves their rounding-level
    # residuals in the last digits.  The maximality worst was 5.7e-12 while
    # its chi2 reference went through tr(T^2 sigma); read from rho in
    # sigma's eigenbasis it is 2.7e-14
    assert witness_suite(dims=(2, 3, 4, 8), pairs_per_dim=100, seed=42).worst == (
        3.2744860600553934e-13)
    dpi = dpi_suite(dim=4, trials=1000, seed=42)
    assert dpi.worst == 0.0
    assert dpi.extras == {
        "equality_worst": 6.146087801989867e-12,
        "skipped": 0,
        "tv_increase_rate": 0.0,
    }
    maximality, pinsker = maximality_and_pinsker(dim=4, samples=1000, seed=42)
    assert maximality.worst == 2.6534762382092816e-14
    assert pinsker.worst == 0.0
    reverse, binette = reverse_pinsker_and_binette(dim=4, samples=1000, seed=42)
    assert reverse.worst == 0.11700883357355885
    assert reverse.extras == {
        "condition_met": 814,
        "witness_form_worst": 4.440892098500626e-16,
        "relent_form_worst": -0.023791067451230774,
        "violations_kl": 11,
        "violations_chi2": 35,
        "violations_tv": 814,
    }
    assert binette.name == "witness-binette"
    assert binette.worst == 4.440892098500626e-16
    assert binette.extras == {"skipped": 0}


def test_witness_suite_passes():
    result = witness_suite(dims=(2, 3, 4), pairs_per_dim=15, seed=42)
    assert result.name == "witness"
    assert result.passed
    assert result.worst <= 1e-9


def test_dpi_suite_passes_with_equality_through_recovery_channel():
    result = dpi_suite(dim=4, trials=25, seed=42)
    assert result.name == "dpi"
    assert result.passed
    assert result.extras["equality_worst"] <= 1e-9
    assert 0.0 <= result.extras["tv_increase_rate"] <= 1.0


def test_maximality_suite_passes():
    result, _ = maximality_and_pinsker(dim=4, samples=100, seed=42)
    assert result.name == "maximality"
    assert result.passed


def test_pinsker_suite_passes():
    _, result = maximality_and_pinsker(dim=4, samples=100, seed=42)
    assert result.name == "pinsker"
    assert result.passed


def test_reverse_pinsker_trace_distance_suite_fails_as_documented():
    # The trace-distance form of the reverse-Pinsker bound for the maximal
    # divergence is false on condition-satisfying non-commuting pairs; the
    # suite exists to measure the violation.  The two forms it carries that
    # are theorems (witness total variation, and trace distance for the
    # Umegaki relative entropy) must hold.
    result, _ = reverse_pinsker_and_binette(dim=4, samples=100, seed=42)
    assert result.name == "reverse-pinsker"
    assert not result.passed
    assert result.worst > result.tol
    assert result.extras["condition_met"] > 0
    assert result.extras["violations_tv"] > 0
    assert result.extras["witness_form_worst"] <= 1e-9
    assert result.extras["relent_form_worst"] <= 1e-8


def _witness_form_gaps(samples, seed):
    """Per pair of the reverse-pinsker ensemble, one at a time: the largest
    witness-form gap D_f(r||s) - binette_rhs(m, M, ||r - s||_1, f) over kl,
    chi2 and tv, or -inf for a pair the suite leaves out."""
    gaps = np.full(samples, -np.inf)
    for i in range(samples):
        rho, sigma = random_pairs([substream(seed, i)], 4, 8)
        w = maximal.witness_batch(rho, sigma)
        m, big_m = w.lambdas[0, 0], w.lambdas[0, -1]
        if (trace_norm_hermitian(rho.mats[0] - sigma.mats[0]) < EQUAL_STATES_EPS
                or not m < 1.0 < big_m):
            continue
        rs_l1 = np.abs(w.r[0] - w.s[0]).sum()
        gaps[i] = max(w.f_divergence(f)[0] - binette_rhs(m, big_m, rs_l1, f)
                      for f in (KL, CHI2, TV))
    return gaps


def test_witness_form_worst_is_the_largest_gap_of_every_pair():
    # The gap sits at rounding level on many pairs (tv is tight), so the
    # seed-42 maximum 2.2e-16 is reached at row 1 and at several later rows:
    # the 4-sample run is the one that notices a stack whose first rows
    # are skipped.
    gaps = _witness_form_gaps(300, seed=42)
    for samples in (4, 300):
        result, _ = reverse_pinsker_and_binette(dim=4, samples=samples, seed=42)
        want = max(0.0, float(gaps[:samples].max()))
        assert result.extras["witness_form_worst"] == want, samples
    assert gaps[:4].max() > 0.0


def test_reverse_pinsker_suite_is_deterministic():
    a, _ = reverse_pinsker_and_binette(dim=4, samples=50, seed=42)
    b, _ = reverse_pinsker_and_binette(dim=4, samples=50, seed=42)
    assert a.worst == b.worst
    assert a.extras == b.extras


def test_witness_binette_suite_passes():
    _, result = reverse_pinsker_and_binette(dim=4, samples=200, seed=42)
    assert result.name == "witness-binette"
    assert result.passed
    assert result.worst <= 1e-9


def test_zeta1_suite_passes_on_default_grids():
    result = zeta1_suite()
    assert result.name == "zeta1"
    assert result.passed
    assert result.worst <= 1e-7


def test_trace_identity_suite_passes():
    result = trace_identity_suite(trials=100, seed=42)
    assert result.name == "trace-identity"
    assert result.passed


def test_operator_jensen_suite_passes():
    result = operator_jensen_suite(trials=60, seed=42)
    assert result.name == "operator-jensen"
    assert result.passed


def test_condition_rate_is_one_for_commuting_pairs():
    result = condition_rate(dim=4, samples=200, seed=42, commuting=True)
    assert result.rate == 1.0
    assert result.passed


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_commuting_pairs_match_two_dirichlet_draws(dim):
    rngs = [substream(16, dim, i) for i in range(20)]
    rho, sigma = _random_commuting_pairs(rngs, dim)
    for i, rng in enumerate(rngs):
        again = substream(16, dim, i)
        p = again.dirichlet(np.ones(dim))
        q = again.dirichlet(np.ones(dim))
        assert np.array_equal(rho.mats[i], np.diag(p).astype(complex))
        assert np.array_equal(sigma.mats[i], np.diag(q).astype(complex))
        assert rng.random() == again.random()


def test_condition_rate_rejects_a_bad_dimension_or_sample_count():
    # dim = 1.5 raised numpy's bare TypeError; samples = -1 gave rate -0.0
    # and samples = 0 rate 0.0
    for commuting in (False, True):
        with pytest.raises(OutOfRange, match="^dim must be an integer >= 1, got 1.5$"):
            condition_rate(dim=1.5, samples=10, seed=42, commuting=commuting)
    for samples in (-1, 0):
        with pytest.raises(OutOfRange, match=f"^samples must be an integer >= 1, got {samples}$"):
            condition_rate(dim=4, samples=samples, seed=42, commuting=False)


def test_condition_rate_exceeds_eighty_percent_for_environment_doubled():
    result = condition_rate(dim=4, samples=500, seed=42, commuting=False)
    assert result.environment == 8
    assert result.rate > 0.80
    assert result.passed


def test_condition_rate_is_rare_for_square_hilbert_schmidt():
    rho, sigma = random_pairs([substream(42, i) for i in range(300)], 4, rank=4)
    rate = np.count_nonzero(abs_condition_holds(rho, sigma)) / 300
    assert rate < 0.20


@pytest.mark.parametrize("f", [KL, CHI2, TV], ids=lambda f: f.name)
def test_binette_bound_is_numerically_sharp(f):
    # The extremal ternary pair q = (a, 1-a-c, c), p = (m a, 1-a-c, M c)
    # with (1-m) a = (M-1) c = t/2 has total variation t and likelihood
    # ratios m, 1, M, and attains the bound exactly.
    t = 0.4
    for m, M in ((0.5, 2.0), (0.1, 10.0), (0.0, 3.0)):
        a = t / (2.0 * (1.0 - m))
        c = t / (2.0 * (M - 1.0))
        assert a + c < 1.0
        q = np.array([a, 1.0 - a - c, c])
        p = np.array([m * a, 1.0 - a - c, M * c])
        div = f_div_rows(p[None], q[None], f)[0]
        rhs = binette_rhs(m, M, float(np.abs(p - q).sum()), f)
        assert div / rhs == pytest.approx(1.0, rel=0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_condition_rate_starts_no_garbage_collection_per_chunk(seed):
    # a chunk's generators are built one at a time, so sampling 4 chunks
    # leaves too few live objects to pass the collector's threshold
    assert gc.isenabled()
    starts = []
    stacks = chunks(4096, 4)
    assert len(stacks) == 4

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    condition_rate(dim=4, samples=len(stacks[0]), seed=seed, commuting=False)  # first-call imports
    gc.collect()
    gc.callbacks.append(count)
    try:
        condition_rate(dim=4, samples=4096, seed=seed, commuting=False)
    finally:
        gc.callbacks.remove(count)
    assert len(starts) <= 1, starts


def test_condition_rate_runs_one_eigensolver_per_stack(monkeypatch):
    # the eigh of rho - sigma in the exact condition test, which decides its
    # verdict by Cholesky, on only the rows the anticommutator leaves open;
    # the state checks factor by Cholesky too and read no spectrum
    calls = count_eig_calls(monkeypatch)
    rows = []
    counted = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        rows.append(len(a))
        return counted(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    condition_rate(dim=4, samples=256, seed=42, commuting=False)
    assert calls == {"eigh": 1}
    assert rows[0] < 0.4 * 256


def test_condition_rate_builds_its_states_without_an_eigensolver(monkeypatch):
    calls = count_eig_calls(monkeypatch)
    during = []

    def building(*args):
        before = sum(calls.values())
        pair = random_pairs(*args)
        during.append(sum(calls.values()) - before)
        return pair

    monkeypatch.setattr(verify, "random_pairs", building)
    condition_rate(dim=8, samples=600, seed=42, commuting=False)
    assert during == [0] * len(chunks(600, 8)) == [0, 0, 0]


@pytest.mark.parametrize("samples, rate", [(1000, 0.814), (10000, 0.805)])
def test_condition_rate_is_pinned_at_seed_42(samples, rate):
    # seed-42 rates: stacking the draws must not change any verdict
    assert condition_rate(dim=4, samples=samples, seed=42, commuting=False).rate == rate
