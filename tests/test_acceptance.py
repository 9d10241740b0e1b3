"""Acceptance gate: twelve numbered criteria, one test per criterion.

``pytest -v tests/test_acceptance.py`` emits exactly one pass/fail line per
criterion; each test also prints an explicit ``[criterion NN]`` line with the
measured numbers (visible with ``-s`` and in failure reports).

Two criteria assert the reverse-Pinsker facts that are theorems and report,
without asserting, two measured facts next to them:

* criterion 07 asserts Binette's bound on the witness pair (total variation
  ||r - s||_1) and the trace-distance form for the Umegaki relative entropy.
  It reports the violation counts of the trace-distance form for the
  maximal divergence, which is false on condition-satisfying non-commuting
  pairs because ||r - s||_1 > ||rho - sigma||_1 there;
* criterion 09 asserts that both figure-2 bounds lie above the relative
  entropy and that the reverse-Pinsker kl bound is strictly below the
  Audenaert-Eisert bound somewhere.  It reports how many scatter points sit
  above the diagonal; none has been measured, and whether any can is open.

Target runtime for the whole file is well under five minutes.
"""

import math
import time
import warnings

import numpy as np
from conftest import (
    audenaert_eisert,
    maximally_mixed,
    plus_state,
    quantum_chi2,
    random_density,
    reverse_pinsker,
)

from qfdiv.bounds import audenaert_eisert_rows, decoherence_bounds, pinsker_chi2_lower
from qfdiv.cli import main as cli_main
from qfdiv.divergence import relative_entropy_rows
from qfdiv.generators import builtin_generator
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.maximal import witness_batch
from qfdiv.states import chunks, random_pairs, substream, substreams
from qfdiv.verify import (
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


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} - {label}{suffix}")


def test_criterion_01_witness_identity():
    # 10^3 random pairs per dim in {2, 3, 4, 8}, one witness report per
    # pair: normalization, channel-reconstruction, Kraus-completeness and
    # chi2-match (witness against tr(rho sigma^-1 rho) - 1) residuals
    # <= 1e-9, < 30 s.
    start = time.monotonic()
    result = witness_suite(dims=(2, 3, 4, 8), pairs_per_dim=1000, seed=42)
    elapsed = time.monotonic() - start
    ok = result.worst <= 1e-9 and elapsed < 30.0
    _report(
        1,
        "witness identity and reconstruction",
        ok,
        f"worst residual {result.worst:.3e}, {elapsed:.1f}s",
    )
    assert result.worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_02_chi2_coincidence():
    # the maximal divergence for f(x) = x^2 - 1 must equal the standard
    # quantum chi-squared divergence: 10^3 random 4x4 pairs, <= 1e-9.
    worst = 0.0
    for i in range(1000):
        rho = random_density(4, seed=substream(42, i, 0))
        sigma = random_density(4, seed=substream(42, i, 1))
        gap = abs(witness_batch(rho, sigma).f_divergence(CHI2)[0] - quantum_chi2(rho, sigma))
        worst = max(worst, gap)
    _report(2, "chi-squared coincidence", worst <= 1e-9, f"worst {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_03_data_processing():
    # 10^3 (pair, random channel) draws: no increase beyond 1e-8 for kl and
    # chi2; equality through the witness recovery channel within 1e-9
    # (relative to the divergence magnitude, floored at 1).
    result = dpi_suite(dim=4, trials=1000, seed=42)
    eq = result.extras["equality_worst"]
    ok = result.worst <= 1e-8 and eq <= 1e-9
    _report(
        3,
        "data processing and recovery equality",
        ok,
        f"worst increase {result.worst:.3e}, equality residual {eq:.3e}",
    )
    assert result.worst <= 1e-8
    assert eq <= 1e-9


def test_criterion_04_maximality():
    # 10^4 pairs at n = 4: relative entropy never exceeds the maximal kl
    # divergence and trace distance never exceeds the maximal tv divergence,
    # no violation beyond 1e-8 (the suite also carries the chi-squared
    # identity residual, measured relative to its magnitude).
    result, _ = maximality_and_pinsker(dim=4, samples=10000, seed=42)
    _report(4, "maximality over standard divergences", result.worst <= 1e-8,
            f"worst {result.worst:.3e}")
    assert result.worst <= 1e-8


def test_criterion_05_improved_pinsker():
    # chi-squared >= envelope(trace distance) with zero violations over
    # 10^4 random 4x4 pairs; the hand case has chi2 = 1 = T^2 exactly.
    _, result = maximality_and_pinsker(dim=4, samples=10000, seed=42)
    rho, sigma = plus_state(), maximally_mixed()
    lhs = pinsker_chi2_lower(trace_norm_hermitian(rho.mats[0] - sigma.mats[0]))
    hand = max(abs(lhs - 1.0), abs(quantum_chi2(rho, sigma) - 1.0))
    ok = result.worst <= 1e-10 and hand <= 1e-10
    _report(
        5,
        "improved Pinsker lower envelope",
        ok,
        f"worst violation {result.worst:.3e}, hand-case residual {hand:.3e}",
    )
    assert result.worst <= 1e-10
    assert hand <= 1e-10


def test_criterion_06_decoherence_envelopes(tmp_path):
    # fig1 CSV: improved <= classical row-wise; the (chi2_0 = 4, t = 0) row
    # equals (2, 1.6) within 1e-12; branch continuity at the crossover
    # within 1e-8 (default decay rate 0.1).
    code = cli_main(["fig1", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "fig1.csv").read_text().splitlines()
    assert rows[0] == "t,chi2_0,temme_bound,improved_bound"
    hand = None
    for row in rows[1:]:
        t, chi0, temme, improved = (float(x) for x in row.split(","))
        assert improved <= temme + 1e-12
        if t == 0.0 and chi0 == 4.0:
            hand = (temme, improved)
    assert hand is not None
    assert abs(hand[0] - 2.0) <= 1e-12 and abs(hand[1] - 1.6) <= 1e-12
    t_star = math.log(4.0) / 0.1
    _, before = decoherence_bounds(4.0, 0.1, t_star - 1e-9)
    _, after = decoherence_bounds(4.0, 0.1, t_star + 1e-9)
    jump = abs(before - after)
    ok = jump <= 1e-8
    _report(
        6,
        "decoherence decay envelopes",
        ok,
        f"hand row ({hand[0]:.12g}, {hand[1]:.12g}), crossover jump {jump:.1e}",
    )
    assert jump <= 1e-8


def test_criterion_07_reverse_pinsker():
    # Equality cases hold: for the pure-vs-mixed qubit pair both sides equal
    # ln 2 (kl) and 1 (chi2) within 1e-10.
    for f, expected in ((KL, math.log(2.0)), (CHI2, 1.0)):
        rep = reverse_pinsker(plus_state(), maximally_mixed(), f)
        assert abs(rep.lhs - expected) <= 1e-10
        assert abs(rep.rhs - expected) <= 1e-10
        assert rep.condition_met
    # Monte Carlo clause over 10^4 random 4x4 pairs: Binette's bound on the
    # witness pair, D_f(r||s) <= binette_rhs(m, M, ||r - s||_1, f), for kl,
    # chi2 and tv, and the trace-distance form for the Umegaki relative
    # entropy, D(rho||sigma) <= binette_rhs(m, M, ||rho - sigma||_1, kl), on
    # the condition-satisfying pairs.  The trace-distance form for the
    # maximal divergence (the suite's ``worst``) is false there for kl and
    # chi2, since ||r - s||_1 > ||rho - sigma||_1 for non-commuting pairs;
    # its violation counts are reported, not asserted.  For tv the left side
    # is the witness's tv, an upper bound on the maximal tv, which on the
    # condition set is exactly ||rho - sigma||_1 (the Jordan decomposition
    # of rho - sigma gives a feasible test with that tv); so the tv count
    # measures the witness formula.
    result, _ = reverse_pinsker_and_binette(dim=4, samples=10000, seed=42)
    e = result.extras
    ok = (
        e["condition_met"] > 0
        and e["witness_form_worst"] <= 1e-8
        and e["relent_form_worst"] <= 1e-8
    )
    detail = (
        f"{e['condition_met']} condition-satisfying pairs; witness-form "
        f"worst {e['witness_form_worst']:.1e}, relative-entropy form worst "
        f"{e['relent_form_worst']:.3e}; trace-distance form for the maximal "
        f"divergence: worst {result.worst:.3e}, violations "
        f"kl={e['violations_kl']} chi2={e['violations_chi2']} "
        f"tv={e['violations_tv']}"
    )
    _report(7, "reverse Pinsker on condition-satisfying pairs", ok, detail)
    assert e["condition_met"] > 0, detail
    assert e["witness_form_worst"] <= 1e-8, detail
    assert e["relent_form_worst"] <= 1e-8, detail


def test_criterion_08_zeta1_equivalence():
    # integral and closed forms of the unit-radius coefficient agree within
    # 1e-7 over the (m, M) grid for kl and chi2, the integral by a fixed
    # composite Gauss-Legendre rule.
    result = zeta1_suite()
    _report(8, "unit-radius coefficient, integral vs closed form",
            result.worst <= 1e-7, f"worst gap {result.worst:.3e}")
    assert result.worst <= 1e-7


def test_criterion_09_audenaert_eisert(tmp_path):
    # The bound dominates the relative entropy on all 10^4 pairs and the
    # pure-vs-mixed hand case gives exactly ln 2.
    worst = 0.0
    for indices in chunks(10000, 4):
        rho, sigma = random_pairs(substreams(42, (), indices), 4)
        t = trace_norm_hermitian(rho.mats - sigma.mats)
        relent = relative_entropy_rows(rho, sigma)
        slack = audenaert_eisert_rows(t, rho.spectra[:, 0], sigma.spectra[:, 0]) - relent
        worst = max(worst, float(np.max(-slack)))
    assert worst <= 1e-10
    hand = abs(audenaert_eisert(plus_state(), maximally_mixed()) - math.log(2.0))
    assert hand <= 1e-10
    # Scatter clause: on every fig2 row both plotted bounds lie above the
    # relative entropy, and the reverse-Pinsker kl bound is strictly below
    # the Audenaert-Eisert bound on at least one row (the improvement the
    # paper claims).  Rows with the reverse-Pinsker bound above the diagonal
    # are counted and reported; none has been measured, and whether any can
    # exist is open, so the count is not asserted.
    code = cli_main(["fig2", "--samples", "300", "--out", str(tmp_path)])
    assert code == 0
    above = below = 0
    over_binette = over_ae = -math.inf
    rows = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
    for row in rows:
        _, _, _, binette, ae, relent, _ = (float(x) for x in row.split(","))
        over_binette = max(over_binette, relent - binette)
        over_ae = max(over_ae, relent - ae)
        if binette > ae + 1e-12:
            above += 1
        elif binette < ae - 1e-12:
            below += 1
    detail = (
        f"bound dominance worst {worst:.3e}, hand-case residual {hand:.1e}; "
        f"relative entropy minus bound: reverse-Pinsker worst "
        f"{over_binette:.3e}, Audenaert-Eisert worst {over_ae:.3e}; "
        f"scatter sides: {above} with reverse-Pinsker "
        f"above, {below} with reverse-Pinsker below the Audenaert-Eisert "
        f"diagonal ({len(rows)} pairs)"
    )
    _report(9, "Audenaert-Eisert comparison",
            over_binette <= 1e-8 and over_ae <= 1e-8 and below > 0, detail)
    assert over_binette <= 1e-8, detail
    assert over_ae <= 1e-8, detail
    assert below > 0, detail


def test_criterion_10_condition_rate():
    # dim-4 rate of |rho - sigma| <= rho + sigma above 0.80 with 10^4
    # samples of the environment-doubled ensemble; a rate in (0.75, 0.80]
    # warns instead of failing (ensemble ambiguity).
    result = condition_rate(dim=4, samples=10000, seed=42, commuting=False)
    rate = result.rate
    _report(
        10,
        "condition satisfaction rate",
        rate > 0.75,
        f"rate {rate:.4f} on environment-doubled Ginibre "
        f"(environment {result.environment})",
    )
    if 0.75 < rate <= 0.80:
        warnings.warn(
            f"condition rate {rate:.4f} fell into the ambiguity band "
            "(0.75, 0.80]; the ensemble convention may need revisiting"
        )
    assert rate > 0.75


def test_criterion_11_appendix_lemmas():
    # polynomial trace identities on 10^3 random triples and the operator
    # Jensen inequality on 10^3 random resolutions of identity (kl, chi2).
    traces = trace_identity_suite(trials=1000, seed=42)
    jensen = operator_jensen_suite(trials=1000, seed=42)
    ok = traces.worst <= 1e-8 and jensen.worst <= 1e-8
    _report(
        11,
        "trace identities and operator Jensen",
        ok,
        f"trace residual {traces.worst:.3e}, Jensen violation {jensen.worst:.3e}",
    )
    assert traces.worst <= 1e-8
    assert jensen.worst <= 1e-8


def test_criterion_12_determinism(tmp_path):
    # two runs of verify and fig2 with identical seeds produce byte-identical
    # CSV output (verify exits 1 both times: the reverse-pinsker suite
    # measures the trace-distance form for the maximal divergence, which is
    # false, and that failure is itself reproduced exactly).
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["verify", "--samples", "200", "--out", str(out_a)])
    code_b = cli_main(["verify", "--samples", "200", "--out", str(out_b)])
    assert code_a == code_b == 1
    verify_same = (out_a / "verify.csv").read_bytes() == (
        out_b / "verify.csv"
    ).read_bytes()
    fig_a, fig_b = tmp_path / "fa", tmp_path / "fb"
    assert cli_main(["fig2", "--samples", "50", "--out", str(fig_a)]) == 0
    assert cli_main(["fig2", "--samples", "50", "--out", str(fig_b)]) == 0
    fig_same = (fig_a / "fig2.csv").read_bytes() == (
        fig_b / "fig2.csv"
    ).read_bytes()
    _report(12, "byte-identical reruns", verify_same and fig_same,
            f"verify.csv identical: {verify_same}, fig2.csv identical: {fig_same}")
    assert verify_same
    assert fig_same
