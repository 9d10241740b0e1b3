"""End-to-end tests for the command-line interface."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    audenaert_eisert,
    count_eig_calls,
    ill_conditioned_pair,
    maximally_mixed,
    plus_state,
    quantum_chi2,
    random_density,
    relative_entropy,
    reverse_pinsker,
)

from qfdiv import cli, maximal, states
from qfdiv.bounds import pinsker_chi2_lower
from qfdiv.cli import (
    ExperimentConfig,
    main,
    parse_state_file,
    write_state_file,
)
from qfdiv.divergence import max_relative_entropy_rows
from qfdiv.errors import (DimensionMismatch, InvariantViolation, NotAState, OutOfRange,
                          ParseError)
from qfdiv.generators import BUILTIN_NAMES, builtin_generator
from qfdiv.linalg import trace_norm_hermitian
from qfdiv.states import DensityStack, abs_condition_rows, substream
from qfdiv.verify import RateResult

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# configuration and state files
# ---------------------------------------------------------------------------


def test_config_validates_its_fields():
    with pytest.raises(OutOfRange):
        ExperimentConfig(dim=1)
    with pytest.raises(OutOfRange):
        ExperimentConfig(samples=0)
    with pytest.raises(OutOfRange):
        ExperimentConfig(lam=0.0)
    with pytest.raises(OutOfRange):  # finite, but the fig1 horizon 10 / lam is not
        ExperimentConfig(lam=1e-320)
    for bad in (math.nan, math.inf):
        with pytest.raises(OutOfRange):
            ExperimentConfig(lam=bad)
        with pytest.raises(OutOfRange):
            ExperimentConfig(chi2_0_list=(1.0, bad))
    with pytest.raises(OutOfRange):
        ExperimentConfig(seed=-1)


@pytest.mark.parametrize("command", ["condition-rate", "fig2", "verify"])
def test_negative_seed_is_an_invalid_configuration(tmp_path, capsys, command):
    assert run_cli(command, "--samples", 10, "--seed", -1, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == "invalid configuration: seed must be an integer >= 0, got -1\n"
    assert "Traceback" not in err


def test_state_file_round_trip_is_bit_exact(tmp_path):
    rho = random_density(4, seed=substream(70, 0))
    path = tmp_path / "state.txt"
    write_state_file(path, rho)
    back = parse_state_file(path)
    assert np.array_equal(back.mats, rho.mats)


def test_state_file_parses_hand_written_qubit(tmp_path):
    path = tmp_path / "plus.txt"
    path.write_text("2\n0.5,0 0.5,0\n0.5,0 0.5,0\n")
    rho = parse_state_file(path)
    assert rho.mats.shape == (1, 2, 2)  # a one-row stack
    assert np.allclose(rho.mats, plus_state().mats)
    # trailing blank lines are accepted
    path.write_text("2\n0.5,0 0.5,0\n0.5,0 0.5,0\n\n \n\t\n")
    assert np.array_equal(parse_state_file(path).mats, rho.mats)


def test_state_file_reports_the_offending_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0.5,0 oops\n0.5,0 0.5,0\n")
    with pytest.raises(ParseError) as info:
        parse_state_file(path)
    assert info.value.line == 2


@pytest.mark.parametrize("text, line, message", [
    # a comma count over the whole line would accept this row
    ("2\n1,2,3 4\n0.5,0 0.5,0\n", 2, "entry 1 is not 're,im': '1,2,3'"),
    ("2\n0.5,0 0,0\n0.5,0 0.5,x\n", 3, "bad number in entry 2: '0.5,x'"),
    ("2\n0.5,0 0,0\n0.5,0\n", 3, "expected 2 entries, got 1"),
    # the first non-blank line after row n is named, not a blank one before it
    ("2\n0.5,0 0,0\n0,0 0.5,0\ngarbage here\n1,2,3\n", 4,
     "unexpected content after row 2: 'garbage here'"),
    ("2\n0.5,0 0,0\n0,0 0.5,0\n\n \n1,2,3\n", 6,
     "unexpected content after row 2: '1,2,3'"),
    # the first non-ASCII byte is named before anything else is read
    ("2\n0.5,0 0,0\n0,0 0.5,0\u00b5\n", 3, "non-ASCII byte in a state file"),
    ("2\n0.5,0 oops\n0,0 0.5,0\n\n# \u00b5\n", 5, "non-ASCII byte in a state file"),
])
def test_state_file_names_the_bad_entry_and_line(tmp_path, text, line, message):
    path = tmp_path / "bad.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as info:
        parse_state_file(path)
    assert info.value.line == line


def test_state_file_round_trip_is_bit_exact_at_dim_32(tmp_path):
    rho = random_density(32, rank=64, seed=substream(71, 0))
    path = tmp_path / "state.txt"
    write_state_file(path, rho)
    assert np.array_equal(parse_state_file(path).mats, rho.mats)


def test_state_file_holds_one_state(tmp_path):
    two = DensityStack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    for stack in (two, two.take([])):
        want = f"^a state file holds one state, got a stack of {len(stack.mats)}$"
        with pytest.raises(DimensionMismatch, match=want):
            write_state_file(tmp_path / "state.txt", stack)
    assert not (tmp_path / "state.txt").exists()


def test_state_file_takes_only_a_state_stack(tmp_path):
    # a bare array raised AttributeError ('mats')
    for rho in (np.eye(2)[None] / 2, [[[0.5, 0], [0, 0.5]]]):
        want = f"^rho must be a DensityStack, got {type(rho).__name__}$"
        with pytest.raises(NotAState, match=want):
            write_state_file(tmp_path / "state.txt", rho)
    assert not (tmp_path / "state.txt").exists()


def test_state_file_reads_numbers_as_python_float_does(tmp_path):
    # Python's float accepts digit separators, which numpy's string
    # casting need not
    path = tmp_path / "underscore.txt"
    path.write_text("2\n0.2_5,0 0,0\n0,-0 7_5e-2,+0\n")
    (mat,) = parse_state_file(path).mats
    assert mat[0, 0] == float("0.2_5") and mat[1, 1] == float("7_5e-2")


def test_state_file_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("3\n0.5,0 0.5,0\n")
    with pytest.raises(ParseError):
        parse_state_file(path)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_state_file_that_cannot_be_read_names_no_line(tmp_path, capsys, kind):
    path = tmp_path / "state.txt"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ParseError, match=f"^cannot read {path}: ") as info:
        parse_state_file(path)
    assert info.value.line is None
    good = tmp_path / "good.txt"
    write_state_file(good, plus_state())
    for command in ("witness", "compare-bounds"):
        for pair in ((path, good), (good, path)):
            assert run_cli(command, *pair) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot read {path}: ")
            assert captured.out == ""


def test_state_file_enforces_state_invariants(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("2\n0.5,0 0,0\n0,0 0.4,0\n")
    with pytest.raises(InvariantViolation) as info:
        parse_state_file(path)
    assert info.value.invariant == "trace"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _write_pair(tmp_path):
    rho_path = tmp_path / "rho.txt"
    sigma_path = tmp_path / "sigma.txt"
    write_state_file(rho_path, plus_state())
    write_state_file(sigma_path, maximally_mixed())
    return rho_path, sigma_path


@pytest.mark.parametrize("command", ["witness", "compare-bounds"])
def test_pair_commands_exit_1_where_sigma_is_too_ill_conditioned(tmp_path, capsys, command):
    # a SingularState, not a broken invariant: exit 1, not 2
    paths = [tmp_path / "rho.txt", tmp_path / "sigma.txt"]
    for path, state in zip(paths, ill_conditioned_pair(28)):
        write_state_file(path, state)
    assert run_cli(command, *paths) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: r: |sum - 1| = ")
    assert captured.err.endswith("sigma's least eigenvalue 1.000e-08\n")


def test_verify_command_reports_the_known_red_suite(tmp_path, capsys):
    code = run_cli("verify", "--samples", 200, "--out", tmp_path)
    out = capsys.readouterr().out
    # the trace-distance reverse-Pinsker suite is expected to fail, and the
    # command must exit nonzero because of it
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    failed = [l for l in lines if l.startswith("FAIL")]
    assert len(failed) == 1 and "reverse-pinsker" in failed[0]
    assert any("witness-binette" in l for l in lines if l.startswith("PASS"))
    csv = (tmp_path / "verify.csv").read_text()
    assert csv.splitlines()[0] == "suite,worst,tol,passed"
    assert "reverse-pinsker" in csv


@pytest.mark.parametrize("seed", [568437518, 568657945])
def test_verify_passes_the_witness_suite_on_nearly_singular_draws(tmp_path, capsys, seed):
    # these seeds draw a nearly singular sigma in the witness suite; only the
    # documented trace-distance reverse-Pinsker suite may fail
    assert run_cli("verify", "--samples", 1000, "--seed", seed, "--out", tmp_path) == 1
    failed = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert len(failed) == 1 and "reverse-pinsker" in failed[0]


def test_fig1_command_writes_decay_table(tmp_path, capsys):
    code = run_cli("fig1", "--out", tmp_path)
    assert code == 0
    rows = (tmp_path / "fig1.csv").read_text().splitlines()
    assert rows[0] == "t,chi2_0,temme_bound,improved_bound"
    assert len(rows) == 1 + 3 * 500  # three default initial values
    first = [float(x) for x in rows[1].split(",")]
    assert first[0] == 0.0 and first[1] == 1.0
    assert first[2] == pytest.approx(1.0) and first[3] == pytest.approx(1.0)
    # every improved value stays below its classical counterpart
    for row in rows[1:]:
        _, _, temme, improved = (float(x) for x in row.split(","))
        assert improved <= temme + 1e-12
    assert (tmp_path / "fig1.svg").read_text().lstrip().startswith("<svg")


@pytest.mark.parametrize("option, value", [
    ("--lambda", "nan"), ("--chi0", "nan"), ("--lambda", "inf"), ("--chi0", "inf"),
    ("--lambda", "1e-320"),  # finite, but the horizon 10 / lam is not
])
def test_fig1_rejects_non_finite_settings(tmp_path, capsys, option, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("fig1", option, value, "--out", tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid configuration: ") and "finite" in err
    assert list(tmp_path.iterdir()) == []


def test_fig2_command_writes_bound_scatter(tmp_path, capsys):
    code = run_cli("fig2", "--samples", 25, "--out", tmp_path)
    assert code == 0
    rows = (tmp_path / "fig2.csv").read_text().splitlines()
    assert rows[0] == (
        "trace_distance,m,M,binette_bound_kl,ae_bound,relent,max_relent_div"
    )
    assert len(rows) == 1 + 25
    for row in rows[1:]:
        t, m, M, binette, ae, relent, dmax = (float(x) for x in row.split(","))
        assert 0.0 < t < 2.0 and m < 1.0 < M
        # both upper bounds on the relative entropy hold on every kept pair
        assert relent <= ae + 1e-10
        assert relent <= binette + 1e-10
        # the maximal divergence dominates the standard one
        assert relent <= dmax + 1e-10
    assert (tmp_path / "fig2.svg").exists()


@pytest.mark.parametrize("argv, summary", [
    (("--samples", 300),
     "fig2: kept 300 pairs, rejected 75; reverse-Pinsker bound tighter on 300, "
     "looser on 0"),
    (("--samples", 200, "--dim", 4, "--seed", 42),
     "fig2: kept 200 pairs, rejected 48; reverse-Pinsker bound tighter on 200, "
     "looser on 0"),
])
def test_fig2_integer_outputs_are_pinned(tmp_path, capsys, argv, summary):
    # seed-42 counts: stacking the draws must not change which pairs are kept
    assert run_cli("fig2", *argv, "--out", tmp_path) == 0
    assert capsys.readouterr().out.strip() == summary


def test_fig2_draw_budget_stops_a_condition_that_never_holds(tmp_path, capsys, monkeypatch):
    def never(rho, sigma):
        holds, t = real(rho, sigma)
        return np.zeros_like(holds), t

    real = cli.abs_condition_rows
    monkeypatch.setattr(cli, "abs_condition_rows", never)
    assert run_cli("fig2", "--samples", 3, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "drew 300 candidate pairs and kept 0 of 3" in err
    assert "acceptance rate 0.0000" in err
    assert not (tmp_path / "fig2.csv").exists()


def test_fig2_checks_and_diagonalizes_each_kept_pair_once(tmp_path, capsys, monkeypatch):
    # each round's candidate stacks are checked once, when drawn (rho and
    # sigma); the kept rows are not checked again, sigma's least eigenvalue
    # comes from sigma's eigh in the witness, and eigvalsh runs once, on kept rho
    rounds = []
    checks = []

    def spy(module, name, calls):
        real = getattr(module, name)

        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, record)

    spy(cli, "random_pairs", rounds)
    spy(states, "_check_states", checks)
    eig = count_eig_calls(monkeypatch)
    assert run_cli("fig2", "--samples", 200, "--seed", 7, "--out", tmp_path) == 0
    assert capsys.readouterr().out.startswith("fig2: kept 200 pairs, rejected 44;")
    assert len(rounds) > 1
    assert len(checks) == 2 * len(rounds)
    # eigh: one of rho - sigma per round, and sigma and T in the witness
    assert dict(eig) == {"eigh": len(rounds) + 2, "eigvalsh": 1}


def test_fig2_output_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli("fig2", "--samples", 15, "--out", out_a) == 0
    assert run_cli("fig2", "--samples", 15, "--out", out_b) == 0
    assert (out_a / "fig2.csv").read_bytes() == (out_b / "fig2.csv").read_bytes()
    assert (out_a / "fig2.svg").read_bytes() == (out_b / "fig2.svg").read_bytes()


def test_condition_rate_command_for_commuting_pairs(tmp_path, capsys):
    code = run_cli(
        "condition-rate", "--commuting", "--samples", 200, "--out", tmp_path
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    csv = (tmp_path / "condition_rate.csv").read_text().splitlines()
    assert csv[0] == "dim,samples,seed,environment,commuting,satisfied,rate"
    assert csv[1].split(",")[4] == "1"  # commuting flag recorded


def test_condition_rate_command_default_ensemble(tmp_path, capsys):
    code = run_cli("condition-rate", "--samples", 1000, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "ginibre(env=8)" in out


def test_witness_command_prints_construction(tmp_path, capsys):
    rho_path, sigma_path = _write_pair(tmp_path)
    code = run_cli("witness", rho_path, sigma_path, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "witness check: PASS" in out
    assert "0.693147" in out  # ln 2 in nats


def test_compare_bounds_command(tmp_path, capsys):
    rho_path, sigma_path = _write_pair(tmp_path)
    code = run_cli("compare-bounds", rho_path, sigma_path, "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "condition" in out
    assert "trace distance" in out


def test_compare_bounds_on_coinciding_states_prints_the_trivial_bound(tmp_path, capsys):
    # the extremes m = M = 1 are degenerate, so no right side is formed
    _, sigma_path = _write_pair(tmp_path)
    assert run_cli("compare-bounds", sigma_path, sigma_path) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "reverse-Pinsker" in line]
    assert len(lines) == len(BUILTIN_NAMES)
    for line in lines:
        assert line.startswith("  reverse-Pinsker rhs: 0")
        assert line.endswith("(slack 0.000e+00, condition met)")


def _write_random_pair(tmp_path, n, seed):
    rho = random_density(n, rank=2 * n, seed=substream(seed, n, 0))
    sigma = random_density(n, rank=2 * n, seed=substream(seed, n, 1))
    write_state_file(tmp_path / "rho.txt", rho)
    write_state_file(tmp_path / "sigma.txt", sigma)
    return rho, sigma, tmp_path / "rho.txt", tmp_path / "sigma.txt"


@pytest.mark.parametrize("command, builds", [("compare-bounds", 1), ("witness", 1)])
def test_single_pair_commands_count_their_witness_builds(
        tmp_path, monkeypatch, command, builds):
    # witness: the printed witness is the one its residual report reads
    calls = []
    real = maximal.witness_batch

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(maximal, "witness_batch", counting)
    monkeypatch.setattr(cli, "witness_batch", counting)
    _, _, rho_path, sigma_path = _write_random_pair(tmp_path, 4, 72)
    assert run_cli(command, rho_path, sigma_path, "--out", tmp_path) == 0
    assert len(calls) == builds


def test_witness_diagonalizes_sigma_and_t_once(tmp_path, monkeypatch):
    # eigh of sigma and of T in the witness; the chi2_match reference reads
    # sigma's cached eig, and eigvalsh gives the two reconstruction errors
    _, _, rho_path, sigma_path = _write_random_pair(tmp_path, 32, 75)
    calls = count_eig_calls(monkeypatch)
    assert run_cli("witness", rho_path, sigma_path) == 0
    assert dict(calls) == {"eigh": 2, "eigvalsh": 2}


def test_witness_fails_when_the_witness_divergence_is_off(tmp_path, monkeypatch, capsys):
    # a relative fault of 1e-7 in the witness's D_f shows in chi2_match
    _, _, rho_path, sigma_path = _write_random_pair(tmp_path, 4, 72)
    real = maximal.WitnessBatch.f_divergence
    monkeypatch.setattr(maximal.WitnessBatch, "f_divergence",
                        lambda self, f: real(self, f) * (1.0 + 1e-7))
    assert run_cli("witness", rho_path, sigma_path) == 1
    out = capsys.readouterr().out
    *_, match, verdict = out.splitlines()
    assert match.startswith("residual chi2_match: ")
    assert float(match.split()[-1]) > 1e-8
    assert verdict == "witness check: FAIL"


def test_compare_bounds_diagonalizes_sigma_once(tmp_path, monkeypatch):
    # eigh of sigma and of T in the witness, and of rho - sigma in the
    # condition test; the relative entropy, chi2 and the Audenaert-Eisert
    # bound read sigma's cached eig, and eigvalsh gives only rho's spectrum
    _, _, rho_path, sigma_path = _write_random_pair(tmp_path, 32, 75)
    calls = count_eig_calls(monkeypatch)
    assert run_cli("compare-bounds", rho_path, sigma_path) == 0
    assert dict(calls) == {"eigh": 3, "eigvalsh": 1}


@pytest.mark.parametrize("n, seed", [(4, 73), (8, 74)])
def test_compare_bounds_numbers_match_the_scalar_functions(
        tmp_path, monkeypatch, capsys, n, seed):
    rho, sigma, rho_path, sigma_path = _write_random_pair(tmp_path, n, seed)
    seen = {}

    def spy(name):
        real = getattr(cli, name)

        def record(*args):
            out = real(*args)
            seen.setdefault(name, []).append(out)
            return out

        monkeypatch.setattr(cli, name, record)

    for name in ("witness_batch", "relative_entropy_rows", "abs_condition_rows",
                 "chi2_rows", "binette_rhs", "pinsker_chi2_lower",
                 "audenaert_eisert_rows"):
        spy(name)
    assert run_cli("compare-bounds", rho_path, sigma_path, "--out", tmp_path) == 0
    out = capsys.readouterr().out

    (batch,) = seen["witness_batch"]
    ((holds, t_rows),) = seen["abs_condition_rows"]
    ((chi2,),) = seen["chi2_rows"]
    (envelope,) = seen["pinsker_chi2_lower"]
    (ae,) = seen["audenaert_eisert_rows"]
    t = float(t_rows[0])
    dmax = math.log(float(batch.lambdas[0, -1]))
    t_eigvalsh = trace_norm_hermitian(rho.mats[0] - sigma.mats[0])
    pin_lhs = pinsker_chi2_lower(t_eigvalsh)

    assert bool(holds[0]) == abs_condition_rows(rho, sigma)[0][0]
    assert t == pytest.approx(t_eigvalsh, rel=1e-12)
    # two routes to D_max: ln M of the witness and sigma^{-1/2} rho sigma^{-1/2}
    assert dmax == pytest.approx(max_relative_entropy_rows(rho, sigma)[0], rel=1e-12)
    assert envelope == pytest.approx(pin_lhs, rel=1e-12)
    # the printed relative entropy reads sigma's eig, computed by the witness;
    # the reference diagonalizes sigma on its own
    ((relent,),) = seen["relative_entropy_rows"]
    assert f"\nrelative entropy: {relent:.12g} nats\n" in out
    assert relent == pytest.approx(relative_entropy(rho, sigma), rel=1e-12)
    assert chi2 - envelope == pytest.approx(quantum_chi2(rho, sigma) - pin_lhs, rel=1e-12)
    assert ae[0] == pytest.approx(audenaert_eisert(rho, sigma), rel=1e-12)
    rhs_values = seen["binette_rhs"]
    assert len(rhs_values) == len(BUILTIN_NAMES)
    for name, rhs in zip(BUILTIN_NAMES, rhs_values):
        f = builtin_generator(name)
        want = reverse_pinsker(rho, sigma, f)
        slack = rhs - batch.f_divergence(f)[0]
        assert rhs == pytest.approx(want.rhs, rel=1e-12)
        assert slack == pytest.approx(want.slack, rel=1e-12)
        condition = "met" if want.condition_met else "not met"
        assert f"  reverse-Pinsker rhs: {rhs:.12g}" in out
        assert f"(slack {slack:.3e}, condition {condition})" in out

    # the printed lines show exactly the values checked above
    for line in (f"trace distance: {t:.12g}",
                 f"max-relative entropy: {dmax:.12g} nats",
                 f"Pinsker-type lower envelope of chi-squared: {envelope:.12g} "
                 f"(slack {chi2 - envelope:.3e})",
                 f"Audenaert-Eisert upper bound: {ae[0]:.12g} nats"):
        assert line in out.splitlines()


def test_bits_flag_rescales_entropic_output(tmp_path, capsys):
    rho_path, sigma_path = _write_pair(tmp_path)
    code = run_cli(
        "compare-bounds", rho_path, sigma_path, "--bits", "--out", tmp_path
    )
    assert code == 0
    assert "relative entropy: 1 bits" in capsys.readouterr().out  # ln 2 nats


# ---------------------------------------------------------------------------
# exit codes and environment
# ---------------------------------------------------------------------------


def test_invalid_configuration_exits_two(tmp_path, capsys):
    assert run_cli("verify", "--samples", 0, "--out", tmp_path) == 2
    assert "invalid configuration" in capsys.readouterr().err


def test_corrupt_state_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0.5,0 oops\n0.5,0 0.5,0\n")
    _, sigma_path = _write_pair(tmp_path)
    assert run_cli("witness", bad, sigma_path, "--out", tmp_path) == 2
    assert "line 2" in capsys.readouterr().err


def test_non_ascii_state_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"2\n0.5,0 0,0\n0,0 0.5,0\xc2\xb5\n")
    _, sigma_path = _write_pair(tmp_path)
    for command in ("witness", "compare-bounds"):
        assert run_cli(command, bad, sigma_path) == 2
        assert capsys.readouterr().err == "error: line 3: non-ASCII byte in a state file\n"


def test_invalid_state_exits_two(tmp_path, capsys):
    bad = tmp_path / "trace.txt"
    bad.write_text("2\n0.5,0 0,0\n0,0 0.4,0\n")
    _, sigma_path = _write_pair(tmp_path)
    assert run_cli("witness", bad, sigma_path, "--out", tmp_path) == 2
    assert "trace" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["witness", "compare-bounds"])
@pytest.mark.parametrize("token, line, entry", [
    ("nan,0", 2, 1), ("0,inf", 3, 2), ("1e400,0", 3, 1), ("0,-inf", 2, 2),
])
def test_non_finite_state_file_exits_two(tmp_path, capsys, command, token, line, entry):
    # a parse error, not a suite failure (exit 1)
    rows = [["0.5,0", "0,0"], ["0,0", "0.5,0"]]
    rows[line - 2][entry - 1] = token
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    _, sigma_path = _write_pair(tmp_path)
    assert run_cli(command, bad, sigma_path, "--out", tmp_path) == 2
    assert f"line {line}: entry {entry} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["witness", "compare-bounds"])
def test_state_file_commands_make_no_out_directory(tmp_path, monkeypatch, command):
    # --out is accepted, because the benchmark appends it to every call
    monkeypatch.chdir(tmp_path)
    rho_path, sigma_path = _write_pair(tmp_path)
    assert run_cli(command, rho_path, sigma_path, "--out", "new/dir") == 0
    assert not (tmp_path / "new").exists()


def test_out_dir_env_var_is_honored(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("QFDIV_OUT", str(target))
    assert run_cli("fig1") == 0
    assert (target / "fig1.csv").exists()


# ---------------------------------------------------------------------------
# the options of each subcommand
# ---------------------------------------------------------------------------

# every option and positional each subcommand accepts, besides -h/--help
OPTIONS = {
    "verify": "--dim --samples --seed --out",
    "fig1": "--lambda --chi0 --out",
    "fig2": "--dim --samples --seed --out",
    "condition-rate": "--dim --samples --seed --commuting --out",
    "witness": "rho sigma --f --bits --out",
    "compare-bounds": "rho sigma --bits --out",
}
# a value for each option that takes one, --out aside; --quad-tol is gone everywhere
VALUES = {"--dim": "3", "--samples": "5", "--seed": "3", "--lambda": "0.2",
          "--chi0": "2", "--quad-tol": "1e-8", "--f": "chi2", "--commuting": None,
          "--bits": None}


def _subparsers(parser=None):
    parser = cli.build_parser() if parser is None else parser
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_accepts_exactly_its_options():
    accepted = {name: {opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
                       for opt in a.option_strings or [a.metavar]}
                for name, sub in _subparsers().items()}
    assert accepted == {name: set(opts.split()) for name, opts in OPTIONS.items()}
    # 21 (subcommand, option) settings, positionals aside
    assert sum(opt.startswith("--") for opts in accepted.values() for opt in opts) == 21


@pytest.mark.parametrize("command, option", [
    (command, option) for command, opts in OPTIONS.items()
    for option in VALUES if option not in opts.split()
])
def test_an_option_a_subcommand_does_not_read_is_a_usage_error(
        tmp_path, monkeypatch, capsys, command, option):
    monkeypatch.chdir(tmp_path)
    files = []
    if "rho" in OPTIONS[command]:
        files = [str(p) for p in _write_pair(tmp_path)]
    before = sorted(tmp_path.rglob("*"))
    value = [] if VALUES[option] is None else [VALUES[option]]
    with pytest.raises(SystemExit) as info:
        main([command, *files, option, *value, "--out", str(tmp_path / "out")])
    assert info.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_the_parser_sets_no_setting_that_is_not_given():
    # so ExperimentConfig holds the only defaults
    for name, sub in _subparsers().items():
        args = vars(sub.parse_args(["rho.txt", "sigma.txt"] if "rho" in OPTIONS[name] else []))
        settings = set(args) & {f.name for f in fields(ExperimentConfig)}
        assert not settings, name


def _run_parser(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; an argparse exit gives
    its status as the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# argvs whose help, usage or error text comes from the parser: the bare
# program, top-level help, an unknown command, each subcommand's help, each
# missing positional, and each option a subcommand does not read
PARSER_TEXTS = [[], ["-h"], ["bogus"], ["--out", "x"]]
PARSER_TEXTS += [[command, "-h"] for command in OPTIONS]
PARSER_TEXTS += [[command, *files] for command in ("witness", "compare-bounds")
                 for files in ([], ["rho.txt"])]
PARSER_TEXTS += [[command, *(["rho.txt", "sigma.txt"] if "rho" in opts else []), option,
                  *([] if VALUES[option] is None else [VALUES[option]])]
                 for command, opts in OPTIONS.items()
                 for option in VALUES if option not in opts.split()]


@pytest.fixture
def cold_parsers():
    """main's kept parser tree, dropped before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_the_kept_parser_prints_what_a_fresh_parser_prints(cold_parsers):
    # one kept tree parses every argv in turn, and reusing it leaks nothing
    # into the next call's help, usage or error text
    kept = [_run_parser(argv) for argv in PARSER_TEXTS]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in PARSER_TEXTS:
        cli._parser.cache_clear()
        fresh.append(_run_parser(argv))
    assert kept == fresh
    assert {code for code, _, _ in kept} == {0, 2}
    assert all(out or err for _, out, err in kept)


def _spy_add_parser(monkeypatch):
    """The names every later add_parser call adds, in call order."""
    names = []
    real = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


@pytest.mark.parametrize("argv", [["fig1"], ["witness", "-h"], ["-h"], [], ["bogus"]])
def test_main_builds_every_subcommand_whatever_its_argv(tmp_path, monkeypatch, cold_parsers,
                                                        argv):
    names = _spy_add_parser(monkeypatch)
    _run_parser([*argv, "--out", str(tmp_path)] if argv == ["fig1"] else argv)
    assert names == list(OPTIONS)


@pytest.mark.parametrize("argv", [
    ["fig1", "--lambda", "0.3"],
    ["witness", "-h"],
    ["compare-bounds", "rho.txt"],
    ["bogus"],
])
def test_a_second_call_of_a_subcommand_builds_no_parser(tmp_path, monkeypatch, cold_parsers,
                                                        argv):
    argv = [*argv, "--out", str(tmp_path)] if argv[0] == "fig1" else argv
    names = _spy_add_parser(monkeypatch)
    first = _run_parser(argv)
    assert names
    names.clear()
    assert _run_parser(argv) == first
    assert names == []


def test_importing_the_cli_builds_no_parser_and_bad_commands_share_one_tree():
    # counts ArgumentParser constructions: a full tree is the program's
    # parser and its six subcommands
    code = ("import argparse, contextlib, io\n"
            "inits = []\n"
            "real = argparse.ArgumentParser.__init__\n"
            "def spy(self, *args, **kwargs):\n"
            "    inits.append(1)\n"
            "    real(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = spy\n"
            "import qfdiv.cli\n"
            "counts = [len(inits)]\n"
            "for argv in (['bogus'], ['--out', 'x'], ['nope', '-h']):\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            qfdiv.cli.main(argv)\n"
            "        except SystemExit as exc:\n"
            "            assert exc.code == 2\n"
            "    counts.append(len(inits))\n"
            "print(counts)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[0, 7, 7, 7]"


@pytest.mark.parametrize("argv, command, parsed", [
    (("fig2", "--samples", "50", "--dim", "4", "--seed", "3"), "cmd_fig2",
     {"samples": 50, "dim": 4, "seed": 3}),
    (("condition-rate", "--dim", "4", "--samples", "50", "--seed", "3"),
     "cmd_condition_rate", {"dim": 4, "samples": 50, "seed": 3, "commuting": False}),
    (("witness", "rho.txt", "sigma.txt", "--f", "kl"), "cmd_witness",
     {"rho_path": "rho.txt", "sigma_path": "sigma.txt", "fname": "kl", "bits": False}),
    (("compare-bounds", "rho.txt", "sigma.txt"), "cmd_compare_bounds",
     {"rho_path": "rho.txt", "sigma_path": "sigma.txt", "bits": False}),
])
def test_the_benchmark_argv_shapes_still_parse(argv, command, parsed):
    # the benchmark appends --out to each of these calls
    args = vars(cli.build_parser().parse_args([*argv, "--out", "bench-out"]))
    assert args.pop("command") is getattr(cli, command)
    assert args == {**parsed, "out_dir": Path("bench-out")}


@pytest.mark.parametrize("rate, code, err", [
    (0.81, 0, ""),
    # exactly the minimum does not pass: it warns
    (0.80, 0, "warning: rate in (0.75, 0.80]; ensemble sensitivity suspected\n"),
    (0.75, 1, "condition rate 0.7500 fell at or below 0.75\n"),
])
def test_condition_rate_verdict_reads_the_rate_result(tmp_path, capsys, monkeypatch,
                                                      rate, code, err):
    assert RateResult(rate, 8).passed == (rate > 0.80)
    monkeypatch.setattr(cli.suites, "condition_rate",
                        lambda dim, samples, seed, commuting:
                        RateResult(rate, 2 * dim))
    assert run_cli("condition-rate", "--samples", 1000, "--out", tmp_path) == code
    assert capsys.readouterr().err == err
