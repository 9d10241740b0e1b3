"""Property tests of the state-file reader: bit-exact round trips, the error
each single-entry corruption raises, and which of two bad rows is named."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qfdiv import cli, states
from qfdiv.cli import parse_state_file, write_state_file
from qfdiv.errors import ParseError

SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _write(path, numbers):
    """Write 2 n^2 numbers, row-major (re, im) pairs, with write_state_file,
    as a one-row stack that skips the state checks: the numbers need not
    form a state."""
    mat = np.array(numbers, dtype=float).view(np.complex128)
    n = int(round(len(mat) ** 0.5))
    write_state_file(path, states._checked_stack(mat.reshape(1, n, n), states.STATE_TOL))
    return path.read_text(encoding="ascii").splitlines()


@SETTINGS
@given(st.sampled_from([1, 2, 5]).flatmap(
    lambda n: st.lists(FINITE, min_size=2 * n * n, max_size=2 * n * n)))
@example([-0.0, 5e-324, 1.7e308, -1.7e308, 2.2250738585072014e-308, -5e-324, 0.1, -0.0])
def test_any_finite_matrix_round_trips_bit_exactly(tmp_path, numbers):
    path = tmp_path / "state.txt"
    lines = _write(path, numbers)
    bits = np.array(numbers).view(np.uint64).tolist()
    # the one-pass conversion takes every well-formed file
    one_pass = cli._convert_rows(lines[1:], len(lines) - 1)
    assert one_pass is not None and one_pass.view(np.uint64).tolist() == bits
    assert cli._read_matrix(path).view(np.float64).ravel().view(np.uint64).tolist() == bits


# each corruption of one entry "re,im", with the message that names it
CORRUPTIONS = {
    "comma replaced by a space": (lambda re, im, letter, at: f"{re} {im}",
                                  "expected {n} entries, got {m}"),
    "doubled comma": (lambda re, im, letter, at: f"{re},,{im}",
                      "entry {j} is not 're,im'"),
    "empty real part": (lambda re, im, letter, at: f",{im}", "bad number in entry {j}"),
    "letter inside a number": (lambda re, im, letter, at: f"{re[:at]}{letter}{re[at:]},{im}",
                               "bad number in entry {j}"),
    "inf": (lambda re, im, letter, at: f"{re},inf", "entry {j} is not finite"),
}


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.lists(FINITE, min_size=2 * n * n, max_size=2 * n * n),
    st.integers(0, n - 1), st.integers(0, n - 1))),
    st.sampled_from(sorted(CORRUPTIONS)), st.sampled_from("gqxz"), st.integers(0, 30))
def test_a_corrupted_entry_is_named_with_its_line(tmp_path, case, kind, letter, at):
    numbers, i, j = case
    path = tmp_path / "state.txt"
    lines = _write(path, numbers)
    n = len(lines) - 1
    tokens = lines[i + 1].split()
    re, im = tokens[j].split(",")
    corrupt, message = CORRUPTIONS[kind]
    tokens[j] = corrupt(re, im, letter, min(at, len(re)))
    lines[i + 1] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ParseError) as info:
        parse_state_file(path)
    assert info.value.line == i + 2
    assert str(info.value).startswith(f"line {i + 2}: " + message.format(n=n, m=n + 1, j=j + 1))


@SETTINGS
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))),
    st.booleans())
def test_the_first_bad_row_is_named_whatever_its_fault(tmp_path, case, number_first):
    # one row holds a bad number, another a wrong entry count; the earlier row
    # is reported, as an entry-by-entry reading of the file reports it
    n, rows = case
    first, second = sorted(rows)
    numbered, counted = (first, second) if number_first else (second, first)
    lines = [str(n)] + [" ".join(["0,0"] * n)] * n
    lines[numbered + 1] = " ".join(["0,0"] * (n - 1) + ["0,1x"])
    lines[counted + 1] = " ".join(["0,0"] * (n - 1))
    path = tmp_path / "state.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ParseError) as info:
        parse_state_file(path)
    assert info.value.line == first + 2
    assert str(info.value).endswith(f"bad number in entry {n}: '0,1x'" if number_first
                                    else f"expected {n} entries, got {n - 1}")
