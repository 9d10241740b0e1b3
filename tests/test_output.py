"""Tests of the CSV and SVG writers and of the bytes each command writes."""

import hashlib
import inspect
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_density

from qfdiv import cli
from qfdiv.cli import main, write_csv, write_state_file
from qfdiv.states import substream

# sha256 of stdout and of every file a command writes, recorded with the
# per-value CSV writer and per-point SVG writer that the column-wise ones
# replaced (numpy 2.4, x86-64).  test_fig2_output_is_deterministic compares
# two runs of one build, so a formatting change that applies to both passes
# it; it cannot pass these.  Re-recorded since: fig2.csv, when its ae_bound
# took sigma's least eigenvalue from the witness's eigh (last-bit moves in
# 325 of 600 and 126 of 200 rows), and verify.csv and the seed-42 verify
# stdout, when reverse-pinsker took t from its condition test's spectrum;
# fig2.csv (relent, last-bit moves in 338 of 600 and 106 of 200 rows) and
# verify.csv and both verify stdouts (the maximality worst, and
# relent_form_worst), when the relative entropy and chi2 references read rho
# in sigma's eigenbasis; verify.csv and both verify stdouts (the zeta1 row's
# worst and tol), when zeta1_integral became a fixed Gauss-Legendre rule;
# the commuting run's condition_rate.csv, when its environment column went
# from 2 dim to 0, since diagonal Dirichlet pairs have no environment.
GOLDEN = {
    "fig2 --samples 600 --seed 42": (0, {
        "stdout": "08f56ce98d41be01dced5dabdf9a4a5afe38e57d93b99a763fc61d8672d1cd04",
        "fig2.csv": "559443e6a64733eb195a421dfa769be294de7f8a4da015917ece7a9bedb9b8fc",
        "fig2.svg": "91fa23ebbe4af6f93a313ea7838a6cbea2c685b537b43859eec3128bd1867274",
    }),
    "fig2 --samples 200 --seed 7": (0, {
        "stdout": "ea311c488a242c2a62ae9de41c56c43871b09ac985b309e6d92a1781b0c7d9aa",
        "fig2.csv": "2a18b179718dd8ec0e9f8d2d64ef8e7fe62dfe651c33c7895fe106f7ad40f174",
        "fig2.svg": "5d99237b52ab77b5428bf43175ba36ce49fa4188bfafe5a96ed78ff839dbfd4a",
    }),
    "fig1": (0, {
        "stdout": "617534feac6c166287c8cf515aba49ed8d84d8b88ec1bf71c7d5818baffe040e",
        "fig1.csv": "03398951cc32e78c23bd3d3dfa1bab346b9e5a89fc0dcaf23e5c6d0aba9ccad8",
        "fig1.svg": "cd2496c85ff26bc0fc53aa7c3a2f74dc238dbbc88c398cf625852f24e9606ac8",
    }),
    "condition-rate --samples 2000 --seed 7": (0, {
        "stdout": "3be0336e9cdca7591a9f713dafa651d1e33440869a4f702500c9c123f33e2841",
        "condition_rate.csv": "8b378052adac0030a9b342e723a7c80926ef80ec90c007f64f8dc9de29313a03",
    }),
    "condition-rate --samples 2000 --seed 7 --commuting": (0, {
        "stdout": "c6eac1408d8abb7ffec1111481acbea7f3989806a29610505eaeddbfa0d39652",
        "condition_rate.csv": "912e09f287a2f60ad7e6eb9300290a6798b6ef8aab3f7ea14fc5bc5f1d393e5c",
    }),
    "verify --samples 1000 --seed 42": (1, {
        "stdout": "2d44856ed0bbeceadaf3d9704bf12f994e8a241a1dd8f05ffea6fb193643a9ae",
        "verify.csv": "4e9c5487c45af2cffa0820a621e84d686faf7f1dddf6001258c9244ad3e99b0e",
    }),
    "verify --samples 1000 --seed 7": (1, {
        "stdout": "93874fc30f9004fae4c99bdfcd1455d762939ac2c7c760b2c87817d32e9e79f6",
        "verify.csv": "1a3ae1c37b55b98eafc2fad0b46a1a329c44e260ec891b82289a724e10663eb7",
    }),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_commands_write_their_recorded_bytes(tmp_path, capsys, argv):
    code, want = GOLDEN[argv]
    assert main([*argv.split(), "--out", str(tmp_path)]) == code
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update((name, (tmp_path / name).read_bytes()) for name in want if name != "stdout")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == want


# (exit code, sha256 of stdout) of the state-file commands on one seeded pair
# per dimension (rank 2n, written by write_state_file), recorded with the
# entry-by-entry reader and the full argument parser that the one-pass
# conversion and the one-subcommand parser replaced (numpy 2.4, x86-64).
# Re-recorded since: every witness entry, when the last residual line
# "divergence_match: 0.000e+00", which compared the witness with a second
# build of itself, became chi2_match against tr(rho sigma^-1 rho) - 1.
# "witness --f kl --bits" was recorded with the scale and unit spelled out
# in each pair command, before one helper printed every entropic value.
GOLDEN_PAIRS = {
    4: {
        "witness --f kl":
            (0, "5c408642baaae9eae77e4ad0fa11306d617b8b83eea81ba00ef7daff94a0788d"),
        "witness --f kl --bits":
            (0, "0022f0ddeb83cef7120f51b8940421c90d70696268a9a7147ebe2d93163c7d5f"),
        "witness --f chi2":
            (0, "75b9cad185f5162df60f2fcaebc1c3554043405d30ff8b4dd3f22878c80cc724"),
        "witness --f tv":
            (0, "50b4840cd5f5585f1329aa1964e3313096248ac2a6a86e8e6ef27883bd85906b"),
        "compare-bounds":
            (0, "4c9733b8932aa81723635c12f8c850fa52b12a711cb743cddce1db44cf378dd9"),
        "compare-bounds --bits":
            (0, "4a72e0ed60a4f70a3f7f597521d9e4ff07fab9641601e5f01286d8c413517158"),
    },
    32: {
        "witness --f kl":
            (0, "8932b5dfede8ab3fa746520c11ee823d1d5a1110e1f589e3199c0e94b8b019a5"),
        "witness --f kl --bits":
            (0, "ae37e85671c33f032c5dd86cb313d28be9d835519b908553e89f06eee84c9094"),
        "witness --f chi2":
            (0, "1c70042fa9feb5a670213c0348ea1ae781e79c9da0a67bc42a7c62c8a381c80b"),
        "witness --f tv":
            (0, "8362f460c4e81ab4f68d43a98f064d2f1d29cfa995cd246902054fe2d57a3474"),
        "compare-bounds":
            (0, "b06a006c8479c3805a71d0518f80115d0d16a77c842cb49825ec14a4d7c447bb"),
        "compare-bounds --bits":
            (0, "4f71565f8754cd7c0e7a9190e7b8acc340beb132f8caac52fec710fbf90389ee"),
    },
}


def _golden_pair(tmp_path, n):
    """Paths of the seeded state files of ``GOLDEN_PAIRS``' pair of dimension n."""
    paths = []
    for k in range(2):
        paths.append(str(tmp_path / f"state{k}.txt"))
        write_state_file(paths[-1], random_density(n, rank=2 * n, seed=substream(80, n, k)))
    return paths


@pytest.mark.parametrize("n, argv", [(n, argv) for n, runs in GOLDEN_PAIRS.items()
                                     for argv in runs])
def test_state_file_commands_print_their_recorded_bytes(tmp_path, capsys, n, argv):
    command, *options = argv.split()
    code = main([command, *_golden_pair(tmp_path, n), *options])
    assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == \
        GOLDEN_PAIRS[n][argv]


@pytest.mark.parametrize("n, argv", [(n, argv) for n, runs in GOLDEN_PAIRS.items()
                                     for argv in runs if argv.startswith("witness")])
def test_witness_prints_six_residuals_within_tolerance_then_pass(tmp_path, capsys, n, argv):
    # the benchmark's pair-inspect check reads exactly these lines
    command, *options = argv.split()
    assert main([command, *_golden_pair(tmp_path, n), *options]) == 0
    lines = capsys.readouterr().out.splitlines()
    residuals = [line.split() for line in lines if line.startswith("residual")]
    assert len(residuals) == 6
    assert all(float(value) <= 1e-9 for *_, value in residuals)
    assert lines[-1] == "witness check: PASS"


# ---------------------------------------------------------------------------
# write_csv, one column type at a time


def _csv_text(path, header, columns):
    write_csv(path, header, columns)
    return path.read_text(encoding="ascii")


FLOATS = [0.1, -0.0, 5e-324, 1e22, np.float32(0.1), -math.inf, math.nan]
FLOAT_TEXT = ["0.10000000000000001", "-0", "4.9406564584124654e-324", "1e+22",
              "0.10000000149011612", "-inf", "nan"]


@pytest.mark.parametrize("column, text", [
    (FLOATS, FLOAT_TEXT),
    ([np.float64(x) for x in FLOATS], FLOAT_TEXT),
    (np.array(FLOATS), FLOAT_TEXT),
    (np.array([0.1, -2.5], dtype=np.float32), ["0.10000000149011612", "-2.5"]),
    ([True, False, np.bool_(True), np.bool_(False)], ["1", "0", "1", "0"]),
    (np.array([False, True]), ["0", "1"]),
    ([0, -7, np.int64(2**62)], ["0", "-7", "4611686018427387904"]),
    (np.array([3, 12], dtype=np.int32), ["3", "12"]),
    (["witness", "reverse-pinsker"], ["witness", "reverse-pinsker"]),
])
def test_write_csv_formats_each_column_type(tmp_path, column, text):
    assert _csv_text(tmp_path / "c.csv", ("c",), [column]) == "c\n" + "".join(
        f"{line}\n" for line in text)


def test_write_csv_writes_a_verify_shaped_table(tmp_path):
    # verify.csv: (str, float, float, bool) rows; relent_form_worst is -inf
    # when no pair qualifies
    columns = (["witness", "relent-form"], [3.2744860600553934e-13, -math.inf],
               [1e-9, 1e-8], [True, np.bool_(False)])
    assert _csv_text(tmp_path / "v.csv", ("suite", "worst", "tol", "passed"), columns) == (
        "suite,worst,tol,passed\n"
        "witness,3.2744860600553934e-13,1.0000000000000001e-09,1\n"
        "relent-form,-inf,1e-08,0\n")


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_float_column_text_is_seventeen_significant_digits(tmp_path, values):
    lines = _csv_text(tmp_path / "f.csv", ("x",), [np.array(values)]).splitlines()
    assert lines[1:] == [f"{float(x):.17g}" for x in values]


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
       st.floats(-1e3, 1e3), st.floats(1e-3, 1e3))
def test_canvas_transform_of_an_array_equals_the_scalar_one(values, low, width):
    canvas = cli._SvgCanvas((low, low + width), (low - width, low), "x", "y")
    xs = np.array(values)
    assert canvas.px(xs).tolist() == [canvas.px(x) for x in values]
    assert canvas.py(xs).tolist() == [canvas.py(y) for y in values]


def test_the_names_the_benchmark_tracer_wraps_exist():
    # perfbench/tracing.py patches these by name and reads the written file's
    # path from write_csv's first argument
    assert {"__init__", "polyline", "scatter", "legend", "write"} <= set(vars(cli._SvgCanvas))
    assert next(iter(inspect.signature(cli.write_csv).parameters)) == "path"


# ---------------------------------------------------------------------------
# rewriting existing outputs in place

# each command and the files it writes
RERUNS = {
    "fig1": ("fig1.csv", "fig1.svg"),
    "fig2 --samples 50": ("fig2.csv", "fig2.svg"),
    "condition-rate": ("condition_rate.csv",),
    "verify --samples 100": ("verify.csv",),
}
JUNK = b"x" * 100_000


def _run_into(out, capsys, argv):
    code = main([*argv.split(), "--out", str(out)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", list(RERUNS))
def test_a_rerun_over_longer_files_writes_the_fresh_bytes(tmp_path, capsys, argv):
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    rerun.mkdir()
    for name in RERUNS[argv]:
        (rerun / name).write_bytes(JUNK)
        (rerun / name).chmod(0o640)
    before = {name: (rerun / name).stat().st_ino for name in RERUNS[argv]}
    assert _run_into(rerun, capsys, argv) == _run_into(fresh, capsys, argv)
    for name in RERUNS[argv]:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes()
        # rewritten in place: the same inode, the mode it had
        assert (rerun / name).stat().st_ino == before[name]
        assert (rerun / name).stat().st_mode & 0o777 == 0o640


def test_a_state_file_written_over_a_longer_file_reads_back(tmp_path):
    rho = random_density(4, rank=8, seed=substream(80, 4, 0))
    fresh, reused = tmp_path / "fresh.txt", tmp_path / "reused.txt"
    reused.write_bytes(JUNK)
    write_state_file(fresh, rho)
    write_state_file(reused, rho)
    assert reused.read_bytes() == fresh.read_bytes()
    assert np.array_equal(cli.parse_state_file(reused).mats, rho.mats)


def test_an_output_that_is_a_symlink_is_written_through(tmp_path, capsys):
    out, target = tmp_path / "out", tmp_path / "kept.csv"
    out.mkdir()
    target.write_bytes(JUNK)
    (out / "fig1.csv").symlink_to(target)
    assert _run_into(out, capsys, "fig1")[0] == 0
    assert (out / "fig1.csv").is_symlink()
    assert target.read_bytes().startswith(b"t,chi2_0,temme_bound,improved_bound\n")
    assert target.stat().st_size < len(JUNK)


def test_a_new_output_gets_the_umask_mode(tmp_path):
    old = os.umask(0o027)
    try:
        write_csv(tmp_path / "new.csv", ("x",), [[1]])
    finally:
        os.umask(old)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_writing_a_canvas_twice_writes_the_same_file(tmp_path):
    canvas = cli._SvgCanvas((0.0, 1.0), (0.0, 1.0), "x", "y")
    canvas.scatter([0.25, 0.5], [0.5, 0.75], cli.PALETTE[0])
    canvas.write(tmp_path / "a.svg")
    canvas.write(tmp_path / "b.svg")
    first = (tmp_path / "a.svg").read_text(encoding="ascii")
    assert (tmp_path / "b.svg").read_text(encoding="ascii") == first
    assert first.count("</svg>") == 1 and first.endswith("</svg>\n")


def test_outputs_are_opened_without_truncation(tmp_path, monkeypatch):
    flags = []
    real_open = os.open

    def spy(path, flag, mode=0o777, **kwargs):
        flags.append((flag, mode))
        return real_open(path, flag, mode, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    write_csv(tmp_path / "t.csv", ("x",), [[1]])
    [(flag, mode)] = flags
    assert flag & os.O_CREAT and flag & os.O_WRONLY and not flag & os.O_TRUNC
    assert mode == 0o666


def test_an_output_that_cannot_be_opened_is_an_io_error(tmp_path, capsys):
    (tmp_path / "fig1.csv").mkdir()
    assert main(["fig1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("i/o error: ")
