"""Tests of the CSV and SVG writers and of the bytes each command writes."""

import hashlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qfdiv import cli
from qfdiv.cli import main, write_csv

# sha256 of stdout and of every file a command writes, recorded with the
# per-value CSV writer and per-point SVG writer that the column-wise ones
# replaced (numpy 2.4, x86-64).  test_fig2_output_is_deterministic compares
# two runs of one build, so a formatting change that applies to both passes
# it; it cannot pass these.
GOLDEN = {
    "fig2 --samples 600 --seed 42": (0, {
        "stdout": "08f56ce98d41be01dced5dabdf9a4a5afe38e57d93b99a763fc61d8672d1cd04",
        "fig2.csv": "b3b59ece7964d301fefbd0e4dca429888991fc2e06578cb9b364d07d1a58183a",
        "fig2.svg": "91fa23ebbe4af6f93a313ea7838a6cbea2c685b537b43859eec3128bd1867274",
    }),
    "fig2 --samples 200 --seed 7": (0, {
        "stdout": "ea311c488a242c2a62ae9de41c56c43871b09ac985b309e6d92a1781b0c7d9aa",
        "fig2.csv": "0e7ed4f33d3525f49c3ecba35f74bb8344343e95851e8e66df657443b7bb31f4",
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
        "condition_rate.csv": "9bf72d65c47b9d3bc581dacbee7423220b23a5e0fc640b3e675839252c800e0b",
    }),
    "verify --samples 1000 --seed 42": (1, {
        "stdout": "8873cea70c901485860f3e89179b29aaf763af511dd449cf0df70f2fe27e8cd6",
        "verify.csv": "3ece8e2c3cfd8c59ec9680e5e1b6c65328ec6c120653dec6cd3dbcca93934965",
    }),
    "verify --samples 1000 --seed 7": (1, {
        "stdout": "302fd3b71f5fa2978e623804eab9c45ac1d3023cfe06f82d038dbb58d3d627bf",
        "verify.csv": "285c9493dff43acef3848e5c118955d55d33afc4d7f81347db53e346b1faef5c",
    }),
}


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_commands_write_their_recorded_bytes(tmp_path, capsys, argv):
    code, want = GOLDEN[argv]
    assert main([*argv.split(), "--out", str(tmp_path)]) == code
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update((name, (tmp_path / name).read_bytes()) for name in want if name != "stdout")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in got.items()} == want


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
