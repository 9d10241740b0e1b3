"""The README's library example runs as written, and its tolerance table
lists every fixed tolerance in ``src/`` with the value the code holds."""

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
TOLERANCE = re.compile(r"^_?[A-Z0-9_]*_(TOL|EPS|FLOOR)$")


def _section(title):
    """The text of the README section headed ``## title``."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_example_prints_the_hand_case_witness(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library usage"), re.S)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert len(out) == len(prints) == 3
    # each line prints what its comment shows
    for shown, line in zip(out, prints):
        assert line.split("# ", 1)[1].startswith(shown)

    def numbers(line):
        return [float(x) for x in re.findall(r"[-+]?\d+\.?\d*(?:e[-+]?\d+)?", line)]

    lambdas, rs, kl = map(numbers, out)
    assert lambdas == [0.0, 2.0]
    assert rs == [0.0, 1.0, 0.5, 0.5]
    assert kl == [round(math.log(2.0), 12)]


def _table():
    """``{(module, name): value}`` of the README tolerance table."""
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", _section("Tolerances"), re.M)
    table = {(module, name): float(value) for name, module, value in rows}
    assert len(table) == len(rows)
    return table


def _constants(package):
    """``{(module, name): value}`` of every module-level ``*_TOL``, ``*_EPS``
    and ``*_FLOOR`` constant of the modules in ``package``."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    if isinstance(target, ast.Name) and TOLERANCE.match(target.id):
                        found[(path.stem, target.id)] = float(ast.literal_eval(stmt.value))
    return found


def test_the_tolerance_table_lists_every_tolerance_with_its_value():
    constants = _constants(ROOT / "src" / "qfdiv")
    assert len(constants) == 14
    assert _table() == constants


def test_the_tolerance_finder_sees_each_kind_of_assignment(tmp_path):
    (tmp_path / "m.py").write_text("A_TOL = 1e-9\n_B_EPS: float = 2.0\nC_FLOOR = D_TOL = 0.5\n"
                                   "MIN_RATE = 0.8\ndef f():\n    E_TOL = 1.0\n")
    assert _constants(tmp_path) == {("m", "A_TOL"): 1e-9, ("m", "_B_EPS"): 2.0,
                                    ("m", "C_FLOOR"): 0.5, ("m", "D_TOL"): 0.5}
