"""Tests for the package's public namespace, its import cost, and its imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qfdiv

ROOT = Path(__file__).resolve().parents[1]


# the public surface: adding or removing a name takes an edit here
PUBLIC_NAMES = [
    "BUILTIN_NAMES",
    "DensityStack",
    "FGenerator",
    "QfdivError",
    "QuantumChannel",
    "WitnessBatch",
    "binette_rhs",
    "builtin_generator",
    "chi2_rows",
    "decoherence_bounds",
    "f_div_rows",
    "max_relative_entropy_rows",
    "pinsker_chi2_lower",
    "random_channel",
    "relative_entropy_rows",
    "substream",
    "witness_batch",
    "zeta1_closed",
    "zeta1_integral",
]


def test_the_public_surface_is_pinned():
    assert qfdiv.__all__ == PUBLIC_NAMES


def test_every_export_resolves_once():
    assert len(set(qfdiv.__all__)) == len(qfdiv.__all__)
    missing = [name for name in qfdiv.__all__ if getattr(qfdiv, name, None) is None]
    assert missing == []


def test_importing_the_cli_loads_neither_numpy_random_nor_the_seeding_hash():
    # nor numpy.polynomial, about 5 ms of import that only zeta1_integral reads
    code = ("import sys\n"
            "import qfdiv.cli\n"
            "print(sorted(m for m in ('numpy.random', 'qfdiv._seeding', 'numpy.polynomial')\n"
            "             if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert out.stdout.strip() == "[]"


def _unread_imports(path):
    """Names a module imports but never reads; lines marked ``# noqa: F401``
    and names listed in ``__all__`` count as read."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_import_in_src_and_tests_is_read():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    unread = {str(p.relative_to(ROOT)): _unread_imports(p) for p in files}
    assert {p: names for p, names in unread.items() if names} == {}


# the one function in src/ that opens a file for writing
WRITER = ("src/qfdiv/cli.py", "_write_ascii")
_OS_WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT"}


def _callee(call):
    """The name a call calls: ``f`` of ``f(...)`` and of ``x.f(...)``."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _write_sites(source):
    """``(function, line)`` of each call in ``source`` that can write a file,
    ``function`` being the innermost enclosing one (None at module level):
    an ``open`` or ``.open`` whose literal mode contains ``w`` or ``a``, an
    ``os.open`` whose flags name a write flag, and any ``write_text`` or
    ``write_bytes``."""
    sites = []

    def writes(call):
        name = _callee(call)
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        args = [*call.args[:2], *(k.value for k in call.keywords if k.arg == "mode")]
        modes = [a.value for a in args
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        flags = {node.attr for a in call.args[1:2] for node in ast.walk(a)
                 if isinstance(node, ast.Attribute)}
        return (any(set(mode) <= set("rwxabt+") and set(mode) & set("wa") for mode in modes)
                or bool(flags & _OS_WRITE_FLAGS))

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes(child):
                sites.append((owner, child.lineno))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), None)
    return sites


def test_the_write_site_finder_sees_each_kind_of_write():
    source = ("def f(p):\n"
              "    open(p, 'w')\n"
              "    open(p, mode='ab')\n"
              "    p.open('w', encoding='ascii')\n"
              "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
              "    p.write_text('x')\n"
              "    p.write_bytes(b'x')\n"
              "    open(p, 'rb'); open(p); p.open(); os.open(p, os.O_RDONLY)\n"
              "open('w.txt')\n"
              "Path('x').write_text('y')\n")
    assert _write_sites(source) == [("f", line) for line in range(2, 8)] + [(None, 10)]


def test_src_opens_files_for_writing_only_in_the_one_writer():
    sites = [(str(path.relative_to(ROOT)), owner, line)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for owner, line in _write_sites(path.read_text())]
    assert [site[:2] for site in sites] == [WRITER], sites


# the one function in src/ that reads the stack budget; every sampled stack
# takes its indices from one of its ranges
STACK_SIZER = ("src/qfdiv/states.py", "chunks")


def _stack_sites(source):
    """``(function, line, kind)`` of each site in ``source`` that sizes a
    sampled stack, ``function`` being the innermost enclosing one (None at
    module level): a read or import of ``CHUNK_ENTRIES`` (``"budget"``), and
    a ``substreams`` call whose indices are not a name that a ``for`` loop
    of the same function takes from ``chunks(...)`` (``"indices"``)."""
    sites = []

    def chunk_ranges(func):
        return {loop.target.id for loop in ast.walk(func)
                if isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                and isinstance(loop.iter, ast.Call) and _callee(loop.iter) == "chunks"}

    def visit(node, owner, ranges):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, chunk_ranges(child))
                continue
            if ((isinstance(child, ast.Name) and child.id == "CHUNK_ENTRIES"
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == "CHUNK_ENTRIES")
                    or (isinstance(child, ast.ImportFrom)
                        and any(a.name == "CHUNK_ENTRIES" for a in child.names))):
                sites.append((owner, child.lineno, "budget"))
            if isinstance(child, ast.Call) and _callee(child) == "substreams":
                indices = [*child.args[2:3], *(k.value for k in child.keywords
                                                if k.arg == "indices")]
                if not (indices and isinstance(indices[0], ast.Name)
                        and indices[0].id in ranges):
                    sites.append((owner, child.lineno, "indices"))
            visit(child, owner, ranges)

    visit(ast.parse(source), None, set())
    return sites


def test_the_stack_site_finder_sees_each_kind_of_site():
    source = ("def chunks(samples, n):\n"
              "    return CHUNK_ENTRIES // n\n"
              "def f(seed):\n"
              "    for indices in chunks(10, 2):\n"
              "        substreams(seed, (), indices)\n"
              "        states.substreams(seed, prefix=(), indices=indices)\n"
              "        substreams(seed, (), range(3))\n"
              "    for other in range(3):\n"
              "        substreams(seed, (), other)\n"
              "    return states.CHUNK_ENTRIES\n"
              "def g(seed, indices):\n"
              "    return substreams(seed, (), indices)\n"
              "from .states import CHUNK_ENTRIES\n"
              "CHUNK_ENTRIES = 4\n")
    assert _stack_sites(source) == [
        ("chunks", 2, "budget"), ("f", 7, "indices"), ("f", 9, "indices"),
        ("f", 10, "budget"), ("g", 12, "indices"), (None, 13, "budget")]


def test_src_sizes_every_sampled_stack_through_chunks():
    sites = [(str(path.relative_to(ROOT)), owner, kind)
             for path in sorted((ROOT / "src").rglob("*.py"))
             for owner, _, kind in _stack_sites(path.read_text())]
    assert sites == [(*STACK_SIZER, "budget")]


# the one module in src/ that calls numpy's Cholesky factorization: every
# positivity verdict is decided there, by linalg.psd_rows
CHOLESKY_HOME = "src/qfdiv/linalg.py"


def _cholesky_sites(source):
    """Lines of ``source`` that reach ``numpy.linalg.cholesky``: a call or
    read of a ``cholesky`` attribute or name, and an import of it."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Attribute) and node.attr == "cholesky")
                   or (isinstance(node, ast.Name) and node.id == "cholesky")
                   or (isinstance(node, ast.ImportFrom)
                       and any(a.name == "cholesky" for a in node.names))})


def test_the_cholesky_site_finder_sees_each_kind_of_site():
    source = ("np.linalg.cholesky(a)\n"
              "factor = numpy.linalg.cholesky\n"
              "from numpy.linalg import cholesky\n"
              "cholesky(a)\n"
              "np.linalg.eigvalsh(a)\n")
    assert _cholesky_sites(source) == [1, 2, 3, 4]


def test_src_calls_cholesky_only_in_linalg():
    sites = sorted({str(path.relative_to(ROOT))
                    for path in (ROOT / "src").rglob("*.py")
                    if _cholesky_sites(path.read_text())})
    assert sites == [CHOLESKY_HOME]


# public definitions that nothing in src/ reads, each kept on purpose
UNREAD_BY_DESIGN = {
    "write_state_file": "writes the state files that replay a worst case",
    "max_relative_entropy_rows": "ln M by a route sharing only sigma's eigendecomposition "
                                 "with the witness, for checks",
    "WitnessBatch.channel": "the paper's recovery channel, read by the tests",
}


def _walk(node, skip):
    """``node`` and the nodes under it, leaving out the subtrees in ``skip``."""
    if not any(node is s for s in skip):
        yield node
        for child in ast.iter_child_nodes(node):
            yield from _walk(child, skip)


def _reads(node, skip=()):
    """The names (``x``) and attributes (``.x``) read under ``node``, outside
    the subtrees in ``skip``."""
    return {f".{n.attr}" if isinstance(n, ast.Attribute) else n.id
            for n in _walk(node, skip) if isinstance(n, (ast.Name, ast.Attribute))}


def _statements(src):
    """``(name, keys, reads)`` of each top-level statement of the modules
    under ``src``, ``__init__``'s re-exports aside, and of each public method
    or property of a public class.  ``name`` is the definition's name
    (``Class.member`` for a member, None for a statement that defines none),
    ``keys`` the reads that reach it: its name or attribute for a top-level
    definition, its attribute alone for a member.  ``reads`` leaves out the
    definition's own keys, and a class's reads leave out its public members,
    which are statements of their own."""
    for path in sorted(src.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            members = []
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                members = [m for m in stmt.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for m in members:
                yield f"{stmt.name}.{m.name}", {f".{m.name}"}, _reads(m) - {f".{m.name}"}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                keys = {stmt.name, f".{stmt.name}"}
                yield stmt.name, keys, _reads(stmt, members) - keys
            else:
                yield None, set(), _reads(stmt)


def _unread_definitions(src):
    """Public top-level functions and classes of the modules under ``src``,
    and public methods and properties of public classes, that no live code
    reads; a member is matched by its attribute name alone.  A read inside
    a definition's own body does not count, and neither does a read inside
    a definition that is itself unread, so a chain of helpers that serve
    only each other is found whole; the bodies of ``UNREAD_BY_DESIGN`` count
    as live."""
    statements = list(_statements(src))
    public = {name: keys for name, keys, _ in statements
              if name and not name.startswith("_")}
    dead = set()
    while True:
        live = set().union(*(reads for name, _, reads in statements
                             if name not in dead or name in UNREAD_BY_DESIGN))
        now = {name for name, keys in public.items() if not keys & live}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_definition_in_src_is_read_or_kept_by_design():
    assert _unread_definitions(ROOT / "src") == sorted(UNREAD_BY_DESIGN)


# every settable value in src/: a parameter with a default, or a dataclass
# field with one, and why it is settable rather than a constant.  A new
# option fails test_every_settable_value_in_src_has_a_reason until it is
# listed here.
IN_USE = "two src/ values in use"
PUBLIC = "a public user setting"
OUTSIDE = "an outside path"
SETTABLE = {
    # numpy's PCG64 asks its seed sequence for generate_state(n_words, dtype)
    "_seeding._SeedWords.generate_state(dtype)": OUTSIDE,
    "bounds._extremes_check(m_positive)": IN_USE,
    "cli.ExperimentConfig.dim": PUBLIC,
    "cli.ExperimentConfig.samples": PUBLIC,
    "cli.ExperimentConfig.seed": PUBLIC,
    "cli.ExperimentConfig.lam": PUBLIC,
    "cli.ExperimentConfig.chi2_0_list": PUBLIC,
    "cli.ExperimentConfig.out_dir": PUBLIC,
    # the console script calls main() to read sys.argv
    "cli.main(argv)": OUTSIDE,
    "errors.ParseError.__init__(line)": IN_USE,
    "generators.FGenerator.second_derivative": PUBLIC,
    "generators.FGenerator.operator_convex": PUBLIC,
    "linalg.numbers(dtype)": IN_USE,
    "linalg.numbers(finite)": IN_USE,
    "linalg.check_counts(minimum)": IN_USE,
    "states.DensityStack.__init__(tol)": IN_USE,
    "states._checked_stack(spectra)": IN_USE,
    "states._checked_stack(eig)": IN_USE,
    "states.random_pairs(rank)": IN_USE,
    "states.random_channel(k)": IN_USE,
    "verify.SuiteResult.extras": IN_USE,
    "verify._witness_chunks(rank)": IN_USE,
    "verify._witness_chunks(prefix)": IN_USE,
}


def _has_default(value):
    """Whether a dataclass field's assigned ``value`` gives it a default: any
    value but a ``field(...)`` call without ``default`` or ``default_factory``."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _settable_values(source, module):
    """``module.function(parameter)`` for each parameter with a default, and
    ``module.Class.field`` for each dataclass field with one, in ``source``;
    a nested definition is named by its enclosing ones."""
    names = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                name = f"{prefix}{getattr(child, 'name', '<lambda>')}"
                a = child.args
                positional = a.posonlyargs + a.args
                given = positional[len(positional) - len(a.defaults):]
                given += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                names.extend(f"{module}.{name}({arg.arg})" for arg in given)
                visit(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    names.extend(f"{module}.{prefix}{child.name}.{s.target.id}"
                                 for s in child.body
                                 if isinstance(s, ast.AnnAssign) and s.value is not None
                                 and _has_default(s.value))
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return names


def test_the_settable_value_finder_sees_each_kind_of_default():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c, d=2):\n"
              "    def g(e=3):\n"
              "        return lambda h=4: h\n"
              "@dataclass(frozen=True)\n"
              "class C:\n"
              "    i: int\n"
              "    j: int = 5\n"
              "    k: list = field(default_factory=list)\n"
              "    m: list = field(repr=False)\n"
              "    def n(self, o=6):\n"
              "        pass\n"
              "class P:\n"
              "    q: int = 7\n")
    assert _settable_values(source, "x") == [
        "x.f(b)", "x.f(d)", "x.f.g(e)", "x.f.g.<lambda>(h)", "x.C.j", "x.C.k", "x.C.n(o)"]


def test_every_settable_value_in_src_has_a_reason():
    found = [name for path in sorted((ROOT / "src" / "qfdiv").glob("*.py"))
             for name in _settable_values(path.read_text(), path.stem)]
    assert len(found) == len(set(found))
    assert sorted(found) == sorted(SETTABLE)
    assert set(SETTABLE.values()) <= {IN_USE, PUBLIC, OUTSIDE}
