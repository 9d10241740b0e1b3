"""The benchmark's workloads: inputs derived from a seed, op sizes, and output checks.

A workload turns its seed into a pool of ``POOL`` ops.  An op is a short
list of ``qfdiv.cli.main`` calls (argv without ``--out``); the runner cycles
through the pool, so every input repeats within a run and a repeat must
reproduce its first run byte for byte.  Each workload's ``check`` asserts the
invariants that hold on every seed and returns the op's observables: the
numbers compared with ``reference.json``, which holds them for every op of
the ``DEFAULT_SEED`` pool as computed by the code the benchmark was defined
on.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

POOL = 8
DEFAULT_SEED = 42
# the suites' own witness tolerance; reference floats must agree this closely
FLOAT_TOL = 1e-9
# slack for inequalities checked on printed values, as in the suites
INEQUALITY_TOL = 1e-8

FIG2_SAMPLES = 200
CONDITION_SAMPLES = 1000
INSPECT_DIM = 32

FIG2_HEADER = ("trace_distance", "m", "M", "binette_bound_kl", "ae_bound",
               "relent", "max_relent_div")
CONDITION_HEADER = ("dim", "samples", "seed", "environment", "commuting",
                    "satisfied", "rate")


class CheckFailed(Exception):
    """An op's output broke an invariant or disagreed with the reference."""


@dataclass(frozen=True)
class Op:
    key: str      # names the inputs: ops with equal keys must give equal outputs
    calls: tuple  # argv tuples for qfdiv.cli.main, each without --out
    pairs: int    # state pairs the op processes, for pairs_per_s


@dataclass(frozen=True)
class CallResult:
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    outputs: tuple  # files each op writes into --out, covered by the repeat check
    make_ops: Callable  # (seed, inputs_dir) -> list[Op]
    check: Callable     # (op, [CallResult], out_dir) -> observables


def op_seeds(seed):
    """The per-op ``--seed`` values of a workload seed's pool."""
    rng = np.random.default_rng(seed)
    return [int(x) for x in rng.integers(1, 2**31 - 1, size=POOL)]


def _expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def _read_csv(path, header):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    _expect(rows and tuple(rows[0]) == header, f"{path.name}: header {rows[:1]}")
    return rows[1:]


def _close(a, b):
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# fig2-scatter

_FIG2_LINE = re.compile(
    r"fig2: kept (\d+) pairs, rejected (\d+); reverse-Pinsker bound "
    r"tighter on (\d+), looser on (\d+)")


def _fig2_ops(seed, inputs_dir):
    return [
        Op(f"fig2:{s}", (("fig2", "--samples", str(FIG2_SAMPLES), "--dim", "4",
                          "--seed", str(s)),),
           FIG2_SAMPLES)
        for s in op_seeds(seed)
    ]


def check_fig2(op, results, out_dir):
    (res,) = results
    _expect(res.code == 0, f"fig2 exit code {res.code}")
    m = _FIG2_LINE.search(res.stdout)
    _expect(m is not None, "no fig2 summary line")
    kept, rejected, tighter, looser = map(int, m.groups())
    _expect(kept == FIG2_SAMPLES, f"kept {kept}")
    rows = [[float(x) for x in row]
            for row in _read_csv(out_dir / "fig2.csv", FIG2_HEADER)]
    _expect(len(rows) == kept, f"{len(rows)} csv rows for {kept} kept pairs")
    _expect(all(len(r) == 7 and all(map(math.isfinite, r)) for r in rows),
            "fig2.csv has a short or non-finite row")
    for t, low, high, binette, ae, relent, dmax in rows:
        _expect(0.0 <= t <= 2.0 + INEQUALITY_TOL, f"trace distance {t}")
        _expect(low <= 1.0 + INEQUALITY_TOL and high >= 1.0 - INEQUALITY_TOL,
                f"extremes m={low} M={high}")
        _expect(relent <= dmax + INEQUALITY_TOL,
                f"relative entropy {relent} above maximal kl {dmax}")
    _expect(tighter == sum(r[3] < r[4] for r in rows) and looser == kept - tighter,
            "tighter/looser counts disagree with fig2.csv")
    svg = (out_dir / "fig2.svg").read_text(encoding="ascii")
    _expect(svg.endswith("</svg>\n") and svg.count("<circle") == kept,
            "fig2.svg is truncated or has the wrong point count")
    obs = {"kept": kept, "rejected": rejected, "tighter": tighter}
    for j, name in enumerate(FIG2_HEADER):
        col = [r[j] for r in rows]
        # order-sensitive fingerprint of the column
        obs[f"{name}.sum"] = math.fsum(col)
        obs[f"{name}.weighted_sum"] = math.fsum((i + 1) * x for i, x in enumerate(col))
        obs[f"{name}.min"] = min(col)
        obs[f"{name}.max"] = max(col)
    return obs


# ---------------------------------------------------------------------------
# condition-scan

_CONDITION_LINE = re.compile(
    r"condition rate: (\d\.\d{4}) over (\d+) pairs at dim=4 \(ginibre\(env=8\)\)")


def _condition_ops(seed, inputs_dir):
    return [
        Op(f"condition:{s}", (("condition-rate", "--dim", "4", "--samples",
                               str(CONDITION_SAMPLES), "--seed", str(s)),),
           CONDITION_SAMPLES)
        for s in op_seeds(seed)
    ]


def check_condition(op, results, out_dir):
    (res,) = results
    seed = int(op.calls[0][op.calls[0].index("--seed") + 1])
    ((dim, samples, row_seed, env, commuting, satisfied, rate),) = _read_csv(
        out_dir / "condition_rate.csv", CONDITION_HEADER)
    _expect((dim, samples, row_seed, env, commuting)
            == ("4", str(CONDITION_SAMPLES), str(seed), "8", "0"),
            "condition_rate.csv echoes the wrong configuration")
    satisfied, rate = int(satisfied), float(rate)
    _expect(rate == satisfied / CONDITION_SAMPLES, f"rate {rate} for {satisfied}")
    m = _CONDITION_LINE.fullmatch(res.stdout.strip())
    _expect(m is not None and m[1] == f"{rate:.4f}", "condition rate stdout line")
    # the exit code and the stderr note follow from the satisfied count;
    # a warning is not a failure
    expected = 0 if rate > 0.75 else 1
    _expect(res.code == expected, f"exit code {res.code}, expected {expected}")
    warned = "warning: rate in (0.75, 0.80]" in res.stderr
    _expect(warned == (0.75 < rate <= 0.80), "warning does not match the rate")
    return {"satisfied": satisfied}


# ---------------------------------------------------------------------------
# pair-inspect


def _density(rng, n):
    """Induced-ensemble density matrix with an environment of size 2n."""
    g = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / m.trace().real


def write_state(path, mat):
    """The qfdiv state-file format, with round-tripping float reprs."""
    lines = [str(mat.shape[0])]
    lines += [" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row)
              for row in mat]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def _inspect_ops(seed, inputs_dir):
    ops = []
    for s in op_seeds(seed):
        rng = np.random.default_rng(s)
        pair_dir = inputs_dir / f"pair-{s}"
        pair_dir.mkdir(parents=True, exist_ok=True)
        rho, sigma = pair_dir / "rho.txt", pair_dir / "sigma.txt"
        write_state(rho, _density(rng, INSPECT_DIM))
        write_state(sigma, _density(rng, INSPECT_DIM))
        ops.append(Op(f"inspect:{s}", (
            ("witness", str(rho), str(sigma), "--f", "kl"),
            ("compare-bounds", str(rho), str(sigma)),
        ), 1))
    return ops


def _grab(pattern, text):
    m = re.search(pattern, text, re.MULTILINE)
    _expect(m is not None, f"missing output line /{pattern}/")
    return m


_NUM = r"(-?[0-9.]+(?:e[-+]\d+)?)"


def _vector(label, text):
    body = _grab(rf"^{label}: \[(.*)\]$", text)[1]
    return [float(x) for x in body.split(", ")]


def check_inspect(op, results, out_dir):
    wit, cmp_ = results
    _expect(wit.code == 0 and cmp_.code == 0,
            f"exit codes {wit.code}, {cmp_.code}")
    lambdas = _vector("likelihood-ratio eigenvalues", wit.stdout)
    r = _vector("r", wit.stdout)
    s = _vector("s", wit.stdout)
    n = INSPECT_DIM
    _expect(len(lambdas) == len(r) == len(s) == n, "witness vector lengths")
    _expect(lambdas == sorted(lambdas) and lambdas[0] >= 0.0,
            "likelihood ratios not ascending and nonnegative")
    for name, p in (("r", r), ("s", s)):
        _expect(min(p) >= 0.0 and abs(math.fsum(p) - 1.0) <= FLOAT_TOL,
                f"{name} is not a distribution")
    residuals = re.findall(rf"^residual (\S+): {_NUM}$", wit.stdout, re.MULTILINE)
    _expect(len(residuals) == 6 and all(float(v) <= FLOAT_TOL for _, v in residuals),
            f"witness residuals {residuals}")
    _expect("witness check: PASS" in wit.stdout, "witness check did not pass")
    kl_wit = float(_grab(rf"^maximal kl divergence: {_NUM} nats$", wit.stdout)[1])

    text = cmp_.stdout
    t = float(_grab(rf"^trace distance: {_NUM}$", text)[1])
    mm = _grab(rf"^m: {_NUM}   M: {_NUM}$", text)
    low, high = float(mm[1]), float(mm[2])
    cond = _grab(r"<= rho\+sigma: (satisfied|violated)$", text)[1] == "satisfied"
    relent = float(_grab(rf"^relative entropy: {_NUM} nats$", text)[1])
    dmax = float(_grab(rf"^max-relative entropy: {_NUM} nats$", text)[1])
    chi2 = float(_grab(rf"^chi-squared: {_NUM}$", text)[1])
    maximal = {name: float(v) for name, v in re.findall(
        rf"^maximal (kl|chi2|tv) divergence: {_NUM}", text, re.MULTILINE)}
    rp = re.findall(rf"^  reverse-Pinsker rhs: {_NUM}.*condition (met|not met)\)$",
                    text, re.MULTILINE)
    pinsker = float(_grab(rf"^Pinsker-type lower envelope of chi-squared: {_NUM} ",
                          text)[1])
    ae = float(_grab(rf"^Audenaert-Eisert upper bound: {_NUM} nats$", text)[1])
    _expect(sorted(maximal) == ["chi2", "kl", "tv"] and len(rp) == 3,
            "compare-bounds generator lines")

    # the two commands see the same witness
    _expect(_close(low, lambdas[0]) and _close(high, lambdas[-1]),
            "compare-bounds extremes differ from the witness spectrum")
    _expect(_close(maximal["kl"], kl_wit), "maximal kl differs between commands")
    # standard divergences sit below their maximal counterparts; chi2 coincides
    _expect(relent <= maximal["kl"] + INEQUALITY_TOL, "relative entropy above maximal kl")
    _expect(t <= maximal["tv"] + INEQUALITY_TOL, "trace distance above maximal tv")
    _expect(abs(chi2 - maximal["chi2"]) <= INEQUALITY_TOL * max(1.0, chi2),
            "chi-squared differs from maximal chi2")
    _expect(relent <= dmax + INEQUALITY_TOL, "relative entropy above D_max")
    _expect(relent <= ae + INEQUALITY_TOL, "relative entropy above the AE bound")
    return {
        "lambdas": lambdas, "r": r, "s": s, "trace_distance": t, "m": low,
        "M": high, "condition": int(cond), "relent": relent, "dmax": dmax,
        "chi2": chi2, "maximal": [maximal[k] for k in ("kl", "chi2", "tv")],
        "rp_rhs": [float(v) for v, _ in rp],
        "rp_condition": [int(c == "met") for _, c in rp],
        "pinsker_lower": pinsker, "ae": ae,
    }


# ---------------------------------------------------------------------------

# why each workload exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {w.name: w for w in (
    Workload("fig2-scatter",
             {"samples": FIG2_SAMPLES, "dim": 4},
             ("fig2.csv", "fig2.svg"), _fig2_ops, check_fig2),
    Workload("condition-scan",
             {"samples": CONDITION_SAMPLES, "dim": 4},
             ("condition_rate.csv",), _condition_ops, check_condition),
    Workload("pair-inspect",
             {"dim": INSPECT_DIM, "calls_per_op": 2},
             (), _inspect_ops, check_inspect),
)}


def compare(obs, ref):
    """Raise CheckFailed unless observables match the reference.

    Integers must be equal; floats, alone or in lists, must agree within
    FLOAT_TOL relative to max(1, |reference|).
    """
    _expect(sorted(obs) == sorted(ref), "observables differ from the reference's")
    for key, want in ref.items():
        got = obs[key]
        if isinstance(want, int):
            _expect(got == want, f"{key}: {got} != reference {want}")
            continue
        got_list = got if isinstance(got, list) else [got]
        want_list = want if isinstance(want, list) else [want]
        _expect(len(got_list) == len(want_list)
                and all(_close(a, b) for a, b in zip(got_list, want_list)),
                f"{key}: {got} differs from reference {want}")


class Checker:
    """Checks every op: invariants, repeat identity, and the reference."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference  # op key -> observables
        self.digests = {}

    def check(self, op, results, out_dir):
        try:
            obs = self.workload.check(op, results, out_dir)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"unreadable output: {exc}") from exc
        digest = hashlib.sha256()
        for res in results:
            digest.update(f"{res.code}\0{res.stdout}\0{res.stderr}\0".encode())
        for name in self.workload.outputs:
            digest.update((Path(out_dir) / name).read_bytes())
        first = self.digests.setdefault(op.key, digest.hexdigest())
        _expect(first == digest.hexdigest(),
                f"{op.key}: output differs from the first run of the same input")
        if op.key in self.reference:
            compare(obs, self.reference[op.key])
        return obs
