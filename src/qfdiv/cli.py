"""Command-line front end: verification suites, experiment CSV/SVG output,
state-file parsing, and bound comparison for concrete state pairs.

Exit codes: 0 success, 1 assertion/suite failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import chain
from pathlib import Path

import numpy as np

from . import verify as suites
from .bounds import (
    EQUAL_STATES_EPS,
    audenaert_eisert_rows,
    binette_rhs,
    decoherence_bounds,
    pinsker_chi2_lower,
)
from .divergence import (
    chi2_rows,
    relative_entropy_rows,
)
from .errors import (
    InvariantViolation,
    OutOfRange,
    ParseError,
    QfdivError,
    SamplingBudgetExceeded,
)
from .generators import BUILTIN_NAMES, builtin_generator
from .linalg import check_counts
from .maximal import WITNESS_TOL, witness_batch, witness_residual_rows
from .states import (
    DensityMatrix,
    DensityStack,
    abs_condition_rows,
    chunks,
    random_pairs,
    substreams,
)

FIG1_POINTS = 500
# fig1 plots the times [0, FIG1_HORIZON / lam]
FIG1_HORIZON = 10.0
# fig2 gives up after this many candidate pairs per requested pair
FIG2_DRAWS_PER_PAIR = 100
PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated settings of the subcommands, and the one home of their
    defaults.  Each subcommand's options set a subset of the fields, under
    the field's name; ``out_dir`` defaults to ``$QFDIV_OUT``, else the
    working directory."""

    dim: int = 4
    samples: int = 10000
    seed: int = 42
    lam: float = 0.1
    chi2_0_list: tuple = (1.0, 4.0, 16.0)
    out_dir: Path = field(default_factory=lambda: Path(os.environ.get("QFDIV_OUT", ".")))

    def __post_init__(self):
        check_counts(2, dim=self.dim)
        check_counts(0, seed=self.seed)
        check_counts(samples=self.samples)
        if not (0.0 < self.lam < math.inf and math.isfinite(FIG1_HORIZON / self.lam)):
            raise OutOfRange(f"decay rate must be positive, with a finite fig1 horizon "
                             f"{FIG1_HORIZON:g}/lambda, got {self.lam}")
        if not all(0.0 <= c < math.inf for c in self.chi2_0_list):
            raise OutOfRange("chi0 values must be finite and nonnegative")
        # --chi0 collects a list
        object.__setattr__(self, "chi2_0_list", tuple(self.chi2_0_list))


_SETTINGS = frozenset(f.name for f in fields(ExperimentConfig))


# ---------------------------------------------------------------------------
# state files


def parse_state_file(path):
    """Read a density matrix from the plain-text state format.

    Line 1 holds the dimension n; each of the next n lines holds n entries
    formatted "re,im" separated by whitespace.  The file must be ASCII,
    every number finite, and every line after row n blank.
    """
    return DensityMatrix(_read_matrix(path))


def _read_matrix(path):
    """The complex n x n matrix of a state file, not yet checked as a state.

    All 2 n^2 numbers are converted in one pass once the rows are certified;
    only a file that fails there is walked entry by entry, to name its first
    bad entry and line.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii", "replace")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if "\ufffd" in text:  # what decoding made of each non-ASCII byte
        lineno = next(i for i, line in enumerate(lines, start=1) if "\ufffd" in line)
        raise ParseError("non-ASCII byte in a state file", line=lineno)
    if not lines:
        raise ParseError("empty state file", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise ParseError(f"dimension is not an integer: {lines[0]!r}", line=1) from exc
    if n < 1:
        raise ParseError(f"dimension must be positive, got {n}", line=1)
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} matrix rows, file has {len(lines) - 1}",
                         line=len(lines))
    rows = lines[1:n + 1]
    values = _convert_rows(rows, n)  # re, im of each entry in row-major order
    if values is None:
        values = []
        for lineno, line in enumerate(rows, start=2):
            tokens = line.split()
            if len(tokens) != n:
                raise ParseError(f"expected {n} entries, got {len(tokens)}", line=lineno)
            for j, token in enumerate(tokens, start=1):
                parts = token.split(",")
                if len(parts) != 2:
                    raise ParseError(f"entry {j} is not 're,im': {token!r}",
                                     line=lineno)
                try:
                    values.append(float(parts[0]))
                    values.append(float(parts[1]))
                except ValueError as exc:
                    raise ParseError(f"bad number in entry {j}: {token!r}",
                                     line=lineno) from exc
        values = np.array(values)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(finite.argmin())  # 2 n numbers per line
        raise ParseError(f"entry {k % (2 * n) // 2 + 1} is not finite", line=k // (2 * n) + 2)
    for lineno, line in enumerate(lines[n + 1:], start=n + 2):
        if line.strip():
            raise ParseError(f"unexpected content after row {n}: {line!r}", line=lineno)
    return values.view(np.complex128).reshape(n, n)


def _convert_rows(rows, n):
    """The 2 n^2 numbers of ``rows`` from one ``float`` pass, or None unless
    every row holds n entries of one comma each and every number parses."""
    tokens = [row.split() for row in rows]
    entries = list(chain.from_iterable(tokens))
    numbers = ",".join(entries).split(",")
    # n^2 commas among n^2 entries are one each when no entry lacks one
    if ({len(row) for row in tokens} != {n} or len(numbers) != 2 * n * n
            or not all("," in entry for entry in entries)):
        return None
    try:
        return np.fromiter(map(float, numbers), float, len(numbers))
    except ValueError:
        return None


def write_state_file(path, rho):
    """Write a density matrix in the state format; round-trips bit-exactly."""
    rows = []
    for i in range(rho.dim):
        rows.append(" ".join(
            f"{float(z.real)!r},{float(z.imag)!r}" for z in rho.mat[i]
        ))
    _write_ascii(path, f"{rho.dim}\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# output files: one writer, CSV and SVG


def _write_ascii(path, text):
    """Write ``text`` to ``path`` as ASCII: the one route by which qfdiv
    writes a file.

    An existing file is rewritten in place and then cut to the new length,
    so it keeps its inode and mode, and a symlink is written through.  It
    is never truncated to zero first: on ext4, closing a file that was
    emptied and written again starts its writeback (``auto_da_alloc``), a
    cost a rerun into an existing directory would pay per file.  Like
    truncation, this is not atomic: an interrupted write leaves the new
    bytes followed by what is left of the old ones.
    """
    data = text.encode("ascii")  # before opening: a non-ASCII text touches no file
    # the flags open() passes (O_CLOEXEC among them) and its file mode, less O_TRUNC
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.write(data)
        fh.truncate()


_CSV_FORMATS = {"f": "%.17g", "b": "%d", "i": "%d", "u": "%d"}


def write_csv(path, header, columns):
    """Write equal-length ``columns``, each of one type, under ``header``.

    Floats are written ``%.17g``, booleans 1/0, ints and strings as ``str``
    gives them.  Each column's format follows its numpy dtype, and the table
    is formatted by one ``%`` of a repeated row template.
    """
    columns = [np.asarray(col) for col in columns]
    row = ",".join([_CSV_FORMATS.get(col.dtype.kind, "%s") for col in columns]) + "\n"
    values = tuple(chain.from_iterable(zip(*[col.tolist() for col in columns])))
    _write_ascii(path, ",".join(header) + "\n" + row * len(columns[0]) % values)


def _axis_ticks(lo, hi):
    """Five evenly spaced ticks from ``lo`` to ``hi`` (the canvas keeps hi > lo)."""
    step = (hi - lo) / 4
    return [lo + k * step for k in range(5)]


class _SvgCanvas:
    """Tiny fixed-size SVG plot surface with linear axes."""

    width = 640
    height = 480
    margin_l, margin_r, margin_t, margin_b = 60, 20, 20, 45

    def __init__(self, xlim, ylim, xlabel, ylabel):
        self.x0, self.x1 = xlim
        self.y0, self.y1 = ylim
        if self.x1 <= self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 <= self.y0:
            self.y1 = self.y0 + 1.0
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
        ]
        self._axes(xlabel, ylabel)

    def px(self, x):
        span = self.width - self.margin_l - self.margin_r
        return self.margin_l + (x - self.x0) / (self.x1 - self.x0) * span

    def py(self, y):
        span = self.height - self.margin_t - self.margin_b
        return self.height - self.margin_b - (y - self.y0) / (self.y1 - self.y0) * span

    def _axes(self, xlabel, ylabel):
        l, r = self.margin_l, self.width - self.margin_r
        t, b = self.margin_t, self.height - self.margin_b
        self.parts.append(
            f'<rect x="{l}" y="{t}" width="{r - l}" height="{b - t}" '
            'fill="none" stroke="black" stroke-width="1"/>'
        )
        for x in _axis_ticks(self.x0, self.x1):
            px = self.px(x)
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{b}" x2="{px:.2f}" y2="{b + 5}" '
                'stroke="black" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{px:.2f}" y="{b + 18}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{x:.3g}</text>'
            )
        for y in _axis_ticks(self.y0, self.y1):
            py = self.py(y)
            self.parts.append(
                f'<line x1="{l - 5}" y1="{py:.2f}" x2="{l}" y2="{py:.2f}" '
                'stroke="black" stroke-width="1"/>'
            )
            self.parts.append(
                f'<text x="{l - 8}" y="{py + 4:.2f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">{y:.3g}</text>'
            )
        self.parts.append(
            f'<text x="{(l + r) / 2:.2f}" y="{self.height - 8}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
        )
        self.parts.append(
            f'<text x="14" y="{(t + b) / 2:.2f}" font-size="13" '
            'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 14 {(t + b) / 2:.2f})">{ylabel}</text>'
        )

    def _points(self, xs, ys, template):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        return map(template.__mod__, zip(self.px(xs).tolist(), self.py(ys).tolist()))

    def polyline(self, xs, ys, color):
        pts = " ".join(self._points(xs, ys, "%.2f,%.2f"))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )

    def scatter(self, xs, ys, color):
        self.parts.extend(self._points(
            xs, ys, f'<circle cx="%.2f" cy="%.2f" r="2.0" fill="{color}" '
                    'fill-opacity="0.55"/>'))

    def legend(self, entries):
        x = self.margin_l + 12
        y = self.margin_t + 16
        for label, color in entries:
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            self.parts.append(
                f'<text x="{x + 28}" y="{y}" font-size="11" '
                f'font-family="sans-serif">{label}</text>'
            )
            y += 16

    def write(self, path):
        _write_ascii(path, "\n".join([*self.parts, "</svg>"]) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(config):
    """Run every property suite at the configured sizes; exit 0 iff all pass."""
    small = max(1, config.samples // 10)
    results = [
        suites.witness_suite(pairs_per_dim=max(1, small // 10), seed=config.seed),
        suites.dpi_suite(dim=config.dim, trials=max(1, small // 10), seed=config.seed),
        *suites.maximality_and_pinsker(dim=config.dim, samples=small, seed=config.seed),
        *suites.reverse_pinsker_and_binette(dim=config.dim, samples=small, seed=config.seed),
        suites.zeta1_suite(),
        suites.trace_identity_suite(trials=max(1, small // 10), seed=config.seed),
        suites.operator_jensen_suite(trials=max(1, small // 10), seed=config.seed),
    ]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        extras = " ".join(f"{k}={v}" for k, v in sorted(res.extras.items()))
        print(f"{status}  {res.name:<18} worst={res.worst:.3e}  tol={res.tol:.1e}"
              + (f"  [{extras}]" if extras else ""))
    columns = zip(*((res.name, res.worst, res.tol, res.passed) for res in results))
    write_csv(config.out_dir / "verify.csv", ("suite", "worst", "tol", "passed"), columns)
    failed = [res.name for res in results if not res.passed]
    if failed == ["reverse-pinsker"]:
        print("note: only the trace-distance form of the reverse-Pinsker bound "
              "failed; random condition-satisfying pairs falsify that form, "
              "while the provable witness total-variation form (suite "
              "witness-binette) holds to machine precision.")
    return 0 if not failed else 1


def cmd_fig1(config):
    """Decoherence envelopes over time for each configured chi2_0."""
    t_max = FIG1_HORIZON / config.lam
    ts = np.linspace(0.0, t_max, FIG1_POINTS)
    chi0s = config.chi2_0_list
    # bounds[k, j] = (temme, improved) for chi0s[k] at ts[j]
    bounds = np.array([[decoherence_bounds(chi0, config.lam, t) for t in ts.tolist()]
                       for chi0 in chi0s])
    write_csv(
        config.out_dir / "fig1.csv",
        ("t", "chi2_0", "temme_bound", "improved_bound"),
        [np.tile(ts, len(chi0s)), np.repeat(chi0s, FIG1_POINTS),
         *bounds.reshape(-1, 2).T],
    )
    canvas = _SvgCanvas((0.0, t_max), (0.0, bounds.max() * 1.05),
                        "time", "trace-distance bound")
    legend = []
    for k, (chi0, curve) in enumerate(zip(chi0s, bounds)):
        for j, (kind, vals) in enumerate(zip(("classical", "improved"), curve.T)):
            color = PALETTE[(2 * k + j) % len(PALETTE)]
            canvas.polyline(ts, vals, color)
            legend.append((f"{kind}, chi2_0={chi0:g}", color))
    canvas.legend(legend)
    canvas.write(config.out_dir / "fig1.svg")
    print(f"fig1: wrote {FIG1_POINTS * len(chi0s)} rows for chi2_0 in "
          f"{tuple(chi0s)} at rate {config.lam:g}")
    return 0


def _accepted_pairs(config, rngs, kept_before, draws):
    """Rejection-sample one stack of fig2 in rounds.

    Sample i draws (rho, sigma) from its generator in ``rngs``,
    ``substream(seed, i)``, until the pair satisfies the positivity
    condition; each round draws once for every pending sample.
    ``kept_before`` counts the samples kept before this stack and ``draws``
    the pairs drawn before this call.
    Returns the kept rho and sigma rows, in sample order, as the state
    stacks they were checked in when drawn (not checked again), their trace
    distances from the condition test, and the updated draw count.
    Raises :class:`SamplingBudgetExceeded` rather than draw more than
    ``FIG2_DRAWS_PER_PAIR`` pairs per requested sample in all.
    """
    size = len(rngs)
    budget = FIG2_DRAWS_PER_PAIR * config.samples
    kept = []  # per round: sample positions, rho rows, sigma rows, trace distances
    pending = np.arange(size)
    while pending.size:
        if draws + pending.size > budget:
            done = kept_before + size - pending.size
            raise SamplingBudgetExceeded(
                f"fig2 drew {draws} candidate pairs and kept {done} of "
                f"{config.samples} (acceptance rate {done / max(draws, 1):.4f}); "
                f"the budget is {FIG2_DRAWS_PER_PAIR} draws per requested pair"
            )
        r, s = random_pairs([rngs[k] for k in pending], config.dim, 2 * config.dim)
        draws += pending.size
        holds, t = abs_condition_rows(r, s)
        kept.append((pending[holds], r.take(holds), s.take(holds), t[holds]))
        pending = pending[~holds]
    positions, rho, sigma, t = zip(*kept)
    order = np.argsort(np.concatenate(positions))
    return (DensityStack.concatenate(rho).take(order),
            DensityStack.concatenate(sigma).take(order),
            np.concatenate(t)[order], draws)


def cmd_fig2(config):
    """Scatter of the reverse-Pinsker bound against the trace-distance bound.

    Pairs are drawn from the environment-doubled Ginibre ensemble
    (environment 2 dim) and rejection-sampled on the positivity condition
    |rho-sigma| <= rho+sigma; the rejection count is printed so the
    effective ensemble is documented.
    Sampling stops with :class:`SamplingBudgetExceeded` (exit code 1) once it
    would need more than ``FIG2_DRAWS_PER_PAIR`` draws per requested pair,
    which happens only when the condition rate is near zero (large dim).

    Both plotted bounds are valid upper bounds on the ``relent`` column.
    The reverse-Pinsker column ``binette_bound_kl`` uses the trace distance,
    a form that holds for the Umegaki relative entropy (hockey-stick
    integral plus a chord bound on each E_g; see
    ``verify.reverse_pinsker_and_binette``) but not for the maximal
    divergence in ``max_relent_div``.

    Samples are processed in the stacks of :func:`states.chunks`.  Each
    candidate stack is checked as states once, when it is drawn, and the
    kept rows are not checked again.  Per kept pair every column comes from
    three decompositions and one spectrum: that of rho - sigma in the
    condition test (the trace distance), sigma's ``eig`` (computed by the
    witness and read again by the relative entropy and the Audenaert-Eisert
    bound), the witness's of the likelihood-ratio operator, and rho's
    ``spectra`` (one ``eigvalsh`` of each kept stack).
    """
    kl = builtin_generator("kl")
    stacks = []
    draws = 0
    for indices in chunks(config.samples, config.dim):
        # a pending sample draws again from its stream in the next round
        rngs = list(substreams(config.seed, (), indices))
        rho, sigma, t, draws = _accepted_pairs(config, rngs, indices.start, draws)
        w = witness_batch(rho, sigma)
        m = w.lambdas[:, 0]
        big_m = w.lambdas[:, -1]
        binette = binette_rhs(m, big_m, t, kl)
        ae = audenaert_eisert_rows(t, rho.spectra[:, 0], sigma.eig.eigenvalues[:, 0])
        relent = relative_entropy_rows(rho, sigma)
        dmax_kl = w.f_divergence(kl)
        stacks.append((t, m, big_m, binette, ae, relent, dmax_kl))
    columns = [np.concatenate(col) for col in zip(*stacks)]
    write_csv(
        config.out_dir / "fig2.csv",
        ("trace_distance", "m", "M", "binette_bound_kl", "ae_bound",
         "relent", "max_relent_div"),
        columns,
    )
    binettes, aes = columns[3], columns[4]
    hi = max(aes.max(), binettes.max()) * 1.05
    canvas = _SvgCanvas((0.0, hi), (0.0, hi),
                        "trace-distance + least-eigenvalue bound",
                        "reverse-Pinsker bound (kl)")
    canvas.parts.append(
        f'<line x1="{canvas.px(0):.2f}" y1="{canvas.py(0):.2f}" '
        f'x2="{canvas.px(hi):.2f}" y2="{canvas.py(hi):.2f}" '
        'stroke="red" stroke-width="1.5"/>'
    )
    canvas.scatter(aes, binettes, PALETTE[0])
    canvas.write(config.out_dir / "fig2.svg")
    below = np.count_nonzero(binettes < aes)
    print(f"fig2: kept {config.samples} pairs, rejected {draws - config.samples}; "
          f"reverse-Pinsker bound tighter on {below}, "
          f"looser on {config.samples - below}")
    return 0


def cmd_condition_rate(config, commuting):
    """Measure how often random pairs satisfy the positivity condition."""
    res = suites.condition_rate(
        dim=config.dim,
        samples=config.samples,
        seed=config.seed,
        commuting=commuting,
    )
    rate = res.rate
    environment = res.environment
    mode = "commuting-diagonal" if commuting else f"ginibre(env={environment})"
    print(f"condition rate: {rate:.4f} over {config.samples} pairs at "
          f"dim={config.dim} ({mode})")
    write_csv(
        config.out_dir / "condition_rate.csv",
        ("dim", "samples", "seed", "environment", "commuting", "satisfied", "rate"),
        [[config.dim], [config.samples], [config.seed], [environment],
         [commuting], [round(rate * config.samples)], [rate]],
    )
    if commuting or config.dim != 4 or config.samples < 1000 or res.passed:
        return 0
    floor = suites.CONDITION_RATE_FLOOR
    if rate > floor:
        print(f"warning: rate in ({floor:.2f}, {suites.MIN_CONDITION_RATE:.2f}]; "
              "ensemble sensitivity suspected", file=sys.stderr)
        return 0
    print(f"condition rate {rate:.4f} fell at or below {floor:.2f}", file=sys.stderr)
    return 1


def cmd_witness(rho_path, sigma_path, fname, bits):
    """Print the witness distributions and residuals for two state files."""
    rho, sigma, w = _read_pair(rho_path, sigma_path)
    residuals = {k: float(v[0]) for k, v in witness_residual_rows(rho, sigma, w).items()}
    passed = max(residuals.values()) <= WITNESS_TOL
    print(f"likelihood-ratio eigenvalues: {_vec(w.lambdas[0])}")
    print(f"r: {_vec(w.r[0])}")
    print(f"s: {_vec(w.s[0])}")
    value = float(w.f_divergence(builtin_generator(fname))[0])
    print(f"maximal {fname} divergence: {_shown(value, fname, bits)}")
    for name, residual in residuals.items():
        print(f"residual {name}: {residual:.3e}")
    print("witness check:", "PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_compare_bounds(rho_path, sigma_path, bits):
    """Print every divergence and bound for two state files.

    One witness supplies (m, M), every maximal divergence and D_max = ln M.
    Sigma's ``eig``, computed by the witness, is read again by the relative
    entropy, the chi-squared value and the Audenaert-Eisert bound.  The
    condition test gives the positivity condition and the trace distance t,
    read by the reverse-Pinsker rows, the Pinsker envelope and the
    Audenaert-Eisert bound.  Rho's spectrum is the one ``eigvalsh`` call.
    """
    rho, sigma, batch = _read_pair(rho_path, sigma_path)
    m, big_m = (float(x) for x in batch.lambdas[0, [0, -1]])
    relent = float(relative_entropy_rows(rho, sigma)[0])
    holds, t = abs_condition_rows(rho, sigma)
    cond, t = bool(holds[0]), float(t[0])
    chi2 = float(chi2_rows(rho, sigma)[0])
    print(f"trace distance: {t:.12g}")
    print(f"m: {m:.12g}   M: {big_m:.12g}")
    print(f"positivity condition |rho-sigma| <= rho+sigma: "
          f"{'satisfied' if cond else 'violated'}")
    print(f"relative entropy: {_shown(relent, 'kl', bits)}")
    print(f"max-relative entropy: {_shown(math.log(big_m), 'kl', bits)}")
    print(f"chi-squared: {chi2:.12g}")
    for name in BUILTIN_NAMES:
        f = builtin_generator(name)
        value = float(batch.f_divergence(f)[0])
        print(f"maximal {name} divergence: {_shown(value, name, bits)}")
        rhs = slack = 0.0  # coinciding states: the trivial 0 <= 0
        if t >= EQUAL_STATES_EPS:
            rhs = binette_rhs(m, big_m, t, f)
            slack = rhs - value
        print(f"  reverse-Pinsker rhs: {_shown(rhs, name, bits)}  (slack {slack:.3e}, "
              f"condition {'met' if cond else 'not met'})")
    envelope = pinsker_chi2_lower(t)
    print(f"Pinsker-type lower envelope of chi-squared: {envelope:.12g} "
          f"(slack {chi2 - envelope:.3e})")
    ae = float(audenaert_eisert_rows([t], rho.spectra[:, 0], sigma.eig.eigenvalues[:, 0])[0])
    print(f"Audenaert-Eisert upper bound: {_shown(ae, 'kl', bits)}")
    return 0


def _read_pair(rho_path, sigma_path):
    """The states of two state files, as one-row stacks, and their witness."""
    rho, sigma = parse_state_file(rho_path).as_stack(), parse_state_file(sigma_path).as_stack()
    return rho, sigma, witness_batch(rho, sigma)


def _shown(value, fname, bits):
    """``value``, a divergence of generator ``fname`` or a bound on one, as the pair
    commands print it.  An entropic value, "kl" (the relative entropy, D_max and the AE
    bound too), carries a unit: nats, or bits as the product with 1 / ln 2, as pinned."""
    if fname != "kl":
        return f"{value:.12g}"
    return f"{value * (1.0 / math.log(2.0)):.12g} bits" if bits else f"{value:.12g} nats"


def _vec(values):
    return "[" + ", ".join(f"{float(v):.12g}" for v in values) + "]"


# ---------------------------------------------------------------------------
# argument parsing


def _setting(cmd, *flags, **kwargs):
    # a setting is absent from the parsed namespace unless given, so it keeps
    # its ExperimentConfig default
    cmd.add_argument(*flags, default=argparse.SUPPRESS, **kwargs)


def _sampling(cmd):
    _setting(cmd, "--dim", type=int, help="state dimension")
    _setting(cmd, "--samples", type=int, help="Monte Carlo sample count")
    _setting(cmd, "--seed", type=int, help="base RNG seed")


def _decay(cmd):
    _setting(cmd, "--lambda", dest="lam", type=float, help="decoherence decay rate")
    _setting(cmd, "--chi0", dest="chi2_0_list", action="append", type=float, metavar="CHI0",
             help="initial chi-squared value (repeatable)")


def _pair(cmd):
    cmd.add_argument("rho_path", metavar="rho", help="state file for rho")
    cmd.add_argument("sigma_path", metavar="sigma", help="state file for sigma")
    cmd.add_argument("--bits", action="store_true", help="display entropic quantities in bits")


def _out(cmd):
    _setting(cmd, "--out", dest="out_dir", type=Path, metavar="OUT",
             help="output directory (default: $QFDIV_OUT, else the working directory)")


def _commuting(cmd):
    cmd.add_argument("--commuting", action="store_true", help="sample commuting (diagonal) pairs")


def _generator(cmd):
    cmd.add_argument("--f", dest="fname", choices=BUILTIN_NAMES, default="kl",
                     help="generator to evaluate")


# each subcommand: its handler, its help summary and its option groups, in
# the order the help lists them
COMMANDS = {
    "verify": (cmd_verify, "run every verification suite", (_sampling, _out)),
    "fig1": (cmd_fig1, "decoherence envelope curves (CSV + SVG)", (_decay, _out)),
    "fig2": (cmd_fig2, "bound-comparison scatter (CSV + SVG)", (_sampling, _out)),
    "condition-rate": (cmd_condition_rate, "positivity-condition satisfaction rate",
                       (_sampling, _out, _commuting)),
    "witness": (cmd_witness, "witness distributions for two state files",
                (_pair, _out, _generator)),
    "compare-bounds": (cmd_compare_bounds, "all divergences and bounds for two state files",
                       (_pair, _out)),
}


def build_parser():
    """A fresh ``qfdiv`` parser of all six subcommands, each accepting exactly
    the options it reads, in the order its help lists them."""
    parser = argparse.ArgumentParser(
        prog="qfdiv",
        description="Classical and quantum f-divergence toolkit: witness "
                    "construction, bound verification, and experiments.",
    )
    sub = parser.add_subparsers(metavar="command", required=True)
    for name, (run, summary, options) in COMMANDS.items():
        cmd = sub.add_parser(name, help=summary)
        cmd.set_defaults(command=run)
        for add in options:
            add(cmd)
    return parser


@cache
def _parser():
    # build_parser is looked up in the module on the first call, so a patch
    # of it takes effect once the cache is cleared
    return build_parser()


def main(argv=None):
    """Run one ``qfdiv`` command; returns its exit code (argparse exits 0 or 2
    itself on help and usage errors).

    The parser is built once per process, on the first call, and kept, so a
    later call pays only for parsing.  The tree binds the ``cmd_*`` handlers
    that ``COMMANDS`` took at import, so patching a ``cmd_*`` function of
    this module does not reach ``main`` (no test patches one).
    ``_parser.cache_clear()`` drops the kept tree.
    """
    args = vars(_parser().parse_args(argv))
    command = args.pop("command")
    try:
        config = ExperimentConfig(**{name: args.pop(name) for name in args.keys() & _SETTINGS})
    except OutOfRange as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        if "rho_path" in args:
            # the state-file commands write nothing: --out is accepted, never made
            return command(**args)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        return command(config, **args)
    except (ParseError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QfdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
