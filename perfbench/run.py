"""qfdiv benchmark: one workload as a closed loop of in-process CLI calls.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 25 --trace 0

One client in one process sends the next op only when the previous one has
returned.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same ops untraced and then traced, and prints the per-layer metrics
and the tracing overhead.  Every op's output is checked.  The last line of
standard output is one JSON object; a run record with the metadata goes to
``.perfbench_out/`` at the root of the checkout.  See README.md here.
"""

import os

# one BLAS thread on both sides of every comparison; must precede numpy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_RUNS = 7
# prints the seconds a fresh interpreter spends importing qfdiv.cli and
# building the builtin generators, leaving out interpreter start-up
SETUP_CODE = ("from time import perf_counter\n"
              "start = perf_counter()\n"
              "import qfdiv.cli\n"
              "from qfdiv.generators import builtin_generator\n"
              "for name in ('kl', 'chi2', 'tv'):\n"
              "    builtin_generator(name)\n"
              "print(perf_counter() - start)\n")
END_TO_END = [
    ("pairs_per_s", "pairs/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def measure_setup():
    """Median import-and-build time over SETUP_RUNS fresh interpreters,
    after one unmeasured run that compiles bytecode, read at reference
    host speed with the calibration loop timed before each interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cal = hostspeed.Calibration()
    times = []
    for i in range(SETUP_RUNS + 1):
        cal.sample()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, capture_output=True, text=True, timeout=60)
        if i:
            times.append(float(proc.stdout))
    cal.sample()
    raw = statistics.median(times)
    return raw * cal.overall_factor(), raw


def run_calls(cli, op, out_dir):
    """Run an op's CLI calls; returns (seconds, results)."""
    results = []
    start = time.perf_counter()
    for argv in op.calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([*argv, "--out", str(out_dir)])
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
        results.append(workloads.CallResult(code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


@dataclass
class Phase:
    raw: list     # op seconds as measured
    scaled: list  # op seconds at reference host speed
    pairs: int
    observed: list
    calibration: list  # loop seconds, before each attempted op and after the last


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, cli, checker, out_dir):
        self.cli = cli
        self.checker = checker
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, op, op_id, tracer=None):
        """One checked op; returns (seconds, observables or None if it failed)."""
        self.attempted += 1
        scope = tracer.op(op_id) if tracer else contextlib.nullcontext()
        try:
            with scope:
                seconds, results = run_calls(self.cli, op, self.out_dir)
            return seconds, self.checker.check(op, results, self.out_dir)
        except workloads.CheckFailed as exc:
            self._fail(f"{op.key}: {exc}")
        except Exception:  # an op that raises is a failed op; keep running
            self._fail(f"{op.key}: raised\n{traceback.format_exc()}")
        return None, None

    def _fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)
            print(f"op failed: {message}", file=sys.stderr)

    def phase(self, ops, seconds, tracer=None):
        """Closed loop over the op pool for ``seconds``, timing the
        calibration loop before each op; returns a Phase of the ops that
        passed their checks."""
        done, pairs, observed = [], 0, []
        cal = hostspeed.Calibration()
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            cal.sample()
            op = ops[i % len(ops)]
            seconds_op, obs = self.attempt(op, i, tracer)
            if obs is not None:
                done.append((i, seconds_op))
                pairs += op.pairs
                observed.append(obs)
            i += 1
        cal.sample()
        return Phase(raw=[d for _, d in done],
                     scaled=[d * cal.factor(j) for j, d in done],
                     pairs=pairs, observed=observed, calibration=cal.times)


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata(args, workload):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "op_sizes": workload.sizes,
        "pool": workloads.POOL,
    }


def end_to_end(phase, setup_s):
    """End-to-end metrics, op timings read at reference host speed."""
    ms = [d * 1e3 for d in phase.scaled]
    tail, pct, beyond = stats.tail_percentile(ms)
    metrics = {
        "pairs_per_s": phase.pairs / sum(phase.scaled),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"tail_percentile": pct, "tail_ops_beyond": beyond, "ops": len(ms)}


def traced_metrics(runner, ops, seconds, untraced, spans_path):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = runner.phase(ops, seconds, tracer)
    leftovers = tracing.wrapped_bindings()
    if leftovers:
        raise RuntimeError(f"tracing wrappers left installed: {leftovers}")
    if not traced.raw:
        raise RuntimeError("no traced op succeeded")
    tracer.write_spans(spans_path)
    metrics = tracing.layer_metrics(tracer, traced.pairs)
    kept = sum(o.get("kept", 0) for o in traced.observed)
    drawn = kept + sum(o.get("rejected", 0) for o in traced.observed)
    metrics["cli.fig2.accept_ratio"] = kept / drawn if drawn else 0.0
    base = statistics.median(untraced.scaled)
    overhead = statistics.median(traced.scaled) - base
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / base
    return {name: metrics[name] for name, _, _ in tracing.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfdiv" / "cli.py").is_file():
        print(f"error: no qfdiv sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    setup_s, setup_raw_s = (None, None) if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from qfdiv import cli

    with open(REFERENCE, encoding="ascii") as fh:
        reference = json.load(fh)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.make_ops(args.seed, run_dir / "inputs")
        anchor = workload.make_ops(workloads.DEFAULT_SEED, run_dir / "anchor")[0]
        runner = Runner(cli, workloads.Checker(workload, reference[workload.name]),
                        out_dir)
        # warm-up: the first op of the reference seed, checked against the
        # reference floats whatever the workload seed
        runner.attempt(anchor, -1)
        phase_s = args.seconds / 2 if args.trace else args.seconds
        phase = runner.phase(ops, phase_s)
        if not phase.raw:
            raise RuntimeError("no op succeeded")
        if args.trace:
            metrics = traced_metrics(
                runner, ops, phase_s, phase,
                OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            info = {}
        else:
            metrics, info = end_to_end(phase, setup_s)
            info["setup_raw_s"] = setup_raw_s
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    info.update(attempted=runner.attempted, failed=runner.failed,
                failed_frac=runner.failed / runner.attempted, errors=runner.errors)
    record = {"meta": metadata(args, workload), "info": info, "metrics": metrics,
              "raw_op_ms": [d * 1e3 for d in phase.raw],
              "scaled_op_ms": [d * 1e3 for d in phase.scaled],
              "calibration_ms": [c * 1e3 for c in phase.calibration]}
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii")

    meta = record["meta"]
    print(f"workload {workload.name} seed {args.seed}: {len(phase.raw)} timed ops, "
          f"raw median {statistics.median(phase.raw) * 1e3:.4g} ms; "
          f"python {meta['python']}, numpy {meta['numpy']}, {meta['blas']} "
          f"threads={meta['blas_threads']}, nproc {meta['nproc']}, {meta['cpu_model']}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"op_ms_tail is p{info['tail_percentile']:.1f} over {info['ops']} ops "
              f"({info['tail_ops_beyond']} beyond)")
    print(f"failed_frac {info['failed_frac']:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
