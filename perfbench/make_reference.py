"""Regenerate reference.json: the observables of every op of the
DEFAULT_SEED pool of every workload, as the current qfdiv computes them.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
compares later commits against this file.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    sys.path.insert(0, str(run.SRC))
    from qfdiv import cli

    work = run.OUT / f"reference-{os.getpid()}"
    out_dir = work / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            reference[name] = {}
            for op in workload.make_ops(workloads.DEFAULT_SEED, work / "inputs"):
                _, results = run.run_calls(cli, op, out_dir)
                reference[name][op.key] = workload.check(op, results, out_dir)
            print(f"{name}: {len(reference[name])} ops", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
