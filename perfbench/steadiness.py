"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload fig2-scatter --seeds 1 2 3 4 5

For every metric of the run's JSON line this prints the median over the
runs and the distance between the first and third quartile as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from BENCHMARK.json.  Results also go to
``.perfbench_out/steadiness-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        spread = stats.quartile_spread(values) if len(values) > 1 else 0.0
        summary[name] = {"median": statistics.median(values), "spread": spread,
                         "bound": bounds.get(name), "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:24s} median {statistics.median(values):12.6g}  spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    print(f"all correct: {all(r['correct'] for r in runs)}")
    out = ROOT / ".perfbench_out" / f"steadiness-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "summary": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
