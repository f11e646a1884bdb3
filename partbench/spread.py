"""Run one workload over several seeds and report each metric's spread.

    python3 partbench/spread.py --workload count-deep --runs 10

For every end-to-end metric it prints the median of the runs, the
quartiles from statistics.quantiles(values, n=4), the spread
(q3 - q1) / median, and that spread as a share of the metric's bound in
BENCHMARK.json.  The summary is also written to .partbench/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = defaultdict(list)
    all_correct = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "partbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        all_correct = all_correct and result["correct"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} {shown}", flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "correct": all_correct, "metrics": {}}
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        summary["metrics"][metric["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "share_of_bound": spread / metric["bound"], "values": vals,
        }
        print(f"{metric['name']:>14}: median {median:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  "
              f"spread {spread:.3f}  = {spread / metric['bound']:.2f} of bound {metric['bound']}")
    (ROOT / ".partbench").mkdir(exist_ok=True)
    (ROOT / ".partbench" / f"spread-{args.workload}-from{args.first_seed}.json").write_text(
        json.dumps(summary, indent=1))
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
