"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads trajectory cli --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --json perfbench/out/runs.json

Runs are sequential.  For every workload and end-to-end metric it prints the
median, the quartiles and the spread, (Q3 - Q1) / median, next to the bound
in BENCHMARK.json; a spread above a third of the bound is marked.  Quartiles
are those of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--json", help="also write every run's result to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().split("\n")[-1])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} {values}", flush=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {
                "n": len(values), "median": median, "q1": q1, "q3": q3, "spread": spread,
            }
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:12s} median {median:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {spread:.3f} (bound {bound}){flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
