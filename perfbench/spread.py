"""Run the benchmark several times with different seeds and report, per
end-to-end metric, the median and the quartile spread as a share of the median.

Usage (from the repository root):
  python3 perfbench/spread.py --workload gap_wide --runs 10 --seconds 10

Spreads are compared with the bounds in BENCHMARK.json when it is present.
``--json`` writes the per-run values and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    bench_file = HERE.parent / "BENCHMARK.json"
    bounds = {}
    if bench_file.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(bench_file.read_text())["end_to_end"]}

    values: dict[str, list[float]] = {}
    durations = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        durations.append(time.perf_counter() - start)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {max(durations):.1f} s longest run")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / q2
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        verdict = "" if bound is None else \
            f"  bound {bound}: {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"  {name:14s} median {q2:12.5f}  q1 {q1:12.5f}  q3 {q3:12.5f}  "
              f"spread {spread:7.4f}{verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds, "values": values,
             "summary": summary, "run_seconds_max": max(durations)}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
