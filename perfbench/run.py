"""bitmean benchmark: sweep-runner throughput, single-call latency, set-up time
and memory per workload, or per-layer numbers from a traced run.

Usage (from the repository root):
  python3 perfbench/run.py --workload pac_pareto --seed 1 --seconds 55 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Closed loop, one client, one thread: each call starts after the previous one
returns. Every workload runs in fresh interpreters started from here, with the
checkout's ``src`` on PYTHONPATH. The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("pac_pareto", "gap_wide")
# Host speed on a shared machine switches between a fast and a slow state that
# lasts seconds, so run medians follow the share of slow time. The gated
# metrics are the fast end of each distribution; the medians and the tail are
# printed alongside but not gated.
END_TO_END_UNITS = {
    "trials_per_s_p95": "1/s",
    "call_ms_p5": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
INFO_UNITS = {"trials_per_s": "1/s", "call_ms_p50": "ms", "call_ms_p95": "ms"}
# Fresh interpreters timed for setup_s in each run; the median is reported.
SETUP_SAMPLES = {"full": 3, "smoke": 1}
WORKER_TIMEOUT_S = 150


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def worker(workload: str, seed: int, seconds: float, mode: str, size: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PERFBENCH_SRC=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} {mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    if trace:
        out = worker(workload, seed, seconds, "trace", size)
        units = out["layers"].pop("trace.units")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in out["layers"].items()}
        print(f"{workload}: {units} traced units, values per unit")
    else:
        # Set-up samples are taken before and after the measuring worker, so
        # their median spans the run rather than one moment of host load.
        extra = SETUP_SAMPLES[size] - 1
        setups = [worker(workload, seed, seconds, "setup", size)["setup_s"]
                  for _ in range(extra // 2)]
        out = worker(workload, seed, seconds, "measure", size)
        setups.append(out["setup_s"])
        setups += [worker(workload, seed, seconds, "setup", size)["setup_s"]
                   for _ in range(extra - extra // 2)]
        out["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": out[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"{workload}: {out['runner_calls']} runner calls, {out['calls']} "
              f"single calls timed, setup median of {len(setups)} interpreters")
        for name, unit in INFO_UNITS.items():
            print(f"  {name:44s} {out[name]:>16.6f} {unit} (not gated)")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.6f} {m['unit']}")
    print(f"  {'failed_frac':44s} {out['failed'] / out['attempted']:>16.6f} "
          f"({out['failed']} of {out['attempted']} trials)")
    for failure in out["failures"]:
        print(f"  FAILED: {failure}")
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                        help="'smoke' shrinks every unit of work, for a quick check")
    args = parser.parse_args()

    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "bitmean" / "__init__.py").is_file():
        print(f"no bitmean sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      args.size) for name in names}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
