"""Quick self-check of the benchmark at tiny size (about half a minute).

Usage (from the repository root):
  python3 perfbench/smoke.py

Checks, for every workload:
- an untraced and a traced run print every metric of BENCHMARK.json with its
  unit, and all output checks pass;
- two traced runs at one seed give bit-identical exact counts;
- each output check fires when its expected value is wrong;
and that the benchmark exits nonzero, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_smoke"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: output checks failed\n{proc.stdout}")
    return result


def check_metrics(result: dict, declared: list, label: str) -> None:
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        raise AssertionError(f"{label}: metrics differ from BENCHMARK.json: "
                             f"missing {sorted(expected.keys() - got.keys())}, "
                             f"extra {sorted(got.keys() - expected.keys())}, "
                             f"units {[n for n in got if got[n] != expected.get(n)]}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            raise AssertionError(f"{label}: {name} = {m['value']!r}")


def check_the_checks(workload_names) -> None:
    """Each output check must fail when its expected value is off by one."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    def fires(name, spoil, via="runner") -> None:
        wl = workloads.make(name, seed=1, size="smoke")
        wl.setup()
        spoil(wl)
        ledger = workloads.Ledger()
        if via == "runner":
            wl.runner(ledger)
        else:
            wl.check_call(0, wl.call(*wl.call_args(0)), ledger)
        ledger.close(wl.floors)
        if ledger.failed == 0:
            raise AssertionError(f"{name}: a spoiled expectation went unnoticed ({via})")

    def bump(attr):
        return lambda wl: setattr(wl, attr, getattr(wl, attr) + 1)

    def impossible_floors(wl):
        wl.floors = {rate: 1.1 for rate in wl.floors}

    for name in workload_names:
        fires(name, impossible_floors)
        fires(name, bump("expected_total"))
        if name == "gap_wide":
            fires(name, bump("expected_baseline"))
            fires(name, bump("expected_baseline"), via="call")
        else:
            fires(name, bump("expected_total"), via="call")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for name in names:
        common = ["--workload", name, "--seed", "3", "--seconds", "1", "--size", "smoke"]
        check_metrics(result_of(run(*common, "--trace", "0"), f"{name} untraced"),
                      bench["end_to_end"], f"{name} untraced")
        traced = [result_of(run(*common, "--trace", "1"), f"{name} traced")
                  for _ in range(2)]
        check_metrics(traced[0], bench["per_layer"], f"{name} traced")
        counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
                  for r in traced]
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            raise AssertionError(f"{name}: exact counts differ between runs: {diff}")
        print(f"ok  {name}: metrics, units, output checks, repeated counts")

    check_the_checks(names)
    print("ok  every output check fires on a wrong expected value")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        shutil.copytree(HERE, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        proc = run("--workload", names[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=SCRATCH)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        raise AssertionError(f"benchmark without sources exited {proc.returncode}:\n"
                             f"{proc.stdout}")
    print(f"ok  without library sources: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
