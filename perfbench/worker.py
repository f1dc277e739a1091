"""One benchmark process: set up a workload in a fresh interpreter, then
measure it untraced or traced, and print one JSON line.

Modes:
  setup   - time ``import bitmean`` plus fixture construction, then exit;
  measure - also run the timed runner and call loops with tracing off;
  trace   - run fixed units of work untraced, then traced, for per-layer numbers.

Run through ``run.py``, which points PYTHONPATH at the checkout's ``src``.
"""

from __future__ import annotations

import time

# setup_s counts from here: every import below, bitmean's included, is set-up.
SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# Share of a traced run spent on untraced reference units.
UNTRACED_SHARE = 0.25
# Least timed runner calls, and least single calls, per run: enough to leave
# at least ten samples beyond the reported 95th / 5th percentiles.
MIN_SAMPLES = {"full": 200, "smoke": 3}


def nearest_rank(sorted_values: list, share: float):
    return sorted_values[max(1, math.ceil(share * len(sorted_values))) - 1]


def timed_runs(wl, ledger, seconds: float, size: str) -> dict:
    """Warm up, then alternate whole runner calls and single public calls.

    Host speed drifts over seconds, so the two loops are interleaved, each
    getting about half of the time, rather than run one after the other.
    """
    wl.runner(ledger)
    for i in range(3):
        wl.check_call(i, wl.call(*wl.call_args(i)), ledger)

    rates, trials, runner_s = [], 0, 0.0
    latencies, call_s = [], 0.0
    i = 3
    start = time.perf_counter()
    while True:
        in_time = time.perf_counter() - start < seconds
        short_runner = len(rates) < MIN_SAMPLES[size]
        if not (in_time or short_runner or len(latencies) < MIN_SAMPLES[size]):
            break
        # Keep the two loops' time even; past the deadline, top up the
        # samples that are still short, runner calls first.
        do_runner = runner_s <= call_s if in_time else short_runner
        if do_runner:
            result = wl.runner(ledger)
            rates.append(result.trials / result.seconds)
            trials += result.trials
            runner_s += result.seconds
        else:
            args = wl.call_args(i)
            t0 = time.perf_counter()
            out = wl.call(*args)
            latency = time.perf_counter() - t0
            wl.check_call(i, out, ledger)
            latencies.append(latency)
            call_s += latency
            i += 1

    rates.sort()
    latencies.sort()
    return {
        "trials_per_s_p95": nearest_rank(rates, 0.95),
        "call_ms_p5": 1e3 * nearest_rank(latencies, 0.05),
        "trials_per_s": trials / runner_s,
        "call_ms_p50": 1e3 * statistics.median(latencies),
        "call_ms_p95": 1e3 * nearest_rank(latencies, 0.95),
        "runner_calls": len(rates),
        "calls": len(latencies),
    }


def run_unit(wl, ledger) -> tuple[float, int, int]:
    """One runner call plus the unit's public calls: (wall s, queries, CSV bytes)."""
    start = time.perf_counter()
    result = wl.runner(ledger)
    queries = result.queries
    for i in range(wl.size.calls):
        queries += wl.check_call(i, wl.call(*wl.call_args(i)), ledger)
    return time.perf_counter() - start, queries, result.csv_bytes


def traced_runs(wl, ledger, seconds: float) -> dict:
    """Per-unit layer numbers; every exact count must repeat unit after unit."""
    from tracing import LAYERS, Tracer

    _, queries, csv_bytes = run_unit(wl, ledger)  # warm-up
    untraced = []
    start = time.perf_counter()
    while len(untraced) < 2 or time.perf_counter() - start < seconds * UNTRACED_SHARE:
        wall, q, b = run_unit(wl, ledger)
        ledger.require("untraced units repeat queries and CSV bytes",
                       (q, b) == (queries, csv_bytes))
        untraced.append(wall)

    tracer = Tracer()
    walls, counts = [], None
    before = tracer.snapshot()
    start = time.perf_counter()
    with tracer.installed():
        while len(walls) < 2 or \
                time.perf_counter() - start < seconds * (1.0 - UNTRACED_SHARE):
            wall, q, b = run_unit(wl, ledger)
            walls.append(wall)
            after = tracer.snapshot()
            unit = {k: v - before[k] for k, v in after.items() if not k.endswith("_s")}
            before = after
            ledger.require("traced units repeat every exact count",
                           counts is None or unit == counts)
            ledger.require("traced and untraced units agree on queries and CSV bytes",
                           (q, b) == (queries, csv_bytes))
            counts = unit

    ledger.require("traced channel.queries equals the reports' query counts",
                   counts["channel.queries"] == queries)
    ledger.require("traced write_csv bytes equal the runners' CSV text",
                   counts["harness.write_csv.bytes"] == csv_bytes)

    n = len(walls)
    final = tracer.snapshot()
    metrics = {f"{layer}.calls": counts[f"{layer}.calls"] for layer in LAYERS}
    metrics.update({f"{layer}.self_s": final[f"{layer}.self_s"] / n for layer in LAYERS})
    respond = counts["channel.respond_count.calls"]
    metrics["channel.queries"] = counts["channel.queries"]
    metrics["channel.prob_cache_hit_ratio"] = (
        1.0 - counts["channel.prob_cache_misses"] / respond if respond else 0.0)
    metrics["harness.write_csv.bytes"] = counts["harness.write_csv.bytes"]
    wall = sum(walls) / n
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = wall - sum(
        metrics[f"{layer}.self_s"] for layer in LAYERS)
    metrics["trace.overhead_ratio"] = wall / statistics.fmean(untraced)
    metrics["trace.units"] = n
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--size", choices=tuple(MIN_SAMPLES), default="full")
    args = parser.parse_args()

    import bitmean
    import workloads

    src = os.environ["PERFBENCH_SRC"]
    if os.path.dirname(os.path.realpath(bitmean.__file__)) != \
            os.path.join(os.path.realpath(src), "bitmean"):
        print(f"bitmean imported from {bitmean.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, args.size)
    wl.setup()
    out = {"setup_s": time.perf_counter() - SETUP_START}
    if args.mode != "setup":
        ledger = workloads.Ledger()
        if args.mode == "measure":
            out.update(timed_runs(wl, ledger, args.seconds, args.size))
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            out["layers"] = traced_runs(wl, ledger, args.seconds)
        ledger.close(wl.floors)
        out.update(attempted=ledger.attempted, failed=ledger.failed,
                   failures=ledger.failures[:20])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
