"""The benchmark's workloads, driven only through bitmean's public API.

Each workload has a sweep runner (one harness call over a fixed number of
trials) and a single public call, plus the output checks for both. The
workload seed reaches the library only through ``ExperimentConfig.seed`` and
``trial_rng``. Library functions are looked up through their module at call
time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import bitmean as bm
from bitmean import harness

from tracing import rebind, restore

SIGMA = 1.0
PAC_LAM = 16.0 * SIGMA
WIDE_LAM = 2.0 ** 10 * SIGMA


@dataclass(frozen=True)
class Size:
    """How much work one unit (one runner call plus ``calls`` public calls) does."""

    trials: int
    calls: int


class Ledger:
    """Output checks: per-trial verdicts and success rates with their floors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._rates: dict[str, list[int]] = {}

    def trial(self, label: str, checks: dict[str, bool]) -> None:
        self.attempted += 1
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{label}: {', '.join(bad)}")

    def outcome(self, rate: str, success: bool) -> None:
        tally = self._rates.setdefault(rate, [0, 0])
        tally[0] += int(success)
        tally[1] += 1

    def require(self, check: str, ok: bool) -> None:
        """A check on the run as a whole; a miss counts as one failure."""
        if not ok:
            self.failed += 1
            self.failures.append(check)

    def close(self, floors: dict[str, float]) -> None:
        for rate, floor in floors.items():
            hits, total = self._rates.get(rate, (0, 0))
            self.require(f"{rate} {hits}/{total} below {floor}",
                         total > 0 and hits / total >= floor)


@dataclass
class RunnerResult:
    trials: int
    queries: int
    csv_bytes: int
    seconds: float  # wall time of the harness calls alone


class Pac:
    """``run_pac`` sweeps and single ``estimate_mean`` calls on one fixture."""

    delta = 0.2

    def __init__(self, name: str, fixture: str, k: float, eps: float, size: Size,
                 seed: int):
        self.name, self.fixture_name, self.k, self.eps = name, fixture, k, eps
        self.size, self.seed = size, seed
        self.floors = {"pac_success": 1.0 - self.delta}

    def setup(self) -> None:
        self.fixture = bm.acceptance_matrix(sigma=SIGMA, lam=PAC_LAM)[self.fixture_name]
        self.config = bm.ExperimentConfig(
            fixture=self.fixture_name, k=self.k, lam=PAC_LAM, sigma=SIGMA, eps=self.eps,
            delta=self.delta, trials=self.size.trials, seed=self.seed, threads=1)
        self.expected_total = bm.predict_cost(self.fixture.params, self.eps,
                                              self.delta).total

    def runner(self, ledger: Ledger) -> RunnerResult:
        start = time.perf_counter()
        rows, _, text = bm.run_pac(self.config)
        seconds = time.perf_counter() - start
        for row in rows:
            mu_hat, success, n_total = row[4], row[7], row[10]
            ledger.trial(f"{self.name} runner trial {row[1]}", {
                "n_total == predict_cost": n_total == self.expected_total,
                "mu_hat finite": math.isfinite(mu_hat),
            })
            ledger.outcome("pac_success", bool(success))
        return RunnerResult(len(rows), sum(row[10] for row in rows),
                            len(text.encode("utf-8")), seconds)

    def call_args(self, i: int) -> tuple:
        rng = bm.trial_rng(self.seed, f"perfbench/{self.name}", i)
        return (bm.Agent(self.fixture.dist, rng), self.fixture.params, self.eps,
                self.delta)

    @staticmethod
    def call(*args):
        return bm.estimate_mean(*args)

    def check_call(self, i: int, report, ledger: Ledger) -> int:
        ledger.trial(f"{self.name} call {i}", {
            "n_total == predict_cost": report.n_total == self.expected_total,
            "mu_hat finite": math.isfinite(report.mu_hat),
        })
        ledger.outcome("pac_success", abs(report.mu_hat - self.fixture.mean) <= self.eps)
        return report.n_total


class Gap:
    """``run_gap`` at the adaptive cost and single ``nonadaptive_baseline`` calls."""

    k, eps, delta = 2.0, SIGMA / 8.0, 0.1
    floors = {"gap_adaptive_success": 0.9}

    def __init__(self, name: str, size: Size, seed: int):
        self.name, self.size, self.seed = name, size, seed

    def setup(self) -> None:
        self.params = bm.FamilyParams(self.k, WIDE_LAM, SIGMA)
        self.grid = bm.make_pair_grid(WIDE_LAM, SIGMA, self.eps)
        self.expected_total = bm.predict_cost(self.params, self.eps, self.delta).total
        self.budget = self.expected_total
        slots = 2 * self.grid.n_pairs
        self.expected_baseline = (self.budget // slots) * slots
        self.config = bm.ExperimentConfig(
            k=self.k, lam=WIDE_LAM, sigma=SIGMA, eps=self.eps, delta=self.delta,
            trials=self.size.trials, seed=self.seed, threads=1)

    def runner(self, ledger: Ledger) -> RunnerResult:
        # run_gap returns only success rates, so the per-trial reports are
        # captured where the harness calls the estimators.
        adaptive, baseline = [], []
        undo = []
        try:
            for fn, sink in ((harness.estimate_mean, adaptive),
                             (harness.nonadaptive_baseline, baseline)):
                undo += rebind(fn, _capture(fn, sink))
            start = time.perf_counter()
            rows, text = bm.run_gap(self.config)
            seconds = time.perf_counter() - start
        finally:
            restore(undo)
        for trial, report in enumerate(adaptive):
            ledger.trial(f"{self.name} adaptive trial {trial}", {
                "n_total == predict_cost": report.n_total == self.expected_total,
                "mu_hat finite": math.isfinite(report.mu_hat),
            })
        for trial, est in enumerate(baseline):
            ledger.trial(f"{self.name} baseline trial {trial}", {
                "samples_used == (budget // 2N) 2N":
                    est.samples_used == self.expected_baseline,
                "mu_hat finite": math.isfinite(est.mu_hat),
            })
        ledger.require(f"{self.name} runner captured every trial",
                       len(adaptive) == len(baseline) == self.config.trials)
        (_, _, adaptive_rate, trials), _ = rows
        successes = round(adaptive_rate * trials)
        for trial in range(trials):
            ledger.outcome("gap_adaptive_success", trial < successes)
        queries = sum(r.n_total for r in adaptive) + sum(e.samples_used for e in baseline)
        return RunnerResult(len(adaptive), queries, len(text.encode("utf-8")), seconds)

    def call_args(self, i: int) -> tuple:
        rng = bm.trial_rng(self.seed, f"perfbench/{self.name}", i)
        pair = int(rng.integers(1, self.grid.n_pairs + 1))
        sign = 1 if rng.random() < 0.5 else -1
        agent = bm.Agent(self.grid.member(pair, sign), rng)
        return agent, WIDE_LAM, SIGMA, self.eps, self.budget

    @staticmethod
    def call(*args):
        return bm.nonadaptive_baseline(*args)

    def check_call(self, i: int, est, ledger: Ledger) -> int:
        # The baseline's success rate is not checked: its hard-instance
        # acceptance criterion is still open.
        ledger.trial(f"{self.name} call {i}", {
            "samples_used == (budget // 2N) 2N": est.samples_used == self.expected_baseline,
            "mu_hat finite": math.isfinite(est.mu_hat),
        })
        return est.samples_used


def _capture(fn, sink: list):
    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        sink.append(result)
        return result
    return capture


# Unit sizes: one runner call takes roughly 0.05-0.15 s on a 2-core x86
# machine, so a run of 55 s times well over the 200 it needs.
SIZES = {
    "full": {"pac_pareto": Size(8, 8), "gap_wide": Size(4, 4)},
    "smoke": {"pac_pareto": Size(2, 2), "gap_wide": Size(1, 2)},
}

BUILDERS = {
    "pac_pareto": lambda unit, seed: Pac("pac_pareto", "pareto15", 1.5, SIGMA / 64.0,
                                         unit, seed),
    "gap_wide": lambda unit, seed: Gap("gap_wide", unit, seed),
}


def make(name: str, seed: int, size: str = "full"):
    return BUILDERS[name](SIZES[size][name], seed)
