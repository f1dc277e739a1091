"""Experiment orchestration: PAC sweeps, scaling studies, the adaptivity-gap
experiment, the analytic verification suite, and reproducible seeding.

Per-trial random streams are derived as
``default_rng(SeedSequence([base_seed, crc32(experiment_id), trial_index]))``
so results are independent of scheduling and thread count.  CSV output is
RFC-4180 style with a header row, '.' decimals, UTF-8.
"""

from __future__ import annotations

import csv
import io
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.stats import beta

from .channel import Agent
from .distributions import Distribution, FamilyParams, make_discrete, \
    make_gaussian_budget_tight, make_point_mass, make_two_sided_pareto, validate_family
from .hardness import PairGrid, make_k2_pair, make_pair_grid, nonadaptive_baseline, \
    verify_kl_bound
from .localization import gray_change_points, gray_decode, gray_bit_value, \
    localize_gray, localize_median
from .refine import analytic_region_mean, build_plan, estimate_mean, predict_cost
from .variants import anytime_estimate, unknown_scale_estimate

__all__ = [
    "trial_rng",
    "ExperimentConfig",
    "Fixture",
    "acceptance_matrix",
    "fixture_from_spec",
    "run_pac",
    "run_scaling",
    "run_localize",
    "run_gap",
    "run_anytime",
    "run_scale_adapt",
    "VerifyReport",
    "run_verify",
    "binomial_lower_bound",
    "write_csv",
]


def trial_rng(base_seed: int, experiment_id: str, trial: int) -> np.random.Generator:
    """Independent stream for one trial; the mixing is fixed and documented."""
    tag = zlib.crc32(experiment_id.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([base_seed, tag, trial]))


@dataclass(frozen=True)
class Fixture:
    name: str
    dist: Distribution
    params: FamilyParams

    @property
    def mean(self) -> float:
        return self.dist.mean()


@dataclass
class ExperimentConfig:
    fixture: str = "gauss_tight"
    k: float = 2.0
    lam: float = 16.0
    sigma: float = 1.0
    eps: float = 0.25
    delta: float = 0.2
    profile: str = "empirical"
    trials: int = 100
    seed: int = 20260808
    out: str | None = None
    budgets: tuple[int, ...] = ()
    eps_list: tuple[float, ...] = ()
    method: str = "median"
    ratio: float = 0.25
    sigma_min: float = 1.0
    sigma_max: float = 16.0
    budget: int = 0
    two_stage: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def acceptance_matrix(sigma: float = 1.0, lam: float = 16.0) -> dict[str, Fixture]:
    """The fixture matrix the acceptance criteria sweep.

    Pair-grid members carry a sigma/10 mean shift, the finite-variance hard
    pair a sigma/48 one; the Pareto fixture exercises k in (1, 2); both
    Gaussian fixtures are sized so the moment budget binds exactly.
    """
    grid = make_pair_grid(lam, sigma, sigma / 10.0)
    mid = (grid.n_pairs + 1) // 2
    k2 = make_k2_pair(sigma, sigma / 48.0, lam)
    fixtures = [
        Fixture("pair_plus_center", grid.member(mid, 1),
                FamilyParams(2.0, lam, sigma)),
        Fixture("pair_minus_edge", grid.member(1, -1),
                FamilyParams(2.0, lam, sigma)),
        Fixture("k2_null", k2.null, FamilyParams(2.0, lam, sigma)),
        Fixture("k2_mixture", k2.mixture, FamilyParams(2.0, lam, sigma)),
        Fixture("pareto15", make_two_sided_pareto(1.5, sigma, mu=0.3 * sigma, alpha=1.9),
                FamilyParams(1.5, lam, sigma)),
        Fixture("gauss_tight", make_gaussian_budget_tight(2.0, sigma, mu=0.77 * sigma),
                FamilyParams(2.0, lam, sigma)),
        Fixture("gauss_tight_k3", make_gaussian_budget_tight(3.0, sigma, mu=-1.3 * sigma),
                FamilyParams(3.0, lam, sigma)),
        Fixture("point_mass", make_point_mass(1.7 * sigma),
                FamilyParams(2.0, lam, sigma)),
    ]
    return {f.name: f for f in fixtures}


def fixture_from_spec(spec: dict, k: float, lam: float, sigma: float) -> Fixture:
    """Build a fixture from the CLI config format: ``kind`` plus kind keys.

    kinds: discrete-mixture (points, probs), point-mass (location),
    two-sided-pareto (alpha, mu, sigma_target), gaussian (mu, sigma_target).
    """
    kind = spec.get("kind")
    params = FamilyParams(k=k, lam=lam, sigma=sigma)
    if kind == "discrete-mixture":
        dist: Distribution = make_discrete(spec["points"], spec["probs"])
    elif kind == "point-mass":
        dist = make_point_mass(float(spec["location"]))
    elif kind == "two-sided-pareto":
        dist = make_two_sided_pareto(k, float(spec.get("sigma_target", sigma)),
                                     mu=float(spec.get("mu", 0.0)),
                                     alpha=float(spec["alpha"]))
    elif kind == "gaussian":
        dist = make_gaussian_budget_tight(k, float(spec.get("sigma_target", sigma)),
                                          mu=float(spec.get("mu", 0.0)))
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return Fixture(spec.get("name", kind), dist, params)


def _resolve_fixture(config: ExperimentConfig) -> Fixture:
    matrix = acceptance_matrix(sigma=config.sigma, lam=config.lam)
    if config.fixture not in matrix:
        raise KeyError(
            f"unknown fixture {config.fixture!r}; available: {sorted(matrix)}"
        )
    return matrix[config.fixture]


def _run_trials(config: ExperimentConfig, exp_id: str, source: Distribution | PairGrid,
                body: Callable[[int, Agent, Distribution], object]) -> list:
    """One row per trial: ``body(trial, agent, dist)`` on the trial's own stream.

    ``source`` is either the trial distribution or a pair grid; from a grid
    each trial first draws a uniform member (pair index, then sign) from its
    stream, and the agent answers from the rest of that stream.
    """
    def one(trial: int):
        rng = trial_rng(config.seed, exp_id, trial)
        dist = source
        if isinstance(source, PairGrid):
            j = int(rng.integers(1, source.n_pairs + 1))
            dist = source.member(j, 1 if rng.random() < 0.5 else -1)
        return body(trial, Agent(dist, rng), dist)

    if config.threads <= 1:
        return [one(i) for i in range(config.trials)]
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        return list(pool.map(one, range(config.trials)))


def write_csv(path: str | None, header: list[str], rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def binomial_lower_bound(successes: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson lower bound on the success probability."""
    if successes == 0:
        return 0.0
    return float(beta.ppf(1.0 - confidence, successes, trials - successes + 1))


def run_pac(config: ExperimentConfig):
    """Per-trial PAC rows plus a summary with the binomial lower bound."""
    fixture = _resolve_fixture(config)
    exp_id = f"pac/{fixture.name}/{config.eps}/{config.delta}/{config.profile}"
    mu_true = fixture.mean

    def body(trial: int, agent: Agent, dist: Distribution):
        report = estimate_mean(agent, fixture.params, config.eps, config.delta,
                               profile=config.profile)
        err = abs(report.mu_hat - mu_true)
        return (fixture.name, trial, config.seed, mu_true, report.mu_hat, err,
                config.eps, int(err <= config.eps), report.n_localization,
                report.n_refinement, report.n_total)

    rows = _run_trials(config, exp_id, fixture.dist, body)
    successes = sum(r[7] for r in rows)
    header = ["fixture", "trial", "seed", "mu_true", "mu_hat", "abs_err", "eps",
              "success", "n_loc", "n_ref", "n_total"]
    text = write_csv(config.out, header, rows)
    summary = {
        "fixture": fixture.name,
        "trials": config.trials,
        "successes": successes,
        "success_rate": successes / config.trials,
        "lower_bound_95": binomial_lower_bound(successes, config.trials),
    }
    return rows, summary, text


def run_scaling(config: ExperimentConfig):
    """Predicted-cost rows over an eps list with adjacent ratios appended."""
    if len(config.eps_list) < 2:
        raise ValueError("scaling study needs at least two eps values")
    params = FamilyParams(k=config.k, lam=config.lam, sigma=config.sigma)
    rows = []
    prev = None
    for eps in config.eps_list:
        cost = predict_cost(params, eps, config.delta, config.profile)
        ratio = "" if prev is None else f"{cost.refinement / prev:.6f}"
        rows.append((config.k, config.sigma, eps, cost.total, cost.localization,
                     cost.refinement, ratio))
        prev = cost.refinement
    header = ["k", "sigma", "eps", "n_predicted", "n_localization", "n_refinement",
              "ratio_refinement"]
    text = write_csv(config.out, header, rows)
    return rows, text


def run_localize(config: ExperimentConfig):
    """Coverage trials for either localizer; CSV row per trial."""
    fixture = _resolve_fixture(config)
    exp_id = f"localize/{config.method}/{fixture.name}/{config.delta}"
    mu_true = fixture.mean
    localizer = localize_median if config.method == "median" else localize_gray

    def body(trial: int, agent: Agent, dist: Distribution):
        res = localizer(agent, fixture.params, config.delta)
        covered = int(res.low <= mu_true <= res.high)
        return (trial, res.low, res.high, res.center, covered, res.samples_used)

    rows = _run_trials(config, exp_id, fixture.dist, body)
    header = ["trial", "low", "high", "center", "covered", "samples"]
    text = write_csv(config.out, header, rows)
    coverage = sum(r[4] for r in rows) / config.trials
    return rows, {"coverage": coverage, "trials": config.trials}, text


def run_gap(config: ExperimentConfig):
    """Adaptive vs non-adaptive success curves on uniform-random pair instances.

    The instance family is the pair grid at the configured eps; the adaptive
    estimator runs at its own natural cost, the baseline at each budget in
    ``config.budgets`` (defaulting to the adaptive cost alone).
    """
    params = FamilyParams(k=config.k, lam=config.lam, sigma=config.sigma)
    grid = make_pair_grid(config.lam, config.sigma, config.eps)
    adaptive_cost = predict_cost(params, config.eps, config.delta, config.profile).total
    budgets = tuple(config.budgets) or (adaptive_cost,)
    exp_id = f"gap/{config.lam}/{config.eps}/{config.delta}"

    def success_rate(stream: str, estimate: Callable[[Agent], float]) -> float:
        hits = _run_trials(config, f"{exp_id}/{stream}", grid, lambda trial, agent, dist:
                           abs(estimate(agent) - dist.mean()) <= config.eps)
        return sum(hits) / config.trials

    rate = success_rate("adaptive", lambda agent: estimate_mean(
        agent, params, config.eps, config.delta, profile=config.profile).mu_hat)
    rows = [("adaptive", adaptive_cost, rate, config.trials)]
    for budget in budgets:
        rate = success_rate(f"baseline/{budget}", lambda agent: nonadaptive_baseline(
            agent, config.lam, config.sigma, config.eps, budget).mu_hat)
        rows.append(("nonadaptive", budget, rate, config.trials))

    header = ["estimator", "budget", "success_rate", "trials"]
    text = write_csv(config.out, header, rows)
    return rows, text


def run_anytime(config: ExperimentConfig):
    fixture = _resolve_fixture(config)
    exp_id = f"anytime/{fixture.name}/{config.delta}/{config.budget}"
    mu_true = fixture.mean

    def body(trial: int, agent: Agent, dist: Distribution):
        res = anytime_estimate(agent, fixture.params, config.delta, config.budget,
                               profile=config.profile)
        err = abs(res.mu_hat - mu_true)
        return (trial, res.rounds_completed, res.eps_achieved, res.mu_hat, err,
                res.n_total, config.budget, int(res.n_total <= config.budget))

    rows = _run_trials(config, exp_id, fixture.dist, body)
    header = ["trial", "rounds", "eps_achieved", "mu_hat", "abs_err", "n_total",
              "budget", "within_budget"]
    text = write_csv(config.out, header, rows)
    return rows, text


def run_scale_adapt(config: ExperimentConfig):
    fixture = _resolve_fixture(config)
    exp_id = f"scale/{fixture.name}/{config.ratio}/{config.delta}"
    mu_true = fixture.mean
    sigma_true = fixture.dist.abs_central_moment(
        fixture.params.operative_k) ** (1.0 / fixture.params.operative_k)

    def body(trial: int, agent: Agent, dist: Distribution):
        res = unknown_scale_estimate(agent, config.k, config.lam, config.sigma_min,
                                     config.sigma_max, config.ratio, config.delta,
                                     profile=config.profile)
        err = abs(res.mu_hat - mu_true)
        success = int(err <= config.ratio * sigma_true)
        return (trial, res.chosen_round, int(res.halted_early), res.mu_hat, err,
                success, res.n_total)

    rows = _run_trials(config, exp_id, fixture.dist, body)
    header = ["trial", "chosen_round", "halted_early", "mu_hat", "abs_err",
              "success", "n_total"]
    text = write_csv(config.out, header, rows)
    rate = sum(r[5] for r in rows) / config.trials
    return rows, {"success_rate": rate}, text


@dataclass
class VerifyReport:
    failures: list[tuple[str, float, float]] = field(default_factory=list)

    def check(self, check_id: str, observed: float, expected: float,
              tol: float) -> None:
        if not abs(observed - expected) <= tol:
            self.failures.append((check_id, observed, expected))

    def check_le(self, check_id: str, observed: float, bound: float) -> None:
        if not observed <= bound:
            self.failures.append((check_id, observed, bound))

    @property
    def passed(self) -> bool:
        return not self.failures

    def manifest(self) -> str:
        if self.passed:
            return "verify: all checks passed"
        lines = ["verify: FAILURES"]
        for check_id, observed, expected in self.failures:
            lines.append(f"  {check_id}: observed={observed!r} expected={expected!r}")
        return "\n".join(lines)


def run_verify(sigma: float = 1.0, lam: float = 16.0,
               corrupt: Callable | None = None) -> VerifyReport:
    """Execute every analytic invariant across modules; no sampling involved.

    ``corrupt`` is a test hook: it receives the k2 construction's mass vector
    and may return a perturbed copy, which must then trip the variance check.
    """
    report = VerifyReport()

    # family membership of the acceptance matrix
    for name, fixture in acceptance_matrix(sigma, lam).items():
        verdict = validate_family(fixture.dist, fixture.params)
        if not verdict:
            report.failures.append(
                (f"family/{name}", verdict.moment_value, verdict.moment_bound))

    # k2 construction identities
    k2 = make_k2_pair(sigma, sigma / 48.0, lam)
    masses = list(k2.null_masses)
    if corrupt is not None:
        masses = list(corrupt(masses))
    var_null = 2.0 * math.fsum(q * x * x for q, x in zip(masses, k2.grid))
    report.check("k2/null_variance", var_null, sigma ** 2, 1e-12)
    report.check("k2/mixture_mean", k2.mixture.mean(), 3.0 * k2.eps, 1e-12)
    origin_idx = int(np.searchsorted(k2.null.points, 0.0))
    report.check_le("k2/origin_mass_gt_half", 0.5,
                    float(k2.null.probs[origin_idx]))
    for q_i, p_i in zip(k2.null_masses, k2.shift_masses):
        report.check_le("k2/shift_mass_vs_null", p_i, q_i)
    kl = verify_kl_bound(k2)
    report.check_le("k2/kl_bound", kl.max_kl, kl.bound + 1e-15)

    # decomposition identity on discrete fixtures
    grid = make_pair_grid(lam, sigma, sigma / 10.0)
    mid = (grid.n_pairs + 1) // 2
    for label, dist, center in [
        ("pair_mid", grid.member(mid, 1), grid.centers[mid - 1]),
        ("pair_mid_off", grid.member(mid, 1), grid.centers[mid - 1] - sigma / 2.0),
        ("three_point", make_discrete([-1.8 * sigma, 0.0, 1.8 * sigma],
                                      [0.25, 0.5, 0.25]), 0.0),
        # atoms on the shared cell endpoints +-2 sigma and +-4 sigma
        ("endpoint_atoms", make_discrete([-4.0 * sigma, -2.0 * sigma, 0.0, 2.0 * sigma,
                                          4.0 * sigma], [0.15, 0.1, 0.4, 0.2, 0.15]), 0.0),
    ]:
        params = FamilyParams(2.0, lam, sigma)
        for eps in (sigma / 4.0, sigma / 8.0, sigma / 16.0):
            plan = build_plan(params, eps, 0.1)
            total = math.fsum(
                analytic_region_mean(dist, center, r) for r in plan.regions)
            tail = dist.shifted_tail_contribution(center, plan.t)
            report.check(f"decomposition/{label}/eps={eps}",
                         total + tail, dist.mean() - center, 1e-12)
            report.check_le(f"truncation/{label}/eps={eps}", abs(tail), eps / 2.0)

    # gray machinery: grid disjointness and roundtrips
    seen: set[tuple[int, int]] = set()
    for level in range(1, 13):
        for point in gray_change_points(level):
            key = point.as_integer_ratio()
            if key in seen:
                report.failures.append((f"gray/grid_overlap/level={level}",
                                        float(point), -1.0))
            seen.add(key)
    m_bits = 10
    for i in range(2 ** (m_bits + 2) + 1):
        x = i / 2.0 ** (m_bits + 2)
        bits = [gray_bit_value(level, x) for level in range(1, m_bits + 1)]
        lo, hi = gray_decode(bits)
        if not lo <= x <= hi:
            report.failures.append((f"gray/roundtrip/x={x}", lo, hi))

    return report
