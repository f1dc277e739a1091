"""Experiment orchestration: PAC sweeps, scaling studies, the adaptivity-gap
experiment, the analytic verification suite, and reproducible seeding.

Per-trial random streams are derived as
``default_rng(SeedSequence([base_seed, crc32(experiment_id), trial_index]))``
so results are independent of scheduling and thread count.  CSV output is
RFC-4180 style with a header row, '.' decimals, UTF-8.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import sys
import zlib
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .channel import Agent, _is_count
from .distributions import Distribution, FamilyParams, make_discrete, \
    make_gaussian_budget_tight, make_point_mass, make_two_sided_pareto, validate_family
from .hardness import K2HardPair, PairGrid, _per_slot, baseline_plan, make_k2_pair, \
    make_pair_grid, nonadaptive_baseline, verify_kl_bound
from .localization import gray_change_points, gray_decode, gray_bit_value, \
    localize_gray, localize_median
from .refine import analytic_region_mean, build_plan, estimate_mean, predict_cost
from .variants import anytime_estimate, unknown_scale_estimate

__all__ = [
    "trial_rng",
    "ExperimentConfig",
    "Fixture",
    "acceptance_matrix",
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


def _is_number(value) -> bool:
    # an int beyond float64 would meet the first float arithmetic on it with OverflowError
    return isinstance(value, float) or _is_count(value) and abs(value) <= sys.float_info.max


# ExperimentConfig's field annotations, as written, with the values they accept
_FIELD_TYPES = {
    "int": ("an integer", _is_count),
    "float": ("a number within float64's range", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: isinstance(v, (list, tuple)) and all(map(_is_count, v))),
    "tuple[float, ...]": ("a list of numbers within float64's range",
                          lambda v: isinstance(v, (list, tuple)) and all(map(_is_number, v))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment setting and its one default.

    The CLI builds it from the ``--config`` file's values overridden by the
    flags actually typed. Every value's type is checked here, and so are the
    values of ``trials``, ``seed``, ``method`` and ``threads``, and that
    ``out`` names a file in an existing directory, so no sweep runs before
    its CSV is found to have nowhere to go; the other values are checked by
    the runner or estimator that reads them.
    """

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
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            kind, accepts = _FIELD_TYPES[f.type]
            value = getattr(self, f.name)
            if not accepts(value):
                raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.method not in ("median", "gray"):
            raise ValueError(f"method must be 'median' or 'gray', got {self.method!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.out is not None and (os.path.isdir(self.out)
                                     or not os.path.isdir(os.path.dirname(self.out) or ".")):
            raise ValueError(f"out must name a file in an existing directory, got {self.out!r}")
        for name in ("budgets", "eps_list"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


def _pair_grid(sigma: float, lam: float) -> PairGrid:
    return make_pair_grid(lam, sigma, sigma / 10.0)


def _middle_pair_upper(sigma: float, lam: float) -> Distribution:
    grid = _pair_grid(sigma, lam)
    return grid.member((grid.n_pairs + 1) // 2, 1)


def _k2(sigma: float, lam: float) -> K2HardPair:
    return make_k2_pair(sigma, sigma / 48.0, lam)


# Each fixture's moment order k and its distribution at (sigma, lam), built
# only when the fixture is asked for.
_FIXTURES: dict[str, tuple[float, Callable[[float, float], Distribution]]] = {
    "pair_plus_center": (2.0, _middle_pair_upper),
    "pair_minus_edge": (2.0, lambda sigma, lam: _pair_grid(sigma, lam).member(1, -1)),
    "k2_null": (2.0, lambda sigma, lam: _k2(sigma, lam).null),
    "k2_mixture": (2.0, lambda sigma, lam: _k2(sigma, lam).mixture),
    "pareto15": (1.5, lambda sigma, lam: make_two_sided_pareto(1.5, sigma, mu=0.3 * sigma,
                                                               alpha=1.9)),
    "gauss_tight": (2.0, lambda sigma, lam: make_gaussian_budget_tight(2.0, sigma,
                                                                       mu=0.77 * sigma)),
    "gauss_tight_k3": (3.0, lambda sigma, lam: make_gaussian_budget_tight(3.0, sigma,
                                                                          mu=-1.3 * sigma)),
    "point_mass": (2.0, lambda sigma, lam: make_point_mass(1.7 * sigma)),
}


def _fixture(name: str, sigma: float, lam: float) -> Fixture:
    k, build = _FIXTURES[name]
    return Fixture(name, build(sigma, lam), FamilyParams(k, lam, sigma))


def acceptance_matrix(sigma: float = 1.0, lam: float = 16.0) -> dict[str, Fixture]:
    """The fixture matrix the acceptance criteria sweep.

    Pair-grid members carry a sigma/10 mean shift, the finite-variance hard
    pair a sigma/48 one; the Pareto fixture exercises k in (1, 2); both
    Gaussian fixtures are sized so the moment budget binds exactly.
    """
    return {name: _fixture(name, sigma, lam) for name in _FIXTURES}


def _resolve_fixture(config: ExperimentConfig) -> Fixture:
    """The configured fixture, built alone and once per (name, sigma, lam).

    The last fixture is kept, so runner calls on one fixture share its
    distribution, and with it the agent's probability memo;
    ``_resolve_fixture.cache_clear()`` drops it.
    """
    if config.fixture not in _FIXTURES:
        raise KeyError(
            f"unknown fixture {config.fixture!r}; available: {sorted(_FIXTURES)}"
        )
    return _kept_fixture(config.fixture, config.sigma, config.lam)


# One fixture: each runner resolves one.  Typed, so a fixture asked for at
# sigma = 2 is built from the int 2, not taken from the one kept for sigma = 2.0
_kept_fixture = functools.lru_cache(maxsize=1, typed=True)(_fixture)
_resolve_fixture.cache_clear = _kept_fixture.cache_clear


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
    from concurrent.futures import ThreadPoolExecutor  # a serial sweep loads no thread pool
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


# log(s C(n, s)) from math.comb while min(s, n - s) stays below this: comb(10**6, 1000)
# costs ~0.5 ms, comb(10**6, 5 * 10**5) ~10 s.  Above it the lgamma difference is
# used, whose absolute error (up to ~4e-9 at n = 10**6) the slope x I'/I >= ~60
# there shrinks to < 1e-10 in the bound.
_EXACT_COMB_MAX = 1000
_EPS = sys.float_info.epsilon
_TINY = 1e-300


def binomial_lower_bound(successes: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson lower bound on the success probability.

    It is the x in [0, 1] with P(Bin(n, x) >= s) = alpha, alpha = 1 - confidence:
    the alpha quantile of Beta(s, n - s + 1), which
    ``scipy.special.betaincinv(s, n - s + 1, alpha)`` also computes.  s = 0, 1
    and n have closed forms.  Otherwise ``_binomial_tail_root`` finds the root
    by a bracketed Newton iteration on the regularized incomplete beta,
    evaluated by the Lentz continued fraction, on the tail that is at most 1/2:
    in x when confidence >= 1/2, in 1 - x below.  No scipy module is loaded.

    Against ``betaincinv`` the relative difference is at most ~1.5e-13 for
    n <= 10**4 and ~6e-12 at n = 10**5 and 10**6 (confidence 0.9 to 0.99); it
    grows with n through the rounding of ``math.lgamma`` (~6e-9 at n = 10**12),
    and below confidence 1/2, where x = 1 - (1 - x) rounds, it reaches ~1e-11
    at n ~ 3e5.
    A closed form costs ~1 us; otherwise a call costs ~15-20 us at n < 100,
    ~50 us at n = 100 and ~0.2-0.3 ms from n = 10**3 to 10**6 (2-core x86-64
    host, ``BENCH_cpbound.json``), against ~3-7 us for ``betaincinv``.
    ``successes`` and ``trials`` are ints (not bools) with
    0 <= successes <= trials and trials >= 1, and 0 < confidence < 1.
    """
    if not (_is_count(trials) and trials >= 1):
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if not (_is_count(successes) and 0 <= successes <= trials):
        raise ValueError(f"successes must be an int in [0, {trials}], got {successes!r}")
    if not 0 < confidence < 1:  # NaN fails it too
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    s, n = int(successes), int(trials)
    alpha = 1.0 - confidence
    if s == 0:
        return 0.0
    if s == n:
        return alpha ** (1.0 / n)
    if s == 1:
        return -math.expm1(math.log1p(-alpha) / n)
    if alpha > 0.5:
        # I_x(s, n - s + 1) = alpha  <=>  I_{1 - x}(n - s + 1, s) = 1 - alpha
        return 1.0 - _binomial_tail_root(n - s + 1, n, confidence)
    return _binomial_tail_root(s, n, alpha)


def _binomial_tail_root(s: int, n: int, tail: float) -> float:
    """The x with P(Bin(n, x) >= s) = tail, for 2 <= s <= n - 1 and tail <= 1/2.

    Newton in u = log x on log I_x(s, n - s + 1), inside a bracket, from the
    Wilson bound (positive and below s/n, since tail <= 1/2 makes z >= 0).
    log X has a log-concave density for X ~ Beta, so log I_x is concave in u:
    from below Newton climbs to the root, from above it crosses it once.
    """
    # -log B(s, n - s + 1) = log(s C(n, s)); the lgamma difference cancels unless
    # both parameters are large, where the steep tail absorbs its error
    if min(s, n - s) <= _EXACT_COMB_MAX:
        log_norm = math.log(s * math.comb(n, s))
    else:
        log_norm = math.lgamma(n + 1) - math.lgamma(s) - math.lgamma(n - s + 1)
    from statistics import NormalDist
    z = -NormalDist().inv_cdf(tail)
    centre, half = s + z * z / 2, z * math.sqrt(s * (n - s) / n + z * z / 4)
    u = math.log((centre - half) / (n + z * z))
    log_target = math.log(tail)
    lo, hi = -math.inf, 0.0
    for _ in range(100):
        log_tail, slope = _log_beta_tail(u, s, n, log_norm)
        gap = log_tail - log_target
        step = gap / slope
        # stop once the step is below the resolution of u, or the residual below
        # the rounding error of log I_x, which sums terms as large as log_norm
        # and log_target
        if abs(step) <= 4 * _EPS * max(1.0, -u) or abs(gap) <= 8 * _EPS * (log_norm - log_target):
            return math.exp(u - step)
        if gap < 0:
            lo = u
        else:
            hi = u
        u -= step
        if not lo < u < hi:
            u = 0.5 * (lo + hi) if lo > -math.inf else hi - 1.0
    return math.exp(u)


def _log_beta_tail(u: float, s: int, n: int, log_norm: float) -> tuple[float, float]:
    """log P(Bin(n, x) >= s) = log I_x(a, b) at x = exp(u), with a = s and
    b = n - s + 1, and its slope d log I / d log x = x I'/I.

    With D = x^a (1 - x)^b / B(a, b) = exp(log_norm + a u + b log(1 - x)),
    I = D cf(a, b, x) / a below the continued fraction's convergence point
    x < (a + 1) / (a + b + 2), and I = 1 - D cf(b, a, 1 - x) / b above it,
    where I > ~0.3, so the difference does not cancel.  x I' = D / (1 - x).
    """
    a, b = s, n - s + 1
    x, q = math.exp(u), -math.expm1(u)
    log_d = log_norm + a * u + b * (math.log1p(-x) if x < 0.5 else math.log(q))
    if x < (a + 1) / (a + b + 2):
        cf = _beta_cf(a, b, x)
        return log_d + math.log(cf / a), a / (q * cf)
    tail = 1.0 - math.exp(log_d) * _beta_cf(b, a, q) / b
    return math.log(tail), math.exp(log_d) / (q * tail)


def _beta_cf(a: int, b: int, x: float) -> float:
    """The continued fraction of I_x(a, b) (Numerical Recipes' betacf),
    evaluated by the modified Lentz method; it converges in O(sqrt(max(a, b)))
    terms for x < (a + 1) / (a + b + 2)."""
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))  # > 0 below the convergence point
    h = d
    for m in range(1, 10 * math.isqrt(a + b) + 100):
        m2 = 2 * m
        for term in (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= 2 * _EPS:
            break
    return h


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
        # blank after the first row and after a bypass-scale row, which refines nothing
        ratio = "" if not prev else f"{cost.refinement / prev:.6f}"
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
    # a budget the baseline refuses fails before any trial: the first budget's
    # plan is built (and kept for its trials), the others' split only checked
    baseline_plan(config.lam, config.sigma, config.eps, budgets[0])
    for budget in budgets[1:]:
        _per_slot(grid, budget)
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
        res = unknown_scale_estimate(agent, fixture.params.k, config.lam, config.sigma_min,
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
        ("pair_mid", grid.member(mid, 1), grid.center(mid)),
        ("pair_mid_off", grid.member(mid, 1), grid.center(mid) - sigma / 2.0),
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
