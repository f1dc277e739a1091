"""Estimator variants: anytime budget adaptation, unknown-scale grid search,
two-stage (non-adaptive localization) composition, and the coordinate-wise
multivariate wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import Agent, Transcript
from .distributions import Distribution, FamilyParams
from .localization import gray_cost, gray_interval_length_bound, localize_gray, \
    localize_median, median_search_cost
from .refine import EstimateReport, estimate_mean, pipeline_cost, predict_cost, \
    refine_from_center, run_pipeline

__all__ = [
    "BudgetError",
    "AnytimeRound",
    "AnytimeResult",
    "anytime_schedule_params",
    "anytime_estimate",
    "ScaleRound",
    "ScaleAdaptResult",
    "scale_grid",
    "unknown_scale_estimate",
    "two_stage_cost",
    "two_stage_estimate",
    "MultivariateResult",
    "multivariate_estimate",
]


class BudgetError(ValueError):
    """Raised when a sampling budget cannot cover the mandatory first stage."""


def anytime_schedule_params(sigma: float, delta: float, round_index: int) -> tuple[float, float]:
    """Round tau target accuracy and failure budget: sigma/2^tau, 6 delta/(pi^2 tau^2).

    The failure budgets sum to delta over all rounds (Basel series).
    """
    if round_index < 1:
        raise ValueError("rounds are indexed from 1")
    eps = sigma / 2.0 ** round_index
    dlt = 6.0 * delta / (math.pi ** 2 * round_index ** 2)
    return eps, dlt


@dataclass(frozen=True)
class AnytimeRound:
    index: int
    eps: float
    delta: float
    cost: int
    mu_hat: float


@dataclass(frozen=True)
class AnytimeResult:
    mu_hat: float
    rounds_completed: int
    eps_achieved: float
    n_localization: int
    n_refinement: int
    budget: int
    rounds: tuple[AnytimeRound, ...]

    @property
    def n_total(self) -> int:
        return self.n_localization + self.n_refinement


def anytime_estimate(agent: Agent, params: FamilyParams, delta: float, budget: int,
                     profile: str = "empirical",
                     transcript: Transcript | None = None) -> AnytimeResult:
    """Budget-oblivious run: localize once, then halve the target accuracy every
    round, committing to a round only when its predicted cost still fits.

    The cost check happens before each round, so mid-round exhaustion cannot
    occur; the returned estimate is the last completed round's.
    """
    if transcript is None:
        transcript = Transcript()
    loc_cost = median_search_cost(params, delta)
    eps1, delta1 = anytime_schedule_params(params.sigma, delta, 1)
    first_round = predict_cost(params, eps1, delta1, profile).refinement
    if budget < loc_cost + first_round:
        raise BudgetError(
            f"budget {budget} cannot cover localization ({loc_cost}) plus the "
            f"first refinement round ({first_round})"
        )

    loc = localize_median(agent, params, delta, transcript)
    remaining = budget - loc.samples_used
    spent = 0
    rounds: list[AnytimeRound] = []
    tau = 1
    while True:
        eps_t, delta_t = anytime_schedule_params(params.sigma, delta, tau)
        cost_t = predict_cost(params, eps_t, delta_t, profile).refinement
        if spent + cost_t > remaining:
            break
        mu_hat, _, _ = refine_from_center(
            agent, params, eps_t, delta_t, loc.center, profile=profile,
            transcript=transcript,
        )
        spent += cost_t
        rounds.append(AnytimeRound(index=tau, eps=eps_t, delta=delta_t,
                                   cost=cost_t, mu_hat=mu_hat))
        tau += 1

    last = rounds[-1]
    return AnytimeResult(
        mu_hat=last.mu_hat,
        rounds_completed=last.index,
        eps_achieved=last.eps,
        n_localization=loc.samples_used,
        n_refinement=spent,
        budget=budget,
        rounds=tuple(rounds),
    )


@dataclass(frozen=True)
class ScaleRound:
    index: int
    sigma_guess: float
    eps: float
    mu_hat: float
    interval: tuple[float, float]
    n_used: int


@dataclass(frozen=True)
class ScaleAdaptResult:
    mu_hat: float
    chosen_round: int
    halted_early: bool
    rounds: tuple[ScaleRound, ...]
    n_total: int


def scale_grid(sigma_min: float, sigma_max: float) -> list[float]:
    """Halving guesses sigma_max * 2^-i for i = 0..ceil(log2(sigma_max/sigma_min))."""
    if not 0 < sigma_min <= sigma_max:
        raise ValueError(f"need 0 < sigma_min <= sigma_max, got [{sigma_min}, {sigma_max}]")
    top = math.ceil(math.log2(sigma_max / sigma_min) - 1e-12)
    return [sigma_max * 2.0 ** (-i) for i in range(top + 1)]


def unknown_scale_estimate(agent: Agent, k: float, lam: float, sigma_min: float,
                           sigma_max: float, ratio: float, delta: float,
                           profile: str = "empirical",
                           transcript: Transcript | None = None) -> ScaleAdaptResult:
    """Relative-accuracy estimation with only loose scale bounds.

    Runs the main estimator on halving scale guesses with eps_i = ratio *
    sigma_i / 6 and delta_i = delta / (T + 1); the constant ratio sigma_i /
    eps_i = 6 / ratio keeps every round's refinement cost flat.  Halts the
    first time a new confidence interval misses every earlier one and returns
    the previous round's estimate (the last fully consistent one); if no
    disjointness ever occurs, the final round is returned.
    """
    if not 0 < ratio < 1:
        raise ValueError(f"target ratio must be in (0, 1), got {ratio}")
    if transcript is None:
        transcript = Transcript()
    guesses = scale_grid(sigma_min, sigma_max)
    delta_i = delta / len(guesses)

    rounds: list[ScaleRound] = []
    intervals: list[tuple[float, float]] = []
    halted = False
    chosen = len(guesses) - 1
    total = 0
    for i, sigma_i in enumerate(guesses):
        params_i = FamilyParams(k=k, lam=lam, sigma=sigma_i)
        eps_i = ratio * sigma_i / 6.0
        report = estimate_mean(agent, params_i, eps_i, delta_i, profile=profile,
                               transcript=transcript)
        interval = (report.mu_hat - eps_i, report.mu_hat + eps_i)
        total += report.n_total
        rounds.append(ScaleRound(index=i, sigma_guess=sigma_i, eps=eps_i,
                                 mu_hat=report.mu_hat, interval=interval,
                                 n_used=report.n_total))
        disjoint = any(interval[0] > earlier[1] or interval[1] < earlier[0]
                       for earlier in intervals)
        if disjoint:
            halted = True
            chosen = i - 1
            break
        intervals.append(interval)

    pick = rounds[chosen]
    return ScaleAdaptResult(
        mu_hat=pick.mu_hat,
        chosen_round=chosen,
        halted_early=halted,
        rounds=tuple(rounds),
        n_total=total,
    )


def _effective_params_after_gray(params: FamilyParams, delta: float) -> FamilyParams:
    """Parameters under which the gray interval behaves like an 8-sigma interval.

    The gray interval can be up to 3 lam 2^-M long, wider than the 8 sigma the
    refinement constants assume; running refinement with sigma_eff =
    max(sigma, length_bound / 8) restores |mean - center| <= 4 sigma_eff while
    keeping the moment bound valid (sigma_eff >= sigma).  Deterministic, so
    costs stay exactly predictable.
    """
    bound = gray_interval_length_bound(params, delta)
    return replace(params, sigma=max(params.sigma, bound / 8.0))


def two_stage_cost(params: FamilyParams, eps: float, delta: float,
                   profile: str = "empirical") -> int:
    """Exact query count of ``two_stage_estimate``."""
    return pipeline_cost(gray_cost(params, delta),
                         _effective_params_after_gray(params, delta), eps, delta, profile).total


def two_stage_estimate(agent: Agent, params: FamilyParams, eps: float, delta: float,
                       profile: str = "empirical",
                       transcript: Transcript | None = None) -> EstimateReport:
    """Same pipeline as the main estimator with the non-adaptive localizer.

    Exactly two rounds of adaptivity: one fixed batch of Gray-function queries,
    then one fixed batch of refinement queries (all thresholds are determined
    once the center is known, before any refinement response is read).
    """
    return run_pipeline(localize_gray, _effective_params_after_gray(params, delta),
                        agent, params, eps, delta, profile=profile, transcript=transcript)


@dataclass(frozen=True)
class MultivariateResult:
    mu_hat: np.ndarray
    reports: tuple[EstimateReport, ...]
    n_total: int
    bits_per_sample: int


def multivariate_estimate(coordinate_dists: list[Distribution], params: FamilyParams,
                          eps: float, delta: float, rng: np.random.Generator,
                          profile: str = "empirical",
                          bits_per_sample: int = 1) -> MultivariateResult:
    """Coordinate-wise wrapper: per-coordinate targets (eps/sqrt(d), delta/d)
    give an l2 guarantee of eps at confidence 1 - delta.

    ``bits_per_sample=1`` is the strict model -- every query consumes one
    fresh vector sample and thresholds one chosen coordinate, so the total
    cost is the sum over coordinates.  ``bits_per_sample=d`` relaxes it to one
    bit per coordinate per sample; coordinate runs then share each vector
    sample and the cost is the largest single-coordinate count.
    """
    d = len(coordinate_dists)
    if d == 0:
        raise ValueError("need at least one coordinate")
    if bits_per_sample not in (1, d):
        raise ValueError(f"bits_per_sample must be 1 or d={d}, got {bits_per_sample}")
    eps_j = eps / math.sqrt(d)
    delta_j = delta / d
    reports = []
    for dist in coordinate_dists:
        agent = Agent(dist, np.random.default_rng(rng.integers(2 ** 63)))
        reports.append(estimate_mean(agent, params, eps_j, delta_j, profile=profile))
    totals = [r.n_total for r in reports]
    n_total = sum(totals) if bits_per_sample == 1 else max(totals)
    return MultivariateResult(
        mu_hat=np.array([r.mu_hat for r in reports]),
        reports=tuple(reports),
        n_total=n_total,
        bits_per_sample=bits_per_sample,
    )
