"""Refinement: cutoff selection, dyadic partition, randomized threshold
queries, variance-aware allocation, and the median-of-means wrapper.

All sample counts are deterministic functions of the parameters, so
``predict_cost`` reproduces the realized totals of the agent's transcript exactly.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .channel import Agent, QueryTable, ThresholdGE, ThresholdGT, ThresholdLE, ThresholdLT, \
    UniformThreshold, query_probabilities
from .distributions import Distribution, FamilyParams, _require_float64
from .localization import LocalizationResult, delta_count, localize_median, median_search_cost

__all__ = [
    "ALLOCATION_PROFILES",
    "PlanSizeError",
    "allocation_constant",
    "worst_case_tail_bound",
    "cutoff_threshold",
    "Region",
    "RefinementPlan",
    "EstimateReport",
    "CostBreakdown",
    "build_plan",
    "refinement_plan",
    "estimate_region",
    "base_estimate",
    "refine_from_center",
    "run_pipeline",
    "pipeline_cost",
    "estimate_mean",
    "predict_cost",
    "analytic_region_probs",
    "analytic_region_mean",
    "analytic_base_variance",
]

# Centering after localization guarantees the shifted mean lies in
# [-4 sigma, 4 sigma]; the cutoff and allocation constants assume it.
SHIFTED_MEAN_BOUND = 4.0
MIN_CUTOFF_EXPONENT = 4  # t >= 16 sigma keeps t > 8 sigma with margin
PLAN_CACHE_SIZE = 256  # plans build_plan keeps, least recently used dropped first

ALLOCATION_PROFILES = ("proof-safe", "empirical")


class PlanSizeError(ValueError):
    """Raised when a refinement plan is too large to run: some region needs more
    than int64 queries, or the cutoff lies beyond float64's range."""


def allocation_constant(profile: str, k: float) -> float:
    """Per-region sample constant C in n_i = ceil(C (sigma/eps)^2 2^{|i|(2-k')}).

    proof-safe: tracks the variance chain exactly -- inner geometric sums are
    at most (8/C) eps^2 2^{jk'}, the j <= 3 terms contribute at most 3 * 2^{3k'}
    and the j >= 4 tail at most 2^{2k'}, on both sides, so
    C = 256 (3 * 2^{3k'} + 2^{2k'}) forces Var(base) <= eps^2 / 16.
    empirical: C = 16, a lean constant that does not force that bound: at
    eps = sigma/4 the exact Var(base) / (eps^2/16) (``analytic_base_variance``)
    is 1.8 on gauss_tight and 2.9 on gauss_tight_k3 with the center at the
    mean, and 104 on gauss_tight_k3 at mean + 3.9 sigma.  Criterion 04's Monte
    Carlo check gates proof-safe only; ROADMAP item 1 tracks the gap.
    """
    if profile == "proof-safe":
        kk = min(k, 3.0)
        return 256.0 * (3.0 * 2.0 ** (3.0 * kk) + 2.0 ** (2.0 * kk))
    if profile == "empirical":
        return 16.0
    raise ValueError(f"unknown allocation profile {profile!r}; expected one of {ALLOCATION_PROFILES}")


def worst_case_tail_bound(params: FamilyParams, t: float) -> float:
    """Upper bound on |E[(X - c) 1(|X - c| > t)]| for any family member with
    |mean - c| <= 4 sigma: sigma^k/(t - 4s)^{k-1} + 4s * sigma^k/(t - 4s)^k.

    It is computed as s r^{k-1} + 4 s r^k with r = s / (t - 4s), whose powers
    stay in float64 at any sigma that is itself a float64.
    """
    k = params.operative_k
    s = params.sigma
    gap = t - SHIFTED_MEAN_BOUND * s
    if gap <= 0:
        return math.inf
    r = s / gap
    return s * r ** (k - 1.0) + SHIFTED_MEAN_BOUND * s * r ** k


def cutoff_threshold(params: FamilyParams, eps: float) -> float:
    """Smallest power-of-two multiple t = 2^j sigma (j >= 4) with tail bound <= eps/2,
    or ``math.inf`` when the search leaves float64's range first."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    j = MIN_CUTOFF_EXPONENT
    try:
        while worst_case_tail_bound(params, 2.0 ** j * params.sigma) > eps / 2.0:
            j += 1
        return 2.0 ** j * params.sigma  # inf once 2^j sigma overflows
    except OverflowError:  # 2^j beyond float64
        return math.inf


@dataclass(frozen=True)
class Region:
    """One cell of the dyadic partition, in shifted coordinates.

    ``inner``/``outer`` are the magnitudes m_{|i|-1} sigma and m_{|i|} sigma.
    The cell is (inner, outer] for index >= 2 and [-outer, -inner) for index
    <= -2, so neighbouring cells share no endpoint; the two center cells are
    [0, outer] and [-outer, 0], which share only the center, where the
    integrand y vanishes.  ``bounds`` gives the closure of the cell.
    """

    index: int
    inner: float
    outer: float

    @property
    def sign(self) -> int:
        return 1 if self.index > 0 else -1

    @property
    def bounds(self) -> tuple[float, float]:
        if self.index > 0:
            return self.inner, self.outer
        return -self.outer, -self.inner


@dataclass(frozen=True)
class RefinementPlan:
    """The refinement round, fixed by (params, eps, delta, profile) before any
    query.  ``build_plan`` builds each plan once and shares it, so every part
    is read-only: ``n_by_magnitude`` is a read-only mapping, ``table`` holds
    every region's four queries around center 0, in ``regions`` order, each
    repeated n_i times per batch (``base_estimate`` shifts it to the
    localized center, which gives the same bits as ``_region_table`` around
    that center), and ``weights`` is the read-only (R, 2) array of each
    region's (sign * inner / n_i, sign * outer / n_i), the weights of its
    count differences C1 - C2 and C3 - C4 in a batch value.  Those two are
    derived, so ``==`` ignores them.
    """

    t: float
    i_max: int
    regions: tuple[Region, ...]
    n_by_magnitude: Mapping[int, int]
    batches: int
    profile: str
    params: FamilyParams
    eps: float
    table: QueryTable = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)

    @property
    def samples_per_batch(self) -> int:
        return self.table.per_block

    @property
    def total_samples(self) -> int:
        return self.batches * self.samples_per_batch


def _region_magnitudes(sigma: float, i_max: int) -> list[tuple[int, float, float]]:
    # m_0 = 0 and m_i = 2^i for i >= 1
    out = []
    for i in range(1, i_max + 1):
        inner = 0.0 if i == 1 else 2.0 ** (i - 1) * sigma
        out.append((i, inner, 2.0 ** i * sigma))
    return out


def build_plan(params: FamilyParams, eps: float, delta: float,
               profile: str = "empirical") -> RefinementPlan:
    """Partition, allocation, batch count and center-0 query table for one
    refinement run.

    Each plan is built once per (params, eps, delta, profile) and shared
    after that: the last ``PLAN_CACHE_SIZE`` plans are kept, and
    ``build_plan.cache_clear()`` drops them.
    """
    return _cached_plan(params, eps, delta, profile)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(params: FamilyParams, eps: float, delta: float,
                 profile: str) -> RefinementPlan:
    # keyed on all four arguments as passed, so build_plan passes them all
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < eps < SHIFTED_MEAN_BOUND * params.sigma:
        raise ValueError(
            f"refinement expects 0 < eps < 4 sigma; got eps={eps}, sigma={params.sigma}"
        )
    k = params.operative_k
    sigma = params.sigma
    c = allocation_constant(profile, k)
    # n_1 is at most the largest n_i; it is checked in logs, before the cutoff search
    if math.log2(c) + 2.0 * math.log2(sigma / eps) + 2.0 - k > 64:
        raise PlanSizeError(f"eps={eps} needs n_1 > 2^64 queries in one region, beyond int64")
    t = cutoff_threshold(params, eps)
    # With n_1 within int64 and sigma^k a float64, the search leaves float64
    # only at k < 2, where n_i grows with i and passes int64 long before.
    if t == math.inf:
        raise PlanSizeError(f"eps={eps} needs a cutoff beyond float64 at sigma={sigma}, "
                            f"so n_i beyond int64 queries in one region")
    i_max = round(math.log2(t / sigma))
    n_by_magnitude = {
        i: math.ceil(c * (sigma / eps) ** 2 * 2.0 ** (i * (2.0 - k)))
        for i in range(1, i_max + 1)
    }
    n_max = max(n_by_magnitude.values())
    if n_max > np.iinfo(np.int64).max:
        raise PlanSizeError(
            f"eps={eps} needs n_i={n_max} queries in one region, beyond int64"
        )
    batches = delta_count(8.0 * math.log(2.0 / delta), "batches", delta)
    regions = tuple(Region(index=side * i, inner=inner, outer=outer)
                    for side in (1, -1) for i, inner, outer in _region_magnitudes(sigma, i_max))
    reps = [n_by_magnitude[abs(r.index)] for r in regions]
    weights = _region_weights(regions, reps)
    weights.setflags(write=False)
    return RefinementPlan(
        t=t, i_max=i_max, regions=regions, n_by_magnitude=MappingProxyType(n_by_magnitude),
        batches=batches, profile=profile, params=params, eps=eps,
        table=_region_table(regions, reps, 0.0), weights=weights,
    )


build_plan.cache_clear = _cached_plan.cache_clear
build_plan.cache_info = _cached_plan.cache_info


def refinement_plan(params: FamilyParams, eps: float, delta: float,
                    profile: str = "empirical") -> RefinementPlan | None:
    """The refinement round's plan, fixed by (params, eps, delta) before any query;
    ``None`` when eps >= 4 sigma, where the localized center alone meets eps.
    A non-finite eps is refused here; ``build_plan`` checks the rest of eps and
    delta, and without a plan the localizer checks delta."""
    _require_float64(eps=eps)
    if not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps >= SHIFTED_MEAN_BOUND * params.sigma:
        return None
    return build_plan(params, eps, delta, profile)


def _region_table(regions, reps, center: float) -> QueryTable:
    """The four queries of each region around ``center`` as table rows, built
    from the regions' inner/outer arrays; region i's rows repeat reps[i] times.

    With Y = X - center and T ~ Uniform(a, b), a right region (a, b] uses

        f1 = 1(Y > a),   f2 = 1(Y >= T),   f3 = 1(Y <= b),   f4 = 1(Y <= T),

    so E[f1 - f2] = E[1(a < Y <= b) Pr(T > Y)] = p_a and E[f3 - f4] =
    E[1(a < Y <= b) Pr(T < Y)] = p_b, and y = a Pr(T > y) + b Pr(T < y) on
    [a, b] gives a p_a + b p_b = E[Y 1(a < Y <= b)].  Left regions mirror this
    onto [-b, -a).  The inner endpoint is strict so an atom on a cell boundary
    is counted once; regions +-1 keep f1 closed at the center, where a = 0.

    In regions +-1, a = 0 weighs p_a by nothing (their ``weights[:, 0]`` is
    0), so their f1 and f2 rows, 4 n_1 queries a batch over both sides, never
    reach a batch value; they are still asked, and counted in the plan's cost.
    """
    inner = np.array([region.inner for region in regions])
    outer = np.array([region.outer for region in regions])
    right = np.array([region.index > 0 for region in regions])
    lo = np.where(right, center + inner, center - outer)
    hi = np.where(right, center + outer, center - inner)
    toward, away = np.where(right, "ge", "le"), np.where(right, "le", "ge")
    # Rows f1..f4 per region; a threshold row reads gamma, a uniform one
    # direction, lo and hi.
    return QueryTable.from_columns(
        [kind for region in regions for kind in _region_kinds(region.index)],
        np.repeat(reps, 4),
        gamma=np.array([np.where(right, lo, hi), lo, np.where(right, hi, lo), lo]).T.ravel(),
        direction=np.array([toward, toward, away, away]).T.ravel(),
        lo=np.repeat(lo, 4), hi=np.repeat(hi, 4))


def _region_weights(regions, reps) -> np.ndarray:
    """Each region's (sign * inner / n_i, sign * outer / n_i), with n_i = reps[i]."""
    return np.array([(region.sign * region.inner / n, region.sign * region.outer / n)
                     for region, n in zip(regions, reps)])


def _region_kinds(index: int) -> tuple[type, type, type, type]:
    """The kinds of f1..f4 in the region of this index; f1 is closed only
    in regions +-1."""
    if index > 0:
        return ThresholdGE if index == 1 else ThresholdGT, UniformThreshold, ThresholdLE, \
            UniformThreshold
    return ThresholdLE if index == -1 else ThresholdLT, UniformThreshold, ThresholdGE, \
        UniformThreshold


def _region_sums(agent: Agent, table: QueryTable, weights: np.ndarray,
                 batches: int) -> np.ndarray:
    """Each batch's sum over the regions of sign * (a p_a + b p_b), from one
    draw of ``table``, which holds the regions' four queries in order:
    ``weights[:, 0]`` applied to the count differences D = C1 - C2 and
    ``weights[:, 1]`` to E = C3 - C4.  Counts lie in [0, n_i], so D and E
    are exact int64."""
    counts = agent.respond_count(table, batches * table.per_block)
    # The draw is query-major, so counts.T is its own (Q, K) array: the
    # regions are combined along its rows, with no copy into batch order.
    c = counts.T.reshape(-1, 4, batches)
    return weights[:, 0] @ (c[:, 0] - c[:, 1]) + weights[:, 1] @ (c[:, 2] - c[:, 3])


def estimate_region(agent: Agent, region: Region, n: int, center: float,
                    batches: int) -> np.ndarray:
    """The region's mean contribution E[Y 1(Y in cell)], Y = X - center,
    estimated once per batch.

    Each of the region's four queries around ``center`` is asked n times per
    batch, all ``batches`` blocks in one draw, and each batch's estimate is
    sign * (a p_a + b p_b); 4 n queries per batch.  This is
    ``base_estimate``'s draw and combination for a single region.
    """
    return _region_sums(agent, _region_table((region,), (n,), center),
                        _region_weights((region,), (n,)), batches)


def base_estimate(agent: Agent, plan: RefinementPlan, center: float, batches: int) -> np.ndarray:
    """The base estimator's value in each of ``batches`` independent batches:
    the localization center plus the sum of the region estimates.

    The whole round is one ``respond_count`` draw of ``plan.table`` shifted
    to ``center``.
    """
    return center + _region_sums(agent, plan.table.shifted(center), plan.weights, batches)


@dataclass(frozen=True)
class EstimateReport:
    mu_hat: float
    n_localization: int
    n_refinement: int
    rounds_of_adaptivity: int
    localization: LocalizationResult | None
    plan: RefinementPlan | None
    batch_values: tuple[float, ...] = field(default=())

    @property
    def n_total(self) -> int:
        return self.n_localization + self.n_refinement


def refine_from_center(agent: Agent, plan: RefinementPlan,
                       center: float) -> tuple[float, tuple[float, ...]]:
    """K batches of the base estimator around ``center``; returns their median and the values."""
    agent.transcript.begin_phase("refinement")
    values = base_estimate(agent, plan, center, plan.batches).tolist()
    # the middle value, or the mean of the middle two, as np.median gives it
    return statistics.median(values), tuple(values)


@dataclass(frozen=True)
class CostBreakdown:
    """Exact sample counts of one pipeline run; ``plan`` is its refinement
    round, ``None`` when the localized center alone meets eps."""

    localization: int
    refinement: int
    plan: RefinementPlan | None

    @property
    def total(self) -> int:
        return self.localization + self.refinement


def run_pipeline(localize: Callable[[Agent, FamilyParams, float], LocalizationResult],
                 plan: RefinementPlan | None, agent: Agent, params: FamilyParams,
                 delta: float) -> EstimateReport:
    """Localize, recenter, refine in one non-adaptive round, take the median.

    ``localize(agent, params, delta)`` returns the center;
    ``plan`` is the ``refinement_plan`` at a scale whose sigma puts that center
    within 4 sigma of the mean, or ``None`` when the center alone meets eps.
    """
    loc = localize(agent, params, delta)
    if plan is None:
        return EstimateReport(mu_hat=loc.center, n_localization=loc.samples_used,
                              n_refinement=0, rounds_of_adaptivity=loc.rounds,
                              localization=loc, plan=None)
    mu_hat, values = refine_from_center(agent, plan, loc.center)
    return EstimateReport(mu_hat=mu_hat, n_localization=loc.samples_used,
                          n_refinement=plan.total_samples,
                          rounds_of_adaptivity=loc.rounds + 1, localization=loc,
                          plan=plan, batch_values=values)


def pipeline_cost(localization: int, plan: RefinementPlan | None) -> CostBreakdown:
    """Exact sample counts of ``run_pipeline``, given its localization cost."""
    return CostBreakdown(localization, 0 if plan is None else plan.total_samples, plan)


def estimate_mean(agent: Agent, params: FamilyParams, eps: float, delta: float,
                  profile: str = "empirical") -> EstimateReport:
    """The full adaptive estimator: ``run_pipeline`` with the median localizer,
    its plan built first so an eps that ``refinement_plan`` rejects costs no queries."""
    plan = refinement_plan(params, eps, delta, profile)
    return run_pipeline(localize_median, plan, agent, params, delta)


def predict_cost(params: FamilyParams, eps: float, delta: float,
                 profile: str = "empirical") -> CostBreakdown:
    """Closed-form sample counts; equal to the agent's transcript after ``estimate_mean``."""
    plan = refinement_plan(params, eps, delta, profile)
    return pipeline_cost(median_search_cost(params, delta), plan)


# -- analytic oracles for the query identities (test support) ---------------

def analytic_region_probs(dist: Distribution, center: float,
                          region: Region) -> tuple[float, float]:
    """Exact (p_a, p_b) for the region's four queries around ``center``."""
    f1, f2, f3, f4 = query_probabilities(dist, _region_table((region,), (1,), center)).tolist()
    return f1 - f2, f3 - f4


def analytic_region_mean(dist: Distribution, center: float, region: Region) -> float:
    """Exact expectation of the region estimator: sign * (a p_a + b p_b).

    Equals E[(X - center) 1(X - center in the cell)] for the half-open cells
    of ``Region``, so an atom on a shared endpoint is counted in exactly one
    region.
    """
    p_a, p_b = analytic_region_probs(dist, center, region)
    return region.sign * (region.inner * p_a + region.outer * p_b)


def analytic_base_variance(dist: Distribution, center: float, plan: RefinementPlan) -> float:
    """Exact variance of one batch of the base estimator around ``center``.

    Every count is an independent Binomial(n_i, p), so a region with weights
    (w_a, w_b) contributes n_i (w_a^2 (v1 + v2) + w_b^2 (v3 + v4)) with
    v = p (1 - p) for its four queries.
    """
    p = query_probabilities(dist, plan.table.shifted(center))
    v = (p * (1.0 - p)).reshape(-1, 4)
    w = plan.weights
    return float(np.sum(plan.table.reps[::4] * (w[:, 0] ** 2 * (v[:, 0] + v[:, 1])
                                                + w[:, 1] ** 2 * (v[:, 2] + v[:, 3]))))
