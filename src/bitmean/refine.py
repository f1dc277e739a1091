"""Refinement: cutoff selection, dyadic partition, randomized threshold
queries, variance-aware allocation, and the median-of-means wrapper.

All sample counts are deterministic functions of the parameters, so
``predict_cost`` reproduces realized transcript totals exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import Agent, Query, QueryTable, ThresholdGE, ThresholdGT, ThresholdLE, \
    ThresholdLT, Transcript, UniformThreshold, query_probabilities, query_probability
from .distributions import Distribution, FamilyParams
from .localization import LocalizationResult, localize_median, median_search_cost

__all__ = [
    "ALLOCATION_PROFILES",
    "allocation_constant",
    "worst_case_tail_bound",
    "cutoff_threshold",
    "Region",
    "RefinementPlan",
    "EstimateReport",
    "CostBreakdown",
    "build_plan",
    "refinement_plan",
    "region_queries",
    "query_table",
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

ALLOCATION_PROFILES = ("proof-safe", "empirical")


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
    |mean - c| <= 4 sigma: sigma^k/(t - 4s)^{k-1} + 4s * sigma^k/(t - 4s)^k."""
    k = params.operative_k
    s = params.sigma
    gap = t - SHIFTED_MEAN_BOUND * s
    if gap <= 0:
        return math.inf
    return s ** k / gap ** (k - 1.0) + SHIFTED_MEAN_BOUND * s * s ** k / gap ** k


def cutoff_threshold(params: FamilyParams, eps: float) -> float:
    """Smallest power-of-two multiple t = 2^j sigma (j >= 4) with tail bound <= eps/2."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    j = MIN_CUTOFF_EXPONENT
    while worst_case_tail_bound(params, 2.0 ** j * params.sigma) > eps / 2.0:
        j += 1
    return 2.0 ** j * params.sigma


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
    t: float
    i_max: int
    regions: tuple[Region, ...]
    n_by_magnitude: dict[int, int]
    batches: int
    profile: str
    params: FamilyParams
    eps: float

    @property
    def samples_per_batch(self) -> int:
        return sum(4 * self.n_by_magnitude[abs(r.index)] for r in self.regions)

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
    """Partition, allocation, and batch count for one refinement run."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not 0 < eps < SHIFTED_MEAN_BOUND * params.sigma:
        raise ValueError(
            f"refinement expects 0 < eps < 4 sigma; got eps={eps}, sigma={params.sigma}"
        )
    k = params.operative_k
    sigma = params.sigma
    t = cutoff_threshold(params, eps)
    i_max = round(math.log2(t / sigma))
    c = allocation_constant(profile, k)
    n_by_magnitude = {
        i: math.ceil(c * (sigma / eps) ** 2 * 2.0 ** (i * (2.0 - k)))
        for i in range(1, i_max + 1)
    }
    n_max = max(n_by_magnitude.values())
    if n_max > np.iinfo(np.int64).max:
        raise ValueError(
            f"eps={eps} needs n_i={n_max} queries in one region, beyond int64"
        )
    batches = math.ceil(8.0 * math.log(2.0 / delta))
    regions = [Region(index=side * i, inner=inner, outer=outer)
               for side in (1, -1) for i, inner, outer in _region_magnitudes(sigma, i_max)]
    return RefinementPlan(
        t=t, i_max=i_max, regions=tuple(regions), n_by_magnitude=n_by_magnitude,
        batches=batches, profile=profile, params=params, eps=eps,
    )


def refinement_plan(params: FamilyParams, eps: float, delta: float,
                    profile: str = "empirical") -> RefinementPlan | None:
    """The refinement round's plan, fixed by (params, eps, delta) before any query;
    ``None`` when eps >= 4 sigma, where the localized center alone meets eps."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if eps >= SHIFTED_MEAN_BOUND * params.sigma:
        return None
    return build_plan(params, eps, delta, profile)


def region_queries(region: Region, center: float) -> tuple[Query, Query, Query, Query]:
    """The region's four queries, in original coordinates around ``center``.

    With Y = X - center and T ~ Uniform(a, b), a right region (a, b] uses

        f1 = 1(Y > a),   f2 = 1(Y >= T),   f3 = 1(Y <= b),   f4 = 1(Y <= T),

    so E[f1 - f2] = E[1(a < Y <= b) Pr(T > Y)] = p_a and E[f3 - f4] =
    E[1(a < Y <= b) Pr(T < Y)] = p_b, and y = a Pr(T > y) + b Pr(T < y) on
    [a, b] gives a p_a + b p_b = E[Y 1(a < Y <= b)].  Left regions mirror this
    onto [-b, -a).  The inner endpoint is strict so an atom on a cell boundary
    is counted once; regions +-1 keep f1 closed at the center, where a = 0.
    """
    a, b = region.inner, region.outer
    if region.index > 0:
        lo, hi = center + a, center + b
        near = ThresholdGE(lo) if region.index == 1 else ThresholdGT(lo)
        return near, UniformThreshold("ge", lo, hi), ThresholdLE(hi), \
            UniformThreshold("le", lo, hi)
    lo, hi = center - b, center - a
    near = ThresholdLE(hi) if region.index == -1 else ThresholdLT(hi)
    return near, UniformThreshold("le", lo, hi), ThresholdGE(lo), \
        UniformThreshold("ge", lo, hi)


def query_table(plan: RefinementPlan, center: float) -> QueryTable:
    """The refinement round as one table: the four ``region_queries`` of every
    region, in ``plan.regions`` order, each repeated n_i times per batch, so
    ``per_block`` is ``plan.samples_per_batch``."""
    return QueryTable(
        tuple(q for region in plan.regions for q in region_queries(region, center)),
        tuple(plan.n_by_magnitude[abs(region.index)]
              for region in plan.regions for _ in range(4)))


def _region_sums(agent: Agent, regions, table: QueryTable, batches: int,
                 transcript: Transcript | None) -> np.ndarray:
    """Each batch's sum over ``regions`` of sign * (a p_a + b p_b), from one
    draw of ``table``, which holds the regions' four queries in order."""
    n = batches * table.per_block
    counts = agent.respond_count(table, n, groups=batches)
    if transcript is not None:
        transcript.record_batch(n)
    f = (counts / np.array(table.reps, dtype=float)).reshape(batches, len(regions), 4)
    sign = np.array([region.sign for region in regions], dtype=float)
    inner = np.array([region.inner for region in regions])
    outer = np.array([region.outer for region in regions])
    values = sign * (inner * (f[..., 0] - f[..., 1]) + outer * (f[..., 2] - f[..., 3]))
    return values.sum(axis=1)


def estimate_region(agent: Agent, region: Region, n: int,
                    queries: tuple[Query, Query, Query, Query], batches: int,
                    transcript: Transcript | None = None) -> np.ndarray:
    """The region's mean contribution E[Y 1(Y in cell)], estimated once per batch.

    ``queries`` are the region's ``region_queries``.  Each is asked n times
    per batch, all ``batches`` blocks in one draw, and each batch's estimate
    is sign * (a p_a + b p_b); 4 n queries per batch.  This is
    ``base_estimate``'s draw and combination for a single region.
    """
    if n < 1:
        raise ValueError("region allocation must be >= 1")
    return _region_sums(agent, (region,), QueryTable(tuple(queries), (n,) * 4), batches,
                        transcript)


def base_estimate(agent: Agent, plan: RefinementPlan, center: float,
                  table: QueryTable, batches: int,
                  transcript: Transcript | None = None) -> np.ndarray:
    """The base estimator's value in each of ``batches`` independent batches:
    the localization center plus the sum of the region estimates.

    ``table`` is ``query_table(plan, center)``; the whole round is one
    ``respond_count`` draw of it.
    """
    return center + _region_sums(agent, plan.regions, table, batches, transcript)


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


def refine_from_center(agent: Agent, plan: RefinementPlan, center: float,
                       transcript: Transcript | None = None) -> tuple[float, tuple[float, ...]]:
    """K batches of the base estimator around ``center``; returns their median and the values."""
    if transcript is None:
        transcript = Transcript()
    transcript.begin_phase("refinement")
    values = base_estimate(agent, plan, center, query_table(plan, center), plan.batches,
                           transcript)
    return float(np.median(values)), tuple(values.tolist())


@dataclass(frozen=True)
class CostBreakdown:
    localization: int
    refinement: int
    t: float | None
    i_max: int
    batches: int
    n_per_region: dict[int, int]

    @property
    def total(self) -> int:
        return self.localization + self.refinement


def run_pipeline(localize: Callable[..., LocalizationResult], plan: RefinementPlan | None,
                 agent: Agent, params: FamilyParams, delta: float,
                 transcript: Transcript | None = None) -> EstimateReport:
    """Localize, recenter, refine in one non-adaptive round, take the median.

    ``localize(agent, params, delta, transcript)`` returns the center;
    ``plan`` is the ``refinement_plan`` at a scale whose sigma puts that center
    within 4 sigma of the mean, or ``None`` when the center alone meets eps.
    """
    if transcript is None:
        transcript = Transcript()
    loc = localize(agent, params, delta, transcript)
    if plan is None:
        return EstimateReport(mu_hat=loc.center, n_localization=loc.samples_used,
                              n_refinement=0, rounds_of_adaptivity=loc.rounds,
                              localization=loc, plan=None)
    mu_hat, values = refine_from_center(agent, plan, loc.center, transcript)
    return EstimateReport(mu_hat=mu_hat, n_localization=loc.samples_used,
                          n_refinement=plan.total_samples,
                          rounds_of_adaptivity=loc.rounds + 1, localization=loc,
                          plan=plan, batch_values=values)


def pipeline_cost(localization: int, plan: RefinementPlan | None) -> CostBreakdown:
    """Exact sample counts of ``run_pipeline``, given its localization cost."""
    if plan is None:
        return CostBreakdown(localization=localization, refinement=0, t=None, i_max=0,
                             batches=0, n_per_region={})
    return CostBreakdown(
        localization=localization,
        refinement=plan.total_samples,
        t=plan.t,
        i_max=plan.i_max,
        batches=plan.batches,
        n_per_region=dict(plan.n_by_magnitude),
    )


def estimate_mean(agent: Agent, params: FamilyParams, eps: float, delta: float,
                  profile: str = "empirical",
                  transcript: Transcript | None = None) -> EstimateReport:
    """The full adaptive estimator: ``run_pipeline`` with the median localizer,
    its plan built first so an eps that ``refinement_plan`` rejects costs no queries."""
    plan = refinement_plan(params, eps, delta, profile)
    return run_pipeline(localize_median, plan, agent, params, delta, transcript)


def predict_cost(params: FamilyParams, eps: float, delta: float,
                 profile: str = "empirical") -> CostBreakdown:
    """Closed-form sample counts; matches realized ``estimate_mean`` transcripts exactly."""
    plan = refinement_plan(params, eps, delta, profile)
    return pipeline_cost(median_search_cost(params, delta), plan)


# -- analytic oracles for the query identities (test support) ---------------

def analytic_region_probs(dist: Distribution, center: float,
                          region: Region) -> tuple[float, float]:
    """Exact (p_a, p_b) for the region's four ``region_queries``."""
    f1, f2, f3, f4 = (query_probability(dist, q) for q in region_queries(region, center))
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

    Every count is an independent Binomial(n_i, p), so a region contributes
    (a^2 (v1 + v2) + b^2 (v3 + v4)) / n_i with v = p (1 - p) for its four
    ``region_queries``.
    """
    table = query_table(plan, center)
    p = query_probabilities(dist, table.queries)
    v = (p * (1.0 - p) / np.array(table.reps, dtype=float)).reshape(len(plan.regions), 4)
    inner = np.array([region.inner for region in plan.regions])
    outer = np.array([region.outer for region in plan.regions])
    return float(np.sum(inner ** 2 * (v[:, 0] + v[:, 1]) + outer ** 2 * (v[:, 2] + v[:, 3])))
