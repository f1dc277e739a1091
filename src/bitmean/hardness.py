"""Hard-instance constructions as executable fixtures, exact verifiers for
their stated properties, and a non-adaptive interval-query baseline.

The pair grid packs Theta(lam/sigma) two-point instances into the search
range; the finite-variance pair hides an order-eps mean shift across a
geometric grid so that any single 1-bit query carries O(eps^2 / (M sigma^2))
of distinguishing information.  Both families have exact discrete oracles, so
every claimed moment, mean, and KL property is checkable to 1e-12.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import INT64_MAX, Agent, Interval, QueryTable, _is_count
from .distributions import DiscreteMixture, make_discrete, _require_float64

__all__ = [
    "PairGrid",
    "make_pair_grid",
    "K2HardPair",
    "make_k2_pair",
    "KLVerification",
    "bernoulli_kl",
    "verify_kl_bound",
    "MAX_PAIR_GRID_LAM_OVER_SIGMA",
    "MAX_BASELINE_LAM_OVER_SIGMA",
    "BaselinePlan",
    "baseline_plan",
    "baseline_query_plan",
    "BaselineEstimate",
    "nonadaptive_baseline",
]

# The widest pair grid built: lam/sigma up to 2^22, so 2^22 - 1 pairs.  The
# cap was the grid's own cost while it stored its centers (128 MiB at 2^22);
# a grid now computes each center from its pair index and holds no array, so
# the cap stays only until the pair grid is checked beyond it.
MAX_PAIR_GRID_LAM_OVER_SIGMA = 2 ** 22
# The widest baseline plan built: lam/sigma up to 2^20.  On the same host that
# plan holds 96 MiB and one baseline call peaked at 285 MiB RSS.
MAX_BASELINE_LAM_OVER_SIGMA = 2 ** 20


@dataclass(frozen=True)
class PairGrid:
    """2N two-point instances with centers 2 sigma apart across [-lam, lam]."""

    lam: float
    sigma: float
    eps: float
    n_pairs: int

    def center(self, pair_index: int) -> float:
        """c_j = -lam + 2 j sigma, the center of pair j."""
        return -self.lam + 2.0 * pair_index * self.sigma

    def member(self, pair_index: int, sign: int) -> DiscreteMixture:
        """The instance at the given center whose mean is center + sign * eps.

        ``pair_index`` is an int in 1..N and ``sign`` the int +1 or -1; a bool
        or a float is neither.
        """
        if not (_is_count(pair_index) and 1 <= pair_index <= self.n_pairs):
            raise ValueError(f"pair index must be an int in 1..{self.n_pairs}, "
                             f"got {pair_index!r}")
        if not (_is_count(sign) and sign in (1, -1)):
            raise ValueError(f"sign must be the int +1 or -1, got {sign!r}")
        c = self.center(pair_index)
        upper_mass = 0.5 + sign * self.eps / self.sigma
        return make_discrete(
            [c - self.sigma / 2.0, c + self.sigma / 2.0],
            [1.0 - upper_mass, upper_mass],
        )

    def members(self):
        for j in range(1, self.n_pairs + 1):
            for sign in (-1, 1):
                yield j, sign, self.member(j, sign)


def make_pair_grid(lam: float, sigma: float, eps: float) -> PairGrid:
    """Centers c_j = -lam + 2 j sigma for j = 1..N with N = lam/sigma - 1.

    Requires eps < sigma/2 (else the two-point masses leave [0, 1]); lam is
    rounded up to an integer multiple of sigma, at most
    ``MAX_PAIR_GRID_LAM_OVER_SIGMA`` of them.
    """
    _require_float64(lam=lam, sigma=sigma)
    if not (math.isfinite(lam) and math.isfinite(sigma)):
        raise ValueError(f"lam and sigma must be finite, got lam={lam}, sigma={sigma}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not 0 < eps < sigma / 2.0:
        raise ValueError(f"need 0 < eps < sigma/2; got eps={eps}, sigma={sigma}")
    cells = lam / sigma - 1e-12  # lam is rounded up to ceil(cells) sigma-steps
    if not cells > 1:
        raise ValueError(f"lam={lam} leaves no room for any pair at sigma={sigma}")
    if cells > MAX_PAIR_GRID_LAM_OVER_SIGMA:
        raise ValueError(f"lam/sigma = {lam / sigma:g} exceeds the pair grid's cap of "
                         f"{MAX_PAIR_GRID_LAM_OVER_SIGMA}")
    n_pairs = math.ceil(cells) - 1
    return PairGrid(lam=sigma * (n_pairs + 1), sigma=sigma, eps=eps, n_pairs=n_pairs)


@dataclass(frozen=True)
class K2HardPair:
    """Null vs mixture pair that exhausts the variance budget on a dyadic grid.

    The null places mass q_i = 1/(2M 4^i) at +-x_i with x_i = 2^i sigma (rest
    at the origin) so Var = sigma^2 exactly; component i of the alternative
    moves mass p_i = 3 eps / (2^{i+1} sigma} from -x_i to +x_i, shifting the
    mean to 3 eps while never raising the second moment.
    """

    sigma: float
    eps: float
    n_levels: int
    grid: tuple[float, ...]
    null_masses: tuple[float, ...]
    shift_masses: tuple[float, ...]
    null: DiscreteMixture
    mixture: DiscreteMixture
    components: tuple[DiscreteMixture, ...]

    @property
    def kl_bound(self) -> float:
        """Per-query KL ceiling 36 eps^2 / (M sigma^2)."""
        return 36.0 * self.eps ** 2 / (self.n_levels * self.sigma ** 2)


def make_k2_pair(sigma: float, eps: float, lam: float | None = None) -> K2HardPair:
    for name, value in (("sigma", sigma), ("eps", eps), ("lam", lam)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {name}={value}")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not eps > 0:
        raise ValueError("eps must be positive")
    m = int(math.floor(0.5 * math.log2(sigma / (3.0 * eps))))
    if m < 1:
        raise ValueError(
            f"eps={eps} too large relative to sigma={sigma}: grid would be empty"
        )
    if lam is not None and 3.0 * eps > lam:
        raise ValueError(f"mixture mean 3 eps = {3 * eps} exceeds lam = {lam}")
    grid = [2.0 ** i * sigma for i in range(1, m + 1)]
    q = [1.0 / (2.0 * m * 4.0 ** i) for i in range(1, m + 1)]
    p = [3.0 * eps / (2.0 ** (i + 1) * sigma) for i in range(1, m + 1)]
    for i, (qi, pi) in enumerate(zip(q, p), start=1):
        if pi > qi:
            raise ValueError(
                f"construction invalid at level {i}: shift mass {pi} exceeds null mass {qi}"
            )
    origin_mass = 1.0 - 2.0 * math.fsum(q)

    def mixture_from(shift_by_level):
        points = [0.0]
        masses = [origin_mass]
        for x, qi, si in zip(grid, q, shift_by_level):
            points.extend([x, -x])
            masses.extend([qi + si, qi - si])
        return make_discrete(points, masses)

    null = mixture_from([0.0] * m)
    components = tuple(
        mixture_from([p[i] if i == j else 0.0 for i in range(m)]) for j in range(m)
    )
    mixture = mixture_from([pi / m for pi in p])
    return K2HardPair(
        sigma=sigma, eps=eps, n_levels=m, grid=tuple(grid),
        null_masses=tuple(q), shift_masses=tuple(p),
        null=null, mixture=mixture, components=components,
    )


def bernoulli_kl(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), handling 0 exactly."""
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    if p == q:
        return 0.0
    if q in (0.0, 1.0):
        return math.inf
    terms = []
    if p > 0:
        terms.append(p * math.log(p / q))
    if p < 1:
        terms.append((1.0 - p) * math.log((1.0 - p) / (1.0 - q)))
    return math.fsum(terms)


@dataclass(frozen=True)
class KLVerification:
    max_kl: float
    bound: float
    n_subsets: int
    worst_subset: tuple[float, ...]
    all_within_bound: bool


def verify_kl_bound(pair: K2HardPair, slack: float = 1e-15) -> KLVerification:
    """Exhaustively check every subset of the non-origin grid points.

    For each S, the 1-bit response distributions are Bernoulli(mixture mass of
    S) vs Bernoulli(null mass of S); each KL must stay below the pair's
    per-query ceiling.  Label-swap invariance of Bernoulli KL reduces general
    measurable queries to these subsets.
    """
    m = pair.n_levels
    if m > 8:
        raise ValueError(f"exhaustive enumeration is capped at M = 8, got M = {m}")
    points = [x for level_x in pair.grid for x in (level_x, -level_x)]
    null_mass = {}
    mix_mass = {}
    for x, q_i, p_i in zip(pair.grid, pair.null_masses, pair.shift_masses):
        null_mass[x] = null_mass[-x] = q_i
        mix_mass[x] = q_i + p_i / m
        mix_mass[-x] = q_i - p_i / m

    max_kl = -1.0
    worst: tuple[float, ...] = ()
    count = 0
    for r in range(len(points) + 1):
        for subset in itertools.combinations(points, r):
            count += 1
            q = math.fsum(null_mass[x] for x in subset)
            p = math.fsum(mix_mass[x] for x in subset)
            kl = bernoulli_kl(p, q)
            if kl > max_kl:
                max_kl = kl
                worst = subset
    return KLVerification(
        max_kl=max_kl,
        bound=pair.kl_bound,
        n_subsets=count,
        worst_subset=worst,
        all_within_bound=max_kl <= pair.kl_bound + slack,
    )


@dataclass(frozen=True)
class BaselinePlan:
    """The baseline's queries, fixed by (lam, sigma, eps, budget) alone.

    The budget is split evenly over 2N slots: per pair, a presence interval
    [c - sigma, c + sigma] covering both support points, then a sign interval
    [c, c + sigma] covering only the upper one, each repeated ``per_slot`` =
    budget // 2N times.  ``table`` holds them in that order, pair by pair.
    Computable before any response, which is what non-adaptive means.
    """

    grid: PairGrid
    per_slot: int
    table: QueryTable


def baseline_plan(lam: float, sigma: float, eps: float, budget: int) -> BaselinePlan:
    """The baseline's plan, built once per (lam, sigma, eps, budget) and shared.

    The last plan is kept, keyed on its arguments and their types;
    ``baseline_plan.cache_clear()`` drops it.  A plan holds ~96 bytes per
    pair: 0.1 MiB at lam = 2^10 sigma, 96 MiB at the cap
    ``MAX_BASELINE_LAM_OVER_SIGMA`` = 2^20.
    """
    # checked before the lookup: 60.0 and True hash as 60 and 1 do
    if not _is_count(budget):
        raise ValueError(f"budget must be an int, got {budget!r}")
    return _cached_baseline_plan(lam, sigma, eps, int(budget))


def _per_slot(grid: PairGrid, budget: int) -> int:
    """budget // 2N, the repetitions of each of the baseline's 2N slots on the
    grid; ``ValueError`` unless it is at least 1 and within int64."""
    slots = 2 * grid.n_pairs
    per_slot = budget // slots
    if per_slot < 1:
        raise ValueError(f"budget {budget} below the 2N = {slots} queries needed")
    if per_slot > INT64_MAX:
        raise ValueError(f"budget {budget} puts {per_slot} queries in one slot, beyond int64")
    return per_slot


# One plan: every caller sweeps the trials of one budget before the next.
@functools.lru_cache(maxsize=1, typed=True)
def _cached_baseline_plan(lam: float, sigma: float, eps: float, budget: int) -> BaselinePlan:
    # checked before the grid is built; make_pair_grid names a non-finite input
    if math.isfinite(lam) and sigma > 0 and lam / sigma - 1e-12 > MAX_BASELINE_LAM_OVER_SIGMA:
        raise ValueError(f"lam/sigma = {lam / sigma:g} exceeds the baseline's cap of "
                         f"{MAX_BASELINE_LAM_OVER_SIGMA}")
    grid = make_pair_grid(lam, sigma, eps)
    per_slot = _per_slot(grid, budget)
    c = -grid.lam + 2.0 * np.arange(1, grid.n_pairs + 1) * grid.sigma  # every PairGrid.center
    table = QueryTable.from_columns(Interval, np.full(2 * grid.n_pairs, per_slot),
                                    lo=np.column_stack([c - grid.sigma, c]).ravel(),
                                    hi=np.repeat(c + grid.sigma, 2))
    return BaselinePlan(grid=grid, per_slot=per_slot, table=table)


baseline_plan.cache_clear = _cached_baseline_plan.cache_clear
baseline_plan.cache_info = _cached_baseline_plan.cache_info


def baseline_query_plan(lam: float, sigma: float, eps: float,
                        budget: int) -> list[tuple[int, str, Interval, int]]:
    """The baseline's full query list -- a pure function of the parameters:
    (pair index, "presence" or "sign", interval, repetitions) per row of its
    plan's table, pair by pair."""
    plan = baseline_plan(lam, sigma, eps, budget)
    return [(row // 2 + 1, ("presence", "sign")[row % 2], q, plan.per_slot)
            for row, q in enumerate(plan.table.queries)]


@dataclass(frozen=True)
class BaselineEstimate:
    mu_hat: float
    pair_index: int
    sign: int
    samples_used: int


def nonadaptive_baseline(agent: Agent, lam: float, sigma: float, eps: float,
                         budget: int) -> BaselineEstimate:
    """Run the fixed plan as one draw and decide on its exact counts: the pair
    j is the first with the most presence 1-bits, and the sign is +1 iff the
    sign interval of pair j answered 1 on at least half its per_slot queries,
    2 * ones >= per_slot; return center + sign * eps.

    Every slot repeats per_slot times, so these are the presence-fraction
    maximum and the sign-fraction test against 1/2, exactly; float fractions
    give the same decisions while per_slot <= 2^53.  With m = per_slot and
    the sign interval's probability q, the sign is +1 with probability
    Pr(Bin(m, q) >= ceil(m / 2)) = ``binom.sf((m + 1) // 2 - 1, m, q)``, the
    law acceptance criterion 11 evaluates exactly.
    """
    agent.transcript.begin_phase("nonadaptive")
    plan = baseline_plan(lam, sigma, eps, budget)
    table = plan.table
    ones = agent.respond_count(table, table.per_block)[0]
    # the table alternates presence and sign rows, pair by pair
    j_hat = int(np.argmax(ones[0::2])) + 1
    sign = 1 if 2 * int(ones[2 * j_hat - 1]) >= plan.per_slot else -1
    return BaselineEstimate(
        mu_hat=plan.grid.center(j_hat) + sign * eps,
        pair_index=j_hat,
        sign=sign,
        samples_used=table.per_block,
    )
