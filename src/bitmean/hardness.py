"""Hard-instance constructions as executable fixtures, exact verifiers for
their stated properties, and a non-adaptive interval-query baseline.

The pair grid packs Theta(lam/sigma) two-point instances into the search
range; the finite-variance pair hides an order-eps mean shift across a
geometric grid so that any single 1-bit query carries O(eps^2 / (M sigma^2))
of distinguishing information.  Both families have exact discrete oracles, so
every claimed moment, mean, and KL property is checkable to 1e-12.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import Agent, Interval, QueryTable, Transcript
from .distributions import DiscreteMixture, make_discrete

__all__ = [
    "PairGrid",
    "make_pair_grid",
    "K2HardPair",
    "make_k2_pair",
    "KLVerification",
    "bernoulli_kl",
    "verify_kl_bound",
    "baseline_query_plan",
    "BaselineEstimate",
    "nonadaptive_baseline",
]


@dataclass(frozen=True)
class PairGrid:
    """2N two-point instances with centers 2 sigma apart across [-lam, lam]."""

    lam: float
    sigma: float
    eps: float
    n_pairs: int
    centers: tuple[float, ...]

    def member(self, pair_index: int, sign: int) -> DiscreteMixture:
        """The instance at the given center whose mean is center + sign * eps."""
        if not 1 <= pair_index <= self.n_pairs:
            raise ValueError(f"pair index must be in 1..{self.n_pairs}, got {pair_index}")
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        c = self.centers[pair_index - 1]
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
    rounded up to an integer multiple of sigma.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not 0 < eps < sigma / 2.0:
        raise ValueError(f"need 0 < eps < sigma/2; got eps={eps}, sigma={sigma}")
    lam_grid = sigma * math.ceil(lam / sigma - 1e-12)
    n_pairs = int(round(lam_grid / sigma)) - 1
    if n_pairs < 1:
        raise ValueError(f"lam={lam} leaves no room for any pair at sigma={sigma}")
    centers = tuple(-lam_grid + 2.0 * j * sigma for j in range(1, n_pairs + 1))
    return PairGrid(lam=lam_grid, sigma=sigma, eps=eps, n_pairs=n_pairs,
                    centers=centers)


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


def baseline_query_plan(lam: float, sigma: float, eps: float,
                        budget: int) -> list[tuple[int, str, Interval, int]]:
    """The baseline's full query list -- a pure function of the parameters.

    Splits the budget evenly over 2N slots: per pair, a presence interval
    covering both support points and a sign interval covering only the upper
    one.  Computable before any response, which is what non-adaptive means.
    """
    grid = make_pair_grid(lam, sigma, eps)
    per_slot = budget // (2 * grid.n_pairs)
    if per_slot < 1:
        raise ValueError(
            f"budget {budget} below the 2N = {2 * grid.n_pairs} queries needed"
        )
    plan = []
    for j, c in enumerate(grid.centers, start=1):
        plan.append((j, "presence", Interval(c - sigma, c + sigma), per_slot))
        plan.append((j, "sign", Interval(c, c + sigma), per_slot))
    return plan


@dataclass(frozen=True)
class BaselineEstimate:
    mu_hat: float
    pair_index: int
    sign: int
    samples_used: int


def nonadaptive_baseline(agent: Agent, lam: float, sigma: float, eps: float,
                         budget: int,
                         transcript: Transcript | None = None) -> BaselineEstimate:
    """Run the fixed plan as one draw, pick the pair by presence fraction and
    the sign by comparing the sign fraction to 1/2; return center + sign * eps."""
    if transcript is None:
        transcript = Transcript()
    transcript.begin_phase("nonadaptive")
    plan = baseline_query_plan(lam, sigma, eps, budget)
    table = QueryTable(tuple(q for _, _, q, _ in plan), tuple(m for _, _, _, m in plan))
    ones = agent.respond_count(table, table.per_block)
    transcript.record_batch(table.per_block)
    frac = ones / np.array(table.reps)
    presence, sign_frac = frac[0::2], frac[1::2]  # the plan alternates the two per pair

    j_hat = int(np.argmax(presence)) + 1
    sign = 1 if sign_frac[j_hat - 1] >= 0.5 else -1
    center = table.queries[2 * j_hat - 1].lo  # the sign interval is [c_j, c_j + sigma]
    return BaselineEstimate(
        mu_hat=center + sign * eps,
        pair_index=j_hat,
        sign=sign,
        samples_used=table.per_block,
    )
