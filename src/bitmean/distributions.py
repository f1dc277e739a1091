"""Distribution fixtures with exact samplers and closed-form oracles.

Every fixture exposes, besides a vectorized sampler, the analytic quantities
the estimator tests rely on: CDF (with its strict variant so point masses are
handled exactly), mean, absolute central moments, and partial first moments
E[X * 1(X <= x)].  Nothing here is estimated by sampling; sampling exists only
so Monte Carlo checks can be run *against* these oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

__all__ = [
    "FamilyParams",
    "FamilyCheck",
    "Distribution",
    "DiscreteMixture",
    "PointMass",
    "TwoSidedPareto",
    "Gaussian",
    "operative_order",
    "gaussian_abs_moment_factor",
    "make_discrete",
    "make_point_mass",
    "make_two_sided_pareto",
    "make_gaussian_budget_tight",
    "validate_family",
]

PROB_TOL = 1e-12
MOMENT_REL_TOL = 1e-9
# Beyond this the localization grid's 2 ceil(lam/sigma) sigma-steps exceed
# 2^53 and its points left_edge + i sigma are no longer exact in float64.
MAX_LAM_OVER_SIGMA = 2.0 ** 52


def operative_order(k: float) -> float:
    """Moment order actually used in computations: orders above 3 are capped.

    A bounded k-th central moment with k > 3 implies the same bound at order 3
    (Lyapunov), and capping keeps order-dependent constants like 2**k tame.
    """
    return min(float(k), 3.0)


@dataclass(frozen=True)
class FamilyParams:
    """Known problem parameters: moment order k, search half-width, scale."""

    k: float
    lam: float
    sigma: float

    def __post_init__(self):
        if not self.k > 1:
            raise ValueError(f"moment order k must exceed 1, got {self.k}")
        if not (math.isfinite(self.lam) and math.isfinite(self.sigma)):
            raise ValueError(f"lam and sigma must be finite, got lam={self.lam}, "
                             f"sigma={self.sigma}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.lam < self.sigma:
            raise ValueError(
                f"search half-width lam={self.lam} must be >= sigma={self.sigma}"
            )
        if self.lam / self.sigma > MAX_LAM_OVER_SIGMA:
            raise ValueError(
                f"lam/sigma = {self.lam / self.sigma:.6g} exceeds 2^52; the sigma-spaced "
                f"localization grid is no longer exact in float64"
            )

    @property
    def operative_k(self) -> float:
        return operative_order(self.k)


class Distribution:
    """Base class: immutable after construction, safe to share across threads.

    Sampling takes an explicit caller-owned ``numpy.random.Generator``; the
    object itself holds no random state.
    """

    kind: str = "abstract"

    # -- core oracles -----------------------------------------------------
    def sample(self, rng: np.random.Generator, size: int | None = None):
        raise NotImplementedError

    def cdf(self, x):
        """Pr(X <= x); vectorized over numpy arrays."""
        raise NotImplementedError

    def cdf_strict(self, x):
        """Pr(X < x); differs from cdf only at atoms."""
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def abs_central_moment(self, order: float) -> float:
        """E|X - mean|**order, in closed form."""
        raise NotImplementedError

    def partial_mean(self, x):
        """E[X * 1(X <= x)], in closed form; vectorized over numpy arrays."""
        raise NotImplementedError

    def partial_mean_strict(self, x):
        """E[X * 1(X < x)]."""
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------
    def prob_interval(self, lo, hi):
        """Pr(lo <= X <= hi), both endpoints included; vectorized over arrays."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(lo > hi):
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        # infinite ends are exact: a discrete cdf's last cumulative sum may miss 1
        hi_part = np.where(hi == math.inf, 1.0, self.cdf(hi))
        lo_part = np.where(lo == -math.inf, 0.0, self.cdf_strict(lo))
        return _scalar_or_array(hi_part - lo_part)

    def shifted_tail_contribution(self, center: float, t: float) -> float:
        """E[(X - center) * 1(|X - center| > t)], strict inequality."""
        if t <= 0:
            raise ValueError("cutoff t must be positive")
        inner_mean = self.partial_mean(center + t) - self.partial_mean_strict(center - t)
        inner_prob = float(self.cdf(center + t)) - float(self.cdf_strict(center - t))
        total = self.mean() - center
        return total - (inner_mean - center * inner_prob)


def _scalar_or_array(out):
    """A float for a 0-d result, so scalar calls keep returning floats."""
    return float(out) if np.ndim(out) == 0 else out


class DiscreteMixture(Distribution):
    """Finite support distribution with exact rational-style bookkeeping."""

    kind = "discrete-mixture"

    def __init__(self, points, probs):
        points = np.asarray(points, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if points.ndim != 1 or probs.ndim != 1:
            raise ValueError("points and probs must be one-dimensional")
        if points.size != probs.size:
            raise ValueError(
                f"length mismatch: {points.size} points vs {probs.size} probabilities"
            )
        if points.size == 0:
            raise ValueError("support must be non-empty")
        if np.any(probs < 0):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {PROB_TOL}")
        order = np.argsort(points, kind="stable")
        merged_x: list[float] = []
        merged_p: list[float] = []
        for x, p in zip(points[order], probs[order]):
            if merged_x and x == merged_x[-1]:
                merged_p[-1] += p
            else:
                merged_x.append(float(x))
                merged_p.append(float(p))
        self._x = np.array(merged_x)
        self._p = np.array(merged_p)
        # zero-prefixed: entry i sums the first i atoms, so a searchsorted index reads it
        self._cum = np.concatenate(([0.0], np.cumsum(self._p)))
        self._cum_xp = np.concatenate(([0.0], np.cumsum(self._x * self._p)))
        self._mean = math.fsum(x * p for x, p in zip(merged_x, merged_p))
        for arr in (self._x, self._p, self._cum, self._cum_xp):
            arr.setflags(write=False)

    @property
    def points(self) -> np.ndarray:
        return self._x

    @property
    def probs(self) -> np.ndarray:
        return self._p

    def sample(self, rng, size=None):
        idx = rng.choice(self._x.size, size=size, p=self._p)
        return self._x[idx]

    def cdf(self, x):
        return _scalar_or_array(self._cum[np.searchsorted(self._x, x, side="right")])

    def cdf_strict(self, x):
        return _scalar_or_array(self._cum[np.searchsorted(self._x, x, side="left")])

    def mean(self):
        return self._mean

    def abs_central_moment(self, order):
        mu = self._mean
        return math.fsum(p * abs(x - mu) ** order for x, p in zip(self._x, self._p))

    def partial_mean(self, x):
        return _scalar_or_array(self._cum_xp[np.searchsorted(self._x, x, side="right")])

    def partial_mean_strict(self, x):
        return _scalar_or_array(self._cum_xp[np.searchsorted(self._x, x, side="left")])


class PointMass(DiscreteMixture):
    kind = "point-mass"

    def __init__(self, location: float):
        super().__init__([location], [1.0])
        self.location = float(location)


class TwoSidedPareto(Distribution):
    """Symmetric power-law tails outside a gap around the center.

    Density is proportional to |x - mu|**-(alpha+1) for |x - mu| >= x_min,
    with x_min sized so E|X - mu|**k equals sigma**k exactly:
    E|X - mu|**k = alpha * x_min**k / (alpha - k).
    """

    kind = "two-sided-pareto"

    def __init__(self, k: float, sigma: float, mu: float = 0.0, alpha: float | None = None):
        if alpha is None:
            alpha = k + 0.4
        if not k > 1:
            raise ValueError(f"moment order k must exceed 1, got {k}")
        if not alpha > k:
            raise ValueError(f"tail exponent alpha={alpha} must exceed k={k}")
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        self.k = float(k)
        self.sigma = float(sigma)
        self.mu = float(mu)
        self.alpha = float(alpha)
        self.x_min = sigma * ((alpha - k) / alpha) ** (1.0 / k)

    def sample(self, rng, size=None):
        u = rng.random(size)
        side = np.where(rng.random(size) < 0.5, -1.0, 1.0)
        magnitude = self.x_min * (1.0 - u) ** (-1.0 / self.alpha)
        return self.mu + side * magnitude

    def _tail_ratio(self, x):
        # (x - mu, x_min / max(|x - mu|, x_min)): inside the gap the ratio is 1
        d = np.asarray(x, dtype=float) - self.mu
        return d, self.x_min / np.maximum(np.abs(d), self.x_min)

    def cdf(self, x):
        # Pr(|X - mu| >= y) = r^alpha with r = x_min / y, half on each side;
        # both sides give 1/2 inside the gap |x - mu| < x_min.
        d, r = self._tail_ratio(x)
        half_tail = 0.5 * r ** self.alpha
        return _scalar_or_array(np.where(d >= 0, 1.0 - half_tail, half_tail))

    def cdf_strict(self, x):
        return self.cdf(x)

    def mean(self):
        return self.mu

    def abs_central_moment(self, order):
        if order >= self.alpha:
            return math.inf
        return self.alpha * self.x_min ** order / (self.alpha - order)

    def partial_mean(self, x):
        # With y = max(|x - mu|, x_min) and r = x_min / y, one side's mass
        # beyond y is r^alpha / 2 and its magnitude mean there is
        # (alpha x_min / (alpha - 1)) r^(alpha - 1) / 2; the left side sums
        # mu - magnitude over X <= x, the right side subtracts X > x from mu.
        d, r = self._tail_ratio(x)
        mass = 0.5 * r ** self.alpha
        magnitude = 0.5 * self.alpha * self.x_min / (self.alpha - 1.0) * r ** (self.alpha - 1.0)
        return _scalar_or_array(np.where(d >= 0, self.mu - (self.mu * mass + magnitude),
                                         self.mu * mass - magnitude))

    def partial_mean_strict(self, x):
        return self.partial_mean(x)


def gaussian_abs_moment_factor(order: float) -> float:
    """E|Z|**order for a standard normal Z."""
    return 2.0 ** (order / 2.0) * math.gamma((order + 1.0) / 2.0) / math.sqrt(math.pi)


class Gaussian(Distribution):
    kind = "gaussian"

    def __init__(self, mu: float, scale: float):
        if not scale > 0:
            raise ValueError("scale must be positive")
        self.mu = float(mu)
        self.scale = float(scale)

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.scale, size=size)

    def cdf(self, x):
        return _scalar_or_array(ndtr((np.asarray(x, dtype=float) - self.mu) / self.scale))

    def cdf_strict(self, x):
        return self.cdf(x)

    def mean(self):
        return self.mu

    def abs_central_moment(self, order):
        return self.scale ** order * gaussian_abs_moment_factor(order)

    def partial_mean(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.scale
        # z * z overflows only for |z| > 1e154, where the pdf is 0 anyway
        with np.errstate(over="ignore"):
            pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return _scalar_or_array(self.mu * ndtr(z) - self.scale * pdf)

    def partial_mean_strict(self, x):
        return self.partial_mean(x)


# -- factories --------------------------------------------------------------

def make_discrete(points, probs) -> DiscreteMixture:
    """Fixture factory for finite-support instances with exact moments."""
    return DiscreteMixture(points, probs)


def make_point_mass(location: float) -> PointMass:
    return PointMass(location)


def make_two_sided_pareto(k: float, sigma: float, mu: float = 0.0,
                          alpha: float | None = None) -> TwoSidedPareto:
    """Heavy-tail fixture whose k-th absolute central moment is sigma**k exactly."""
    return TwoSidedPareto(k=k, sigma=sigma, mu=mu, alpha=alpha)


def make_gaussian_budget_tight(k: float, sigma: float, mu: float = 0.0) -> Gaussian:
    """Gaussian sized so E|X - mu|**k == sigma**k exactly (moment budget binds)."""
    scale = sigma * gaussian_abs_moment_factor(k) ** (-1.0 / k)
    return Gaussian(mu=mu, scale=scale)


@dataclass(frozen=True)
class FamilyCheck:
    """Verdict of the two membership conditions, with the checked values."""

    is_member: bool
    mean_value: float
    mean_bound: float
    moment_value: float
    moment_bound: float
    order_used: float

    def __bool__(self) -> bool:
        return self.is_member


def validate_family(dist: Distribution, params: FamilyParams) -> FamilyCheck:
    """Check |mean| <= lam and the capped-order central moment <= sigma**k'.

    The moment comparison allows 1e-9 relative slack so budget-tight fixtures
    (moment exactly equal to the bound) pass under floating-point arithmetic.
    """
    order = params.operative_k
    mean_value = dist.mean()
    moment_value = dist.abs_central_moment(order)
    moment_bound = params.sigma ** order
    mean_ok = abs(mean_value) <= params.lam
    moment_ok = moment_value <= moment_bound * (1.0 + MOMENT_REL_TOL)
    return FamilyCheck(
        is_member=bool(mean_ok and moment_ok),
        mean_value=mean_value,
        mean_bound=params.lam,
        moment_value=moment_value,
        moment_bound=moment_bound,
        order_used=order,
    )
