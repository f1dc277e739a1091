"""Distribution fixtures with exact samplers and closed-form oracles.

Every fixture exposes, besides a vectorized sampler, the analytic quantities
the estimator tests rely on: CDF (with its strict variant so point masses are
handled exactly), mean, absolute central moments, and partial first moments
E[X * 1(X <= x)].  Nothing here is estimated by sampling; sampling exists only
so Monte Carlo checks can be run *against* these oracles.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

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
# A DiscreteMixture's CDFs alone on P sorted points fill its m + 1 runs, a
# Python loop over the atoms, once P >= FILL_POINTS_PER_ATOM (m + 6), and else
# search each point among the atoms.  Both CDFs, fill against search, timeit
# minimum, 2-core x86-64 host: at m = 2, 6.5 against 5.9 us at P = 256, 6.7
# against 7.8 us at 512 and 8.1 against 24.8 us at 2,047 (the pair-grid
# baseline's table); at m = 16, 17.8 against 18.1 us at P = 1,024; at m = 64,
# 53 against 40 us at 2,047.
FILL_POINTS_PER_ATOM = 64


def _require_float64(**values) -> None:
    """Refuse, with ``ValueError``, an int too large for float64 (a 400-digit
    lam, say), which the first float arithmetic on it would meet with
    ``OverflowError``."""
    for name, value in values.items():
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ValueError(f"{name} is an int of {value.bit_length()} bits, beyond float64")


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
        _require_float64(k=self.k, lam=self.lam, sigma=self.sigma)
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

    def _on_sorted(self, points: np.ndarray, means: bool):
        """``(cdf, cdf_strict, partial_mean, partial_mean_strict)`` at a table's
        points, bytewise those oracles' values, in the one call a table's pass
        makes; the partial means are None unless ``means``.  The points are
        sorted, distinct and not NaN, and the caller only reads the arrays."""
        cdfs = self.cdf(points), self.cdf_strict(points)
        return (*cdfs, self.partial_mean(points), self.partial_mean_strict(points)) if means \
            else (*cdfs, None, None)

    # -- derived quantities ------------------------------------------------
    def prob_interval(self, lo, hi):
        """Pr(lo <= X <= hi), both endpoints included; vectorized over arrays."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not np.all(lo <= hi):  # NaN fails it too
            raise ValueError(f"interval endpoints out of order or NaN: [{lo}, {hi}]")
        # infinite ends are exact: a discrete cdf's last cumulative sum may miss 1
        hi_part = np.where(hi == math.inf, 1.0, self.cdf(hi))
        lo_part = np.where(lo == -math.inf, 0.0, self.cdf_strict(lo))
        return _scalar_or_array(hi_part - lo_part)

    def shifted_tail_contribution(self, center: float, t: float) -> float:
        """E[(X - center) * 1(|X - center| > t)], strict inequality."""
        if not t > 0:  # NaN too
            raise ValueError(f"cutoff t must be positive, got {t}")
        if not math.isfinite(center):
            raise ValueError(f"center must be finite, got {center}")
        inner_mean = self.partial_mean(center + t) - self.partial_mean_strict(center - t)
        inner_prob = float(self.cdf(center + t)) - float(self.cdf_strict(center - t))
        total = self.mean() - center
        return total - (inner_mean - center * inner_prob)


def _float_list(values) -> list[float] | None:
    """``values`` as a list of floats, or None if they are not one-dimensional.
    A list or tuple of Python numbers is converted without numpy; anything
    else as ``np.asarray(values, dtype=float)`` converts it."""
    if isinstance(values, (list, tuple)) and all(isinstance(v, (float, int)) for v in values):
        return [float(v) for v in values]
    array = np.asarray(values, dtype=float)
    return array.tolist() if array.ndim == 1 else None


def _scalar_or_array(out):
    """A float for a 0-d result, so scalar calls keep returning floats."""
    return float(out) if np.ndim(out) == 0 else out


class DiscreteMixture(Distribution):
    """Finite support distribution with exact rational-style bookkeeping.

    ``cdf`` and ``cdf_strict`` answer a float that is not NaN by bisecting a
    list of the atoms, with no array built; any other argument, and every
    other oracle, goes through numpy.  Both give the same cumulative sums.
    A table's pass reads both oracles' running sums at one pair of indices per
    point, found by searching each point among the atoms.  A pass without the
    partial means on ``FILL_POINTS_PER_ATOM`` (m + 6) or more sorted points, for
    m atoms, instead locates the atoms among the points and fills the runs
    between them with the CDFs.  The CDFs and the partial means are NaN at NaN,
    for a float and for an array entry alike, as the continuous fixtures' are.
    """

    def __init__(self, points, probs):
        for name, values in (("points", points), ("probs", probs)):
            if isinstance(values, (list, tuple)):  # a numeric ndarray holds no int beyond float64
                _require_float64(**{f"{name}[{i}]": v for i, v in enumerate(values)})
        xs, ps = _float_list(points), _float_list(probs)
        if xs is None or ps is None:
            raise ValueError("points and probs must be one-dimensional")
        if len(xs) != len(ps):
            raise ValueError(f"length mismatch: {len(xs)} points vs {len(ps)} probabilities")
        if not xs:
            raise ValueError("support must be non-empty")
        if not all(map(math.isfinite, xs)):
            raise ValueError(f"points must be finite, got {np.array(xs)}")
        if not all(map(math.isfinite, ps)):  # a NaN passes both checks below
            raise ValueError(f"probabilities must be finite, got {np.array(ps)}")
        if any(p < 0 for p in ps):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(ps)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {PROB_TOL}")
        merged_x: list[float] = []
        merged_p: list[float] = []
        for i in sorted(range(len(xs)), key=xs.__getitem__):  # a stable sort
            if merged_x and xs[i] == merged_x[-1]:
                merged_p[-1] += ps[i]
            else:
                merged_x.append(xs[i])
                merged_p.append(ps[i])
        # zero-prefixed running sums, added left to right from the first atom
        # as np.cumsum adds: entry i sums the first i atoms, so a searchsorted
        # index reads it
        self._xs = merged_x
        self._cums = [0.0, *itertools.accumulate(merged_p)]
        self._x = np.array(merged_x)
        self._p = np.array(merged_p)
        self._cum = np.array(self._cums)
        self._cum_xp = np.array([0.0, *itertools.accumulate(
            x * p for x, p in zip(merged_x, merged_p))])
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
        if isinstance(x, float) and x == x:
            return self._cums[bisect.bisect_right(self._xs, x)]
        return self._read(self._cum, x, "right")

    def cdf_strict(self, x):
        if isinstance(x, float) and x == x:
            return self._cums[bisect.bisect_left(self._xs, x)]
        return self._read(self._cum, x, "left")

    def _on_sorted(self, points, means):
        # The number of atoms at most and below a point indexes both running sums;
        # the CDFs alone, with few atoms among many points, fill the m + 1 runs
        # between atoms: atom i counts from the first point >= it in cdf, > it in
        # cdf_strict.
        if means or points.size < FILL_POINTS_PER_ATOM * (len(self._xs) + 6):
            at = (np.searchsorted(self._x, points, side="right"),
                  np.searchsorted(self._x, points, side="left"))
        else:  # each run filled with its running sum
            cdf, strict = np.empty(points.size), np.empty(points.size)
            for out, side in ((cdf, "left"), (strict, "right")):
                start = 0
                for end, total in zip(np.searchsorted(points, self._x, side).tolist(), self._cums):
                    out[start:end] = total
                    start = end
                out[start:] = self._cums[-1]
            return cdf, strict, None, None
        cdfs = self._cum[at[0]], self._cum[at[1]]
        return (*cdfs, self._cum_xp[at[0]], self._cum_xp[at[1]]) if means else (*cdfs, None, None)

    def mean(self):
        return self._mean

    def abs_central_moment(self, order):
        mu = self._mean
        return math.fsum(p * abs(x - mu) ** order for x, p in zip(self._x, self._p))

    def partial_mean(self, x):
        return self._read(self._cum_xp, x, "right")

    def partial_mean_strict(self, x):
        return self._read(self._cum_xp, x, "left")

    def _read(self, sums: np.ndarray, x, side: str):
        """``sums`` at the number of atoms left of x (at most x for side
        'right', below it for 'left'), NaN at NaN: numpy sorts NaN last, so
        its search would count every atom."""
        x = np.asarray(x, dtype=float)
        out = sums[np.searchsorted(self._x, x, side=side)]
        if x.ndim == 0:
            return float(out) if x == x else math.nan
        nan = np.isnan(x)
        if nan.any():
            out[nan] = math.nan
        return out


class PointMass(DiscreteMixture):
    def __init__(self, location: float):
        _require_float64(location=location)
        if not math.isfinite(location):
            raise ValueError(f"location must be finite, got {location}")
        super().__init__([location], [1.0])
        self.location = float(location)


class _Atomless(Distribution):
    """A distribution without atoms: each strict oracle is its plain one, so a
    table's pass evaluates each oracle once, as one read-only array for both."""

    def cdf_strict(self, x):
        return self.cdf(x)

    def partial_mean_strict(self, x):
        return self.partial_mean(x)

    def _on_sorted(self, points, means):
        cdf, mean = self.cdf(points), self.partial_mean(points) if means else None
        cdf.setflags(write=False)
        if means:
            mean.setflags(write=False)
        return cdf, cdf, mean, mean


class TwoSidedPareto(_Atomless):
    """Symmetric power-law tails outside a gap around the center.

    Density is proportional to |x - mu|**-(alpha+1) for |x - mu| >= x_min,
    with x_min sized so E|X - mu|**k equals sigma**k exactly:
    E|X - mu|**k = alpha * x_min**k / (alpha - k).
    """

    def __init__(self, k: float, sigma: float, mu: float = 0.0, alpha: float | None = None):
        _require_float64(k=k, sigma=sigma, mu=mu, alpha=alpha)
        if alpha is None:
            alpha = k + 0.4
        if not 1 < k < math.inf:
            raise ValueError(f"moment order k must be finite and exceed 1, got {k}")
        if not k < alpha < math.inf:
            raise ValueError(f"tail exponent alpha={alpha} must be finite and exceed k={k}")
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
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
        # (x - mu, x_min / max(|x - mu|, x_min)): inside the gap the ratio is 1.
        # Its powers are taken by np.power, which a float meets through the
        # same loop as an array, where ** on a numpy float calls libm's pow.
        d = np.asarray(x, dtype=float) - self.mu
        return d, self.x_min / np.maximum(np.abs(d), self.x_min)

    def cdf(self, x):
        # Pr(|X - mu| >= y) = r^alpha with r = x_min / y, half on each side;
        # both sides give 1/2 inside the gap |x - mu| < x_min.
        d, r = self._tail_ratio(x)
        half_tail = 0.5 * np.power(r, self.alpha)
        return _scalar_or_array(np.where(d >= 0, 1.0 - half_tail, half_tail))

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
        mass = 0.5 * np.power(r, self.alpha)
        magnitude = 0.5 * self.alpha * self.x_min / (self.alpha - 1.0) \
            * np.power(r, self.alpha - 1.0)
        return _scalar_or_array(np.where(d >= 0, self.mu - (self.mu * mass + magnitude),
                                         self.mu * mass - magnitude))


def gaussian_abs_moment_factor(order: float) -> float:
    """E|Z|**order for a standard normal Z."""
    return 2.0 ** (order / 2.0) * math.gamma((order + 1.0) / 2.0) / math.sqrt(math.pi)


def _ndtr(z):
    """The standard normal CDF, from ``scipy.special``, which is loaded on the
    first Gaussian oracle call rather than on ``import bitmean``."""
    from scipy.special import ndtr
    return ndtr(z)


class Gaussian(_Atomless):
    def __init__(self, mu: float, scale: float):
        _require_float64(mu=mu, scale=scale)
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {scale}")
        if not math.isfinite(mu):
            raise ValueError(f"mu must be finite, got {mu}")
        self.mu = float(mu)
        self.scale = float(scale)

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.scale, size=size)

    def cdf(self, x):
        return _scalar_or_array(_ndtr((np.asarray(x, dtype=float) - self.mu) / self.scale))

    def mean(self):
        return self.mu

    def abs_central_moment(self, order):
        return self.scale ** order * gaussian_abs_moment_factor(order)

    def partial_mean(self, x):
        z = (np.asarray(x, dtype=float) - self.mu) / self.scale
        # z * z overflows only for |z| > 1e154, where the pdf is 0 anyway
        with np.errstate(over="ignore"):
            pdf = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        return _scalar_or_array(self.mu * _ndtr(z) - self.scale * pdf)


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
    _require_float64(k=k, sigma=sigma)  # Gaussian checks mu
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
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
