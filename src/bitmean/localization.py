"""Coarse localization of the mean to an O(sigma)-length interval.

Two routes:

* ``localize_median`` -- adaptive certified interval halving on a sigma-spaced
  grid.  Each endpoint it maintains carries a certified one-sided CDF claim,
  and midpoint decisions inside the ambiguous band (0.44, 0.5) (mirrored for
  the upper search) are acceptable either way, so only true violations count
  as errors.  Sample count is deterministic: 2 searches x levels x votes.

* ``localize_gray`` -- non-adaptive: the whole query plan (M bit groups of J
  Gray-function queries) is fixed before any response is read; majority vote
  per bit, decode to a dyadic cell, widen, map back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Agent, GrayBit, ThresholdLE, Transcript, repeated_fraction
from .distributions import FamilyParams

__all__ = [
    "LocalizationResult",
    "GrayPlan",
    "median_search_levels",
    "median_votes_per_level",
    "median_search_cost",
    "localize_median",
    "gray_bit_value",
    "gray_change_points",
    "gray_decode",
    "gray_plan",
    "gray_cost",
    "gray_interval_length_bound",
    "localize_gray",
]

# Certified CDF levels for the halving search, relaxed from (0.49, 0.51): the
# interval-length argument only needs the inner certificate to exceed
# 1/2.5**k <= 0.4, so a 0.03 decision margin around 0.47 / 0.53 is safe and
# cuts vote counts ~36x.
LOWER_BAND = (0.44, 0.50)
UPPER_BAND = (0.50, 0.56)
DECISION_MARGIN = 0.03


@dataclass(frozen=True)
class LocalizationResult:
    low: float
    high: float
    center: float
    samples_used: int
    method: str
    rounds: int  # sequential decision points (rounds of adaptivity) used

    @property
    def length(self) -> float:
        return self.high - self.low


def _grid_span_steps(params: FamilyParams) -> int:
    """Number of sigma-steps across the search grid, rounded up to 2 * ceil(lam/sigma)."""
    return 2 * math.ceil(params.lam / params.sigma - 1e-12)


def median_search_levels(params: FamilyParams) -> int:
    """ceil(log2(2 * lam_grid / sigma)) halving levels per search."""
    steps = _grid_span_steps(params)
    return max(1, (steps - 1).bit_length())


def median_votes_per_level(params: FamilyParams, delta: float) -> int:
    """Votes so each of 2 x levels decisions errs w.p. <= delta / (8 levels)."""
    levels = median_search_levels(params)
    return math.ceil(math.log(8.0 * levels / delta) / (2.0 * DECISION_MARGIN ** 2))


def median_search_cost(params: FamilyParams, delta: float) -> int:
    levels = median_search_levels(params)
    return 2 * levels * median_votes_per_level(params, delta)


def localize_median(agent: Agent, params: FamilyParams, delta: float,
                    transcript: Transcript | None = None) -> LocalizationResult:
    """Adaptive localization: returns [L - sigma, U + sigma] containing the mean
    with probability >= 1 - delta/2, of length at most 8 sigma on that event.

    The grid spans a power-of-two number of sigma-steps so both searches take
    exactly ``median_search_levels`` iterations on every path, making the
    sample count a pure function of (lam, sigma, delta).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if transcript is None:
        transcript = Transcript()
    transcript.begin_phase("localization")

    sigma = params.sigma
    levels = median_search_levels(params)
    votes = median_votes_per_level(params, delta)
    n_steps = 2 ** levels
    left_edge = -(n_steps / 2) * sigma

    def grid(i: int) -> float:
        return left_edge + i * sigma

    # Lower search: keep lo with claim F(lo) < 0.5 and hi with claim F(hi) > 0.44.
    # Off-grid virtual endpoints need no certificate: the family mean bound
    # already covers them.
    lo, hi = 0, n_steps
    for _ in range(levels):
        mid = (lo + hi) // 2
        frac = repeated_fraction(agent, ThresholdLE(grid(mid)), votes, transcript)
        if frac >= (LOWER_BAND[0] + LOWER_BAND[1]) / 2:
            hi = mid
        else:
            lo = mid
    lower = grid(lo)

    # Upper search, mirrored: lo claims F < 0.56, hi claims F > 0.5.
    lo, hi = 0, n_steps
    for _ in range(levels):
        mid = (lo + hi) // 2
        frac = repeated_fraction(agent, ThresholdLE(grid(mid)), votes, transcript)
        if frac <= (UPPER_BAND[0] + UPPER_BAND[1]) / 2:
            lo = mid
        else:
            hi = mid
    upper = grid(hi)

    low = min(lower - sigma, upper + sigma)
    high = max(lower - sigma, upper + sigma)
    return LocalizationResult(
        low=low,
        high=high,
        center=(low + high) / 2.0,
        samples_used=2 * levels * votes,
        method="median",
        rounds=2 * levels,
    )


# -- Gray-code machinery -----------------------------------------------------

def gray_bit_value(level: int, x: float) -> int:
    """0 if floor(2**level * clamp(x, 0, 1)) mod 4 is 0 or 3, else 1."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    cell = int(math.floor(math.ldexp(min(max(x, 0.0), 1.0), level)))
    return 1 if cell % 4 in (1, 2) else 0


def gray_change_points(level: int) -> np.ndarray:
    """Points (2j - 1) * 2**-level where the level-th Gray function flips."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    j = np.arange(1, 2 ** (level - 1) + 1)
    return (2 * j - 1) * 0.5 ** level


def gray_decode(bits) -> tuple[float, float]:
    """Dyadic interval [x0, x0 + 2**-M] consistent with the M supplied bits.

    The level-l bit of a cell equals the XOR of the cell index's binary digits
    l-1 and l (from the top), i.e. a reflected Gray code; the inverse is a
    prefix XOR.  Every 0/1 pattern decodes to exactly one cell.
    """
    bits = list(bits)
    if not bits:
        raise ValueError("need at least one bit")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    m = len(bits)
    index = 0
    digit = 0
    for b in bits:
        digit ^= b
        index = (index << 1) | digit
    x0 = index * 0.5 ** m
    return x0, x0 + 0.5 ** m


@dataclass(frozen=True)
class GrayPlan:
    """Fixed, response-independent query plan for non-adaptive localization."""

    n_bits: int
    votes_per_bit: int
    shift: float
    scale: float

    @property
    def total_queries(self) -> int:
        return self.n_bits * self.votes_per_bit

    def queries(self) -> list[GrayBit]:
        return [
            GrayBit(level, self.shift, self.scale)
            for level in range(1, self.n_bits + 1)
            for _ in range(self.votes_per_bit)
        ]


def gray_plan(params: FamilyParams, delta: float) -> GrayPlan | None:
    """M = floor(log2(lam/sigma) - 1 - 2/k') bits, J = ceil(8 ln(2M/delta)) votes.

    Returns None when lam/sigma < 2**(2 + 2/k'): the search space is already
    O(sigma) long and localization is bypassed entirely.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    k = params.operative_k
    ratio = params.lam / params.sigma
    if ratio < 2.0 ** (2.0 + 2.0 / k):
        return None
    n_bits = int(math.floor(math.log2(ratio) - 1.0 - 2.0 / k))
    votes = math.ceil(8.0 * math.log(2.0 * n_bits / delta))
    return GrayPlan(n_bits=n_bits, votes_per_bit=votes,
                    shift=-params.lam, scale=2.0 * params.lam)


def gray_cost(params: FamilyParams, delta: float) -> int:
    plan = gray_plan(params, delta)
    return 0 if plan is None else plan.total_queries


def gray_interval_length_bound(params: FamilyParams, delta: float) -> float:
    """Deterministic bound on the returned interval length: 3 lam 2**-M."""
    plan = gray_plan(params, delta)
    if plan is None:
        return 2.0 * params.lam
    return 3.0 * params.lam * 0.5 ** plan.n_bits


def localize_gray(agent: Agent, params: FamilyParams, delta: float,
                  transcript: Transcript | None = None) -> LocalizationResult:
    """Non-adaptive localization via Gray bits of the rescaled mean.

    Majority-votes each of the M bits from J fixed queries, decodes the dyadic
    cell, widens each endpoint outward by 2**-(M+2) to absorb the at most one
    boundary-proximate bit, clamps to [0, 1], and maps back to [-lam, lam].
    Uses exactly M * J samples; covers the mean w.p. >= 1 - delta/2.
    """
    if transcript is None:
        transcript = Transcript()
    transcript.begin_phase("localization")

    plan = gray_plan(params, delta)
    if plan is None:
        return LocalizationResult(low=-params.lam, high=params.lam, center=0.0,
                                  samples_used=0, method="gray-bypass", rounds=0)

    bits = []
    for level in range(1, plan.n_bits + 1):
        q = GrayBit(level, plan.shift, plan.scale)
        frac = repeated_fraction(agent, q, plan.votes_per_bit, transcript)
        bits.append(1 if frac >= 0.5 else 0)

    x0, x1 = gray_decode(bits)
    pad = 0.5 ** (plan.n_bits + 2)
    lo_unit = max(0.0, x0 - pad)
    hi_unit = min(1.0, x1 + pad)
    low = plan.shift + plan.scale * lo_unit
    high = plan.shift + plan.scale * hi_unit
    return LocalizationResult(
        low=low,
        high=high,
        center=(low + high) / 2.0,
        samples_used=plan.total_queries,
        method="gray",
        rounds=1,
    )
