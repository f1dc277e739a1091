"""Coarse localization of the mean to an O(sigma)-length interval.

Two routes:

* ``localize_median`` -- adaptive certified interval halving on a sigma-spaced
  grid.  Each endpoint it maintains carries a certified one-sided CDF claim,
  and midpoint decisions inside the ambiguous band (0.44, 0.5) (mirrored for
  the upper search) are acceptable either way, so only true violations count
  as errors.  Sample count is deterministic: 2 searches x levels x votes.

* ``localize_gray`` -- non-adaptive: the whole query plan (M bit groups of J
  Gray-function queries) is one table fixed before any response is read and
  answered in one draw; majority vote per bit, decode to a dyadic cell,
  widen, map back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channel import MAX_GRAY_LEVEL, Agent, GrayBit, QueryTable, ThresholdLE, _gray_value
from .distributions import FamilyParams

__all__ = [
    "LocalizationResult",
    "GrayPlan",
    "median_search_levels",
    "delta_count",
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


def delta_count(value: float, what: str, delta: float) -> int:
    """ceil(value) for a count that grows like ln(1/delta); a subnormal delta
    makes it infinite, which is refused naming delta."""
    if not math.isfinite(value):
        raise ValueError(f"delta={delta} needs infinitely many {what}")
    return math.ceil(value)


def median_votes_per_level(params: FamilyParams, delta: float) -> int:
    """Votes so each of 2 x levels decisions errs w.p. <= delta / (8 levels).

    Every median search and its cost pass through here, so this is where
    delta is checked to lie in (0, 1).
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    levels = median_search_levels(params)
    return delta_count(math.log(8.0 * levels / delta) / (2.0 * DECISION_MARGIN ** 2),
                       "votes per level", delta)


def median_search_cost(params: FamilyParams, delta: float) -> int:
    levels = median_search_levels(params)
    return 2 * levels * median_votes_per_level(params, delta)


def _lower_search_keeps_lower_half(frac: float) -> bool:
    """The lower search's decision on a vote's fraction of 1-bits."""
    return frac >= (LOWER_BAND[0] + LOWER_BAND[1]) / 2


def _upper_search_keeps_lower_half(frac: float) -> bool:
    """The upper search's decision, mirrored."""
    return frac > (UPPER_BAND[0] + UPPER_BAND[1]) / 2


def localize_median(agent: Agent, params: FamilyParams, delta: float) -> LocalizationResult:
    """Adaptive localization: returns [L - sigma, U + sigma] containing the mean
    with probability >= 1 - delta/2, of length at most 8 sigma on that event.

    The grid spans a power-of-two number of sigma-steps so both searches take
    exactly ``median_search_levels`` iterations on every path, making the
    sample count a pure function of (lam, sigma, delta).
    """
    votes = median_votes_per_level(params, delta)
    agent.transcript.begin_phase("localization")

    sigma = params.sigma
    levels = median_search_levels(params)
    n_steps = 2 ** levels
    left_edge = -(n_steps / 2) * sigma

    def grid(i: int) -> float:
        return left_edge + i * sigma

    def search(keeps_lower_half: Callable[[float], bool]) -> tuple[int, int]:
        # halve [lo, hi] levels times; each midpoint's CDF vote picks the half
        lo, hi = 0, n_steps
        for _ in range(levels):
            mid = (lo + hi) // 2
            if keeps_lower_half(agent.respond_count(ThresholdLE(grid(mid)), votes) / votes):
                hi = mid
            else:
                lo = mid
        return lo, hi

    # Lower search: keep lo with claim F(lo) < 0.5 and hi with claim F(hi) > 0.44.
    # Off-grid virtual endpoints need no certificate: the family mean bound
    # already covers them.
    lower = grid(search(_lower_search_keeps_lower_half)[0])
    # Upper search, mirrored: lo claims F < 0.56, hi claims F > 0.5.
    upper = grid(search(_upper_search_keeps_lower_half)[1])

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

def _check_level(level: int) -> None:
    """Refuse a level that ``GrayBit`` refuses: it must be an int (not a
    bool) from 1 to ``MAX_GRAY_LEVEL``."""
    if not GrayBit._valid(level, 0.0, 1.0):
        raise ValueError(f"level must be an int from 1 to {MAX_GRAY_LEVEL}, got {level!r}")


def gray_bit_value(level: int, x: float) -> int:
    """0 if floor(2**level * clamp(x, 0, 1)) mod 4 is 0 or 3, else 1: the bit
    a ``GrayBit`` of this level with shift 0 and scale 1 gives the sample x."""
    _check_level(level)
    x = float(x)
    if x != x:
        raise ValueError("x must not be NaN")
    return int(_gray_value(level, x))


def gray_change_points(level: int) -> np.ndarray:
    """Points (2j - 1) * 2**-level where the level-th Gray function flips."""
    _check_level(level)
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
    for b in bits:
        if not (isinstance(b, (int, np.integer)) and b in (0, 1)):
            raise ValueError(f"bits must be 0 or 1 as an int or bool, got {b!r} in {bits!r}")
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
    """Fixed, response-independent query plan for non-adaptive localization.

    ``table`` has one row per level l = 1..M, the Gray bit of level l
    repeated J times, so the whole plan is one draw; it is derived from the
    other fields, so ``==`` ignores it.
    """

    n_bits: int
    votes_per_bit: int
    shift: float
    scale: float
    table: QueryTable = field(compare=False, repr=False)

    @property
    def total_queries(self) -> int:
        return self.table.per_block


# One plan kept.  Counted, defaults: `localize --method gray` asks one
# (params, delta) key 100 times, once per trial; `run --method gray` one key
# per trial, in two_stage_cost and two_stage_estimate.
@functools.lru_cache(maxsize=1)
def gray_plan(params: FamilyParams, delta: float) -> GrayPlan | None:
    """M = floor(log2(lam/sigma) - 1 - 2/k') bits, J = ceil(8 ln(2M/delta)) votes.

    Returns None when lam/sigma < 2**(2 + 2/k'): the search space is already
    O(sigma) long and localization is bypassed entirely.  Raises
    ``ValueError`` when M exceeds ``MAX_GRAY_LEVEL``, before any query.
    A plan is built once per (params, delta), so every trial draws one table:
    the last one is kept; ``gray_plan.cache_clear()`` drops it.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    k = params.operative_k
    ratio = params.lam / params.sigma
    if ratio < 2.0 ** (2.0 + 2.0 / k):
        return None
    n_bits = int(math.floor(math.log2(ratio) - 1.0 - 2.0 / k))
    if n_bits > MAX_GRAY_LEVEL:
        raise ValueError(f"lam/sigma = {ratio:g} needs {n_bits} Gray levels, beyond "
                         f"MAX_GRAY_LEVEL = {MAX_GRAY_LEVEL}")
    votes = delta_count(8.0 * math.log(2.0 * n_bits / delta), "votes per Gray bit", delta)
    shift, scale = -float(params.lam), 2.0 * float(params.lam)  # floats for any spelling of lam
    table = QueryTable([GrayBit(level, shift, scale) for level in range(1, n_bits + 1)],
                       [votes] * n_bits)
    return GrayPlan(n_bits=n_bits, votes_per_bit=votes, shift=shift, scale=scale, table=table)


def gray_cost(params: FamilyParams, delta: float) -> int:
    plan = gray_plan(params, delta)
    return 0 if plan is None else plan.total_queries


def gray_interval_length_bound(params: FamilyParams, delta: float) -> float:
    """Deterministic bound on the returned interval length: 3 lam 2**-M."""
    plan = gray_plan(params, delta)
    if plan is None:
        return 2.0 * params.lam
    return 3.0 * params.lam * 0.5 ** plan.n_bits


def localize_gray(agent: Agent, params: FamilyParams, delta: float) -> LocalizationResult:
    """Non-adaptive localization via Gray bits of the rescaled mean.

    Majority-votes each of the M bits from J fixed queries, all M * J
    answered in one draw of ``plan.table``; decodes the dyadic cell, widens
    each endpoint outward by 2**-(M+2) to absorb the at most one
    boundary-proximate bit, clamps to [0, 1], and maps back to [-lam, lam].
    Uses exactly M * J samples; covers the mean w.p. >= 1 - delta/2.
    """
    agent.transcript.begin_phase("localization")
    plan = gray_plan(params, delta)
    if plan is None:
        return LocalizationResult(low=-params.lam, high=params.lam, center=0.0,
                                  samples_used=0, method="gray-bypass", rounds=0)

    counts = agent.respond_count(plan.table, plan.total_queries)[0]
    frac = counts / plan.table.reps
    x0, x1 = gray_decode((frac >= 0.5).astype(int).tolist())
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
