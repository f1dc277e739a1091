"""The 1-bit interaction protocol: the learner sees bits, never samples.

Every query is a value (one of the ``Query`` kinds below).  Each query
consumes exactly one fresh sample on the agent side, and every bit crosses the
interface through a Transcript so budgets are accounted exactly.  The Agent
answers n repetitions of any query through one of two paths:

* ``respond_bits`` -- bit level, one fresh sample per bit, the literal
  protocol and the reference the aggregated path is tested against;
* ``respond_count`` -- aggregated, the number of 1-bits as a single
  Binomial(n, p) variate, with p computed from the distribution's analytic
  CDF.  This is distributionally identical to the bit-level path (the n bits
  are i.i.d. Bernoulli(p)) and is what makes the million-query experiments
  tractable.

The raw sample values never leave the Agent in either path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution

__all__ = [
    "ThresholdGE",
    "ThresholdGT",
    "ThresholdLE",
    "ThresholdLT",
    "Interval",
    "GrayBit",
    "UniformThreshold",
    "Query",
    "evaluate_query",
    "query_probability",
    "uniform_threshold_probability",
    "Agent",
    "Transcript",
    "query",
    "repeated_fraction",
]


@dataclass(frozen=True)
class ThresholdGE:
    """Bit 1 iff x >= gamma."""

    gamma: float


@dataclass(frozen=True)
class ThresholdGT:
    """Bit 1 iff x > gamma."""

    gamma: float


@dataclass(frozen=True)
class ThresholdLE:
    """Bit 1 iff x <= gamma."""

    gamma: float


@dataclass(frozen=True)
class ThresholdLT:
    """Bit 1 iff x < gamma."""

    gamma: float


@dataclass(frozen=True)
class Interval:
    """Bit 1 iff lo <= x <= hi; infinite endpoints degenerate to thresholds."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"malformed interval query [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class GrayBit:
    """Bit = level-th Gray function of the affinely rescaled sample.

    The rescaling is u = (x - shift) / scale, clamped to [0, 1] before the
    Gray function is applied.
    """

    level: int
    shift: float
    scale: float

    def __post_init__(self):
        if self.level < 1:
            raise ValueError(f"Gray bit level must be >= 1, got {self.level}")
        if not self.scale > 0:
            raise ValueError(f"Gray bit scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class UniformThreshold:
    """Bit 1 iff x >= T (direction 'ge') or x <= T ('le').

    The cutoff T ~ Uniform(lo, hi) is drawn afresh for every repetition,
    independently of the sample, so repeated bits stay i.i.d.
    """

    direction: str
    lo: float
    hi: float

    def __post_init__(self):
        if self.direction not in ("ge", "le"):
            raise ValueError(f"direction must be 'ge' or 'le', got {self.direction!r}")
        if not self.hi > self.lo:
            raise ValueError(f"uniform threshold needs lo < hi, got [{self.lo}, {self.hi}]")


Query = ThresholdGE | ThresholdGT | ThresholdLE | ThresholdLT | Interval | GrayBit \
    | UniformThreshold


def _gray_value(level: int, u) -> np.ndarray:
    clamped = np.clip(u, 0.0, 1.0)
    cell = np.floor(np.ldexp(clamped, level)).astype(np.int64) % 4
    return ((cell == 1) | (cell == 2)).astype(np.int64)


def evaluate_query(q: Query, x) -> np.ndarray:
    """Apply the quantization function to sample value(s); returns 0/1.

    A ``UniformThreshold`` has no fixed quantization function: only the Agent,
    which draws its cutoffs, can answer it.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(q, ThresholdGE):
        bits = (x >= q.gamma).astype(np.int64)
    elif isinstance(q, ThresholdGT):
        bits = (x > q.gamma).astype(np.int64)
    elif isinstance(q, ThresholdLE):
        bits = (x <= q.gamma).astype(np.int64)
    elif isinstance(q, ThresholdLT):
        bits = (x < q.gamma).astype(np.int64)
    elif isinstance(q, Interval):
        bits = ((x >= q.lo) & (x <= q.hi)).astype(np.int64)
    elif isinstance(q, GrayBit):
        bits = _gray_value(q.level, (x - q.shift) / q.scale)
    else:
        raise TypeError(f"unknown query type: {q!r}")
    return bits if bits.ndim else int(bits)


def query_probability(dist: Distribution, q: Query) -> float:
    """Pr(bit = 1) under the distribution, from its analytic CDF."""
    if isinstance(q, ThresholdGE):
        p = 1.0 - float(dist.cdf_strict(q.gamma))
    elif isinstance(q, ThresholdGT):
        p = 1.0 - float(dist.cdf(q.gamma))
    elif isinstance(q, ThresholdLE):
        p = float(dist.cdf(q.gamma))
    elif isinstance(q, ThresholdLT):
        p = float(dist.cdf_strict(q.gamma))
    elif isinstance(q, Interval):
        p = dist.prob_interval(q.lo, q.hi)
    elif isinstance(q, GrayBit):
        p = _gray_probability(dist, q)
    elif isinstance(q, UniformThreshold):
        p = uniform_threshold_probability(dist, q.direction, q.lo, q.hi)
    else:
        raise TypeError(f"unknown query type: {q!r}")
    return min(max(p, 0.0), 1.0)  # guard float cancellation in tail differences


def _gray_probability(dist: Distribution, q: GrayBit) -> float:
    # Cells j of width 2**-level on [0, 1) carry bit 1 iff j mod 4 in {1, 2};
    # the clamp sends u <= 0 to bit 0 and u >= 1 to the bit of g_level(1).
    level = q.level
    width = 0.5 ** level
    j = np.arange(1, 2 ** level, 4)
    lows = q.shift + q.scale * (j * width)
    highs = q.shift + q.scale * (np.minimum(j + 2, 2 ** level) * width)
    prob = float(np.sum(dist.cdf_strict(highs) - dist.cdf_strict(lows)))
    if level == 1:
        prob += 1.0 - float(dist.cdf_strict(q.shift + q.scale))
    return prob


def uniform_threshold_probability(dist: Distribution, direction: str,
                                  lo: float, hi: float) -> float:
    """Pr(bit = 1) for a threshold query whose cutoff is Uniform(lo, hi).

    With T ~ U(lo, hi) independent of X, E[1{X >= T}] given X is the clamp of
    (X - lo)/(hi - lo) to [0, 1]; integrating with the partial-mean oracle
    gives the marginal bit probability exactly.
    """
    if not hi > lo:
        raise ValueError(f"uniform threshold needs lo < hi, got [{lo}, {hi}]")
    span = hi - lo
    if direction == "ge":
        above = 1.0 - float(dist.cdf_strict(hi))
        inner_mean = dist.partial_mean_strict(hi) - dist.partial_mean_strict(lo)
        inner_prob = float(dist.cdf_strict(hi)) - float(dist.cdf_strict(lo))
        p = above + (inner_mean - lo * inner_prob) / span
    elif direction == "le":
        below = float(dist.cdf(lo))
        inner_mean = dist.partial_mean(hi) - dist.partial_mean(lo)
        inner_prob = float(dist.cdf(hi)) - float(dist.cdf(lo))
        p = below + (hi * inner_prob - inner_mean) / span
    else:
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    return min(max(p, 0.0), 1.0)  # guard float cancellation in tail differences


class Transcript:
    """Interaction history with exact per-phase budget accounting.

    Counters only ever increase; the optional entry log stores (query, bit)
    pairs for small runs and CSV dumps, never raw sample values.
    """

    def __init__(self, record_entries: bool = False):
        self.counts: dict[str, int] = {}
        self.entries: list[tuple[str, Query, int]] = []
        self.record_entries = record_entries
        self._phase = "default"

    @property
    def phase(self) -> str:
        return self._phase

    def begin_phase(self, name: str) -> None:
        self._phase = name
        self.counts.setdefault(name, 0)

    def record(self, q: Query, bit: int) -> None:
        self.counts[self._phase] = self.counts.get(self._phase, 0) + 1
        if self.record_entries:
            self.entries.append((self._phase, q, int(bit)))

    def record_batch(self, n: int) -> None:
        if n < 0:
            raise ValueError("batch size must be nonnegative")
        self.counts[self._phase] = self.counts.get(self._phase, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def write_csv(self, path) -> None:
        """One line per recorded query: phase,query_kind,param1,param2,bit."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("phase,query_kind,param1,param2,bit\n")
            for phase, q, bit in self.entries:
                if isinstance(q, ThresholdGE):
                    row = (phase, "threshold_ge", q.gamma, "", bit)
                elif isinstance(q, ThresholdGT):
                    row = (phase, "threshold_gt", q.gamma, "", bit)
                elif isinstance(q, ThresholdLE):
                    row = (phase, "threshold_le", q.gamma, "", bit)
                elif isinstance(q, ThresholdLT):
                    row = (phase, "threshold_lt", q.gamma, "", bit)
                elif isinstance(q, Interval):
                    row = (phase, "interval", q.lo, q.hi, bit)
                elif isinstance(q, GrayBit):
                    row = (phase, "gray_bit", q.level, q.shift, bit)
                elif isinstance(q, UniformThreshold):
                    row = (phase, f"uniform_threshold_{q.direction}", q.lo, q.hi, bit)
                else:
                    raise TypeError(f"unknown query type: {q!r}")
                fh.write(",".join(str(v) for v in row) + "\n")


class Agent:
    """Memoryless responder: one fresh i.i.d. sample per query, bits out only."""

    def __init__(self, distribution: Distribution, rng: np.random.Generator):
        self._distribution = distribution
        self._rng = rng
        self._prob_cache: dict = {}

    def respond_bits(self, q: Query, n: int) -> np.ndarray:
        """n independent bits for the same query, one fresh sample each.

        A ``UniformThreshold``'s n cutoffs come from the agent's own generator,
        independent of the samples, so the bits are still i.i.d. Bernoulli(p).
        """
        if n < 1:
            raise ValueError("need at least one query")
        x = self._distribution.sample(self._rng, size=n)
        if isinstance(q, UniformThreshold):
            cutoffs = self._rng.uniform(q.lo, q.hi, n)
            hits = x >= cutoffs if q.direction == "ge" else x <= cutoffs
            return hits.astype(np.int64)
        return np.asarray(evaluate_query(q, x))

    def respond_count(self, q: Query, n: int) -> int:
        """Number of 1-bits among n repetitions of the query (exact Binomial)."""
        if n < 1:
            raise ValueError("need at least one query")
        p = self._prob_cache.get(q)
        if p is None:
            p = query_probability(self._distribution, q)
            self._prob_cache[q] = p
        return int(self._rng.binomial(n, p))

    def respond_count_uniform_threshold(self, direction: str, lo: float,
                                        hi: float, n: int) -> int:
        """Delegates to ``respond_count``; kept only for perfbench's tracer."""
        return self.respond_count(UniformThreshold(direction, lo, hi), n)


def query(agent: Agent, q: Query, transcript: Transcript) -> int:
    """Send one quantization function, receive one bit, account for it."""
    bit = int(agent.respond_bits(q, 1)[0])
    transcript.record(q, bit)
    return bit


def repeated_fraction(agent: Agent, q: Query, m: int, transcript: Transcript) -> float:
    """Empirical mean of m independent bits for the same query."""
    if m < 1:
        raise ValueError("need at least one repetition")
    ones = agent.respond_count(q, m)
    transcript.record_batch(m)
    return ones / m
