"""The 1-bit interaction protocol: the learner sees bits, never samples.

Every query is a value (one of the ``Query`` kinds below).  Each query
consumes exactly one fresh sample on the agent side, and every bit crosses the
interface through a Transcript so budgets are accounted exactly.  The Agent
answers n repetitions of any query through one of two paths:

* ``respond_bits`` -- bit level, one fresh sample per bit, the literal
  protocol and the reference the aggregated path is tested against;
  ``BitAgent`` answers ``respond_count`` by summing these bits, so a whole
  run through it is bit level;
* ``respond_count`` -- aggregated, the number of 1-bits as a single
  Binomial(n, p) variate, with p computed from the distribution's analytic
  CDF.  This is distributionally identical to the bit-level path (the n bits
  are i.i.d. Bernoulli(p)) and is what makes the million-query experiments
  tractable.  It also answers a whole ``QueryTable`` -- query j repeated
  reps[j] times per block, in K blocks -- as one Binomial draw over the
  table's probabilities, which ``query_probabilities`` computes as arrays;
  a refinement round and the non-adaptive baseline are each one such draw.

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
    "QueryTable",
    "evaluate_query",
    "query_probabilities",
    "query_probability",
    "uniform_threshold_probability",
    "Agent",
    "BitAgent",
    "Transcript",
    "repeated_fraction",
]

INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class _Threshold:
    gamma: float

    def __post_init__(self):
        if math.isnan(self.gamma):
            raise ValueError(f"threshold query needs a gamma that is not NaN, got {self.gamma}")


@dataclass(frozen=True)
class ThresholdGE(_Threshold):
    """Bit 1 iff x >= gamma."""


@dataclass(frozen=True)
class ThresholdGT(_Threshold):
    """Bit 1 iff x > gamma."""


@dataclass(frozen=True)
class ThresholdLE(_Threshold):
    """Bit 1 iff x <= gamma."""


@dataclass(frozen=True)
class ThresholdLT(_Threshold):
    """Bit 1 iff x < gamma."""


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
        if not (math.isfinite(self.shift) and math.isfinite(self.scale)):
            raise ValueError(f"Gray bit shift and scale must be finite, got "
                             f"shift={self.shift}, scale={self.scale}")
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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.hi > self.lo):
            raise ValueError(f"uniform threshold needs finite lo < hi, got [{self.lo}, {self.hi}]")


Query = ThresholdGE | ThresholdGT | ThresholdLE | ThresholdLT | Interval | GrayBit \
    | UniformThreshold


@dataclass(frozen=True)
class QueryTable:
    """A batch of queries fixed before any is answered: query j is repeated
    ``reps[j]`` times in every block, so one block holds ``per_block`` queries."""

    queries: tuple[Query, ...]
    reps: tuple[int, ...]

    def __post_init__(self):
        if not self.queries or len(self.queries) != len(self.reps):
            raise ValueError(f"a query table needs as many reps as queries, and at least one; "
                             f"got {len(self.queries)} queries and {len(self.reps)} reps")
        unknown = set(map(type, self.queries)) - _ORACLES.keys()
        if unknown:
            raise ValueError(f"not query kinds: {sorted(kind.__name__ for kind in unknown)}")
        if any(kind is bool or not issubclass(kind, (int, np.integer))
               for kind in set(map(type, self.reps))) \
                or not 1 <= min(self.reps) <= max(self.reps) <= INT64_MAX:
            raise ValueError(f"repetitions must be ints in [1, 2^63 - 1], got "
                             f"{min(self.reps)!r} to {max(self.reps)!r}")
        object.__setattr__(self, "reps", tuple(map(int, self.reps)))

    @property
    def per_block(self) -> int:
        return sum(self.reps)


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


def query_probabilities(dist: Distribution, queries) -> np.ndarray:
    """Pr(bit = 1) of each query under the distribution, from its analytic CDF.

    Queries are grouped by kind and each kind's oracle is evaluated once, on
    the arrays of its queries' parameters.
    """
    kinds = list(map(type, queries))
    p = np.empty(len(kinds))
    for kind in dict.fromkeys(kinds):
        oracle = _ORACLES.get(kind)
        if oracle is None:
            raise TypeError(f"unknown query type: {kind.__name__}")
        idx = [j for j, k in enumerate(kinds) if k is kind]
        p[idx] = oracle(dist, [queries[j] for j in idx])
    return np.minimum(np.maximum(p, 0.0), 1.0)  # guard float cancellation in tail differences


def query_probability(dist: Distribution, q: Query) -> float:
    """Pr(bit = 1) for one query: ``query_probabilities`` of a one-query batch."""
    return float(query_probabilities(dist, (q,))[0])


def _gammas(qs) -> np.ndarray:
    return np.array([q.gamma for q in qs], dtype=float)


def _interval_probability(dist: Distribution, qs) -> np.ndarray:
    return dist.prob_interval(np.array([q.lo for q in qs], dtype=float),
                              np.array([q.hi for q in qs], dtype=float))


def _gray_probability(dist: Distribution, qs) -> np.ndarray:
    # Cells j of width 2**-level on [0, 1) carry bit 1 iff j mod 4 in {1, 2};
    # the clamp sends u <= 0 to bit 0 and u >= 1 to the bit of g_level(1),
    # which is 1 only at level 1, whose one cell ends at shift + scale.
    lows, highs = [], []
    for q in qs:
        width = 0.5 ** q.level
        j = np.arange(1, 2 ** q.level, 4)
        lows.append(q.shift + q.scale * (j * width))
        highs.append(q.shift + q.scale * (np.minimum(j + 2, 2 ** q.level) * width))
    ends = np.cumsum([len(cells) for cells in lows])
    cdf_high = dist.cdf_strict(np.concatenate(highs))
    mass = cdf_high - dist.cdf_strict(np.concatenate(lows))
    prob = np.array([float(np.sum(cells)) for cells in np.split(mass, ends[:-1])])
    for i, q in enumerate(qs):
        if q.level == 1:
            prob[i] += 1.0 - float(cdf_high[ends[i] - 1])
    return prob


def _uniform_probability(dist: Distribution, qs) -> np.ndarray:
    lo = np.array([q.lo for q in qs], dtype=float)
    hi = np.array([q.hi for q in qs], dtype=float)
    ge = np.array([q.direction == "ge" for q in qs])
    p = np.empty(len(qs))
    for direction, rows in (("ge", ge), ("le", ~ge)):
        if rows.any():
            p[rows] = uniform_threshold_probability(dist, direction, lo[rows], hi[rows])
    return p


_ORACLES = {
    ThresholdGE: lambda dist, qs: 1.0 - dist.cdf_strict(_gammas(qs)),
    ThresholdGT: lambda dist, qs: 1.0 - dist.cdf(_gammas(qs)),
    ThresholdLE: lambda dist, qs: dist.cdf(_gammas(qs)),
    ThresholdLT: lambda dist, qs: dist.cdf_strict(_gammas(qs)),
    Interval: _interval_probability,
    GrayBit: _gray_probability,
    UniformThreshold: _uniform_probability,
}


def uniform_threshold_probability(dist: Distribution, direction: str, lo, hi):
    """Pr(bit = 1) for a threshold query whose cutoff is Uniform(lo, hi).

    With T ~ U(lo, hi) independent of X, E[1{X >= T}] given X is the clamp of
    (X - lo)/(hi - lo) to [0, 1]; integrating with the partial-mean oracle
    gives the marginal bit probability exactly.  ``lo`` and ``hi`` may be
    arrays; a float comes back for scalar endpoints.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
        raise ValueError(f"uniform threshold needs finite lo < hi, got [{lo}, {hi}]")
    span = hi - lo
    ends = np.stack([lo, hi])
    if direction == "ge":
        cdf_lo, cdf_hi = dist.cdf_strict(ends)
        mean_lo, mean_hi = dist.partial_mean_strict(ends)
        p = 1.0 - cdf_hi + (mean_hi - mean_lo - lo * (cdf_hi - cdf_lo)) / span
    elif direction == "le":
        cdf_lo, cdf_hi = dist.cdf(ends)
        mean_lo, mean_hi = dist.partial_mean(ends)
        p = cdf_lo + (hi * (cdf_hi - cdf_lo) - (mean_hi - mean_lo)) / span
    else:
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    p = np.clip(p, 0.0, 1.0)  # guard float cancellation in tail differences
    return float(p) if p.ndim == 0 else p


class Transcript:
    """Interaction history with exact per-phase budget accounting.

    Counters only ever increase; a transcript holds query counts, never raw
    sample values.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._phase = "default"

    @property
    def phase(self) -> str:
        return self._phase

    def begin_phase(self, name: str) -> None:
        self._phase = name
        self.counts.setdefault(name, 0)

    def record_batch(self, n: int) -> None:
        if n < 0:
            raise ValueError("batch size must be nonnegative")
        self.counts[self._phase] = self.counts.get(self._phase, 0) + int(n)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class Agent:
    """Memoryless responder: one fresh i.i.d. sample per query, bits out only."""

    def __init__(self, distribution: Distribution, rng: np.random.Generator):
        self._distribution = distribution
        self._rng = rng

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

    def respond_count(self, q: Query | QueryTable, n: int, *,
                      groups: int | None = None) -> int | np.ndarray:
        """Number of 1-bits among n repetitions of the query (exact Binomial).

        With ``groups=K`` the n repetitions form K equal consecutive blocks and
        the answer is the int64 array of the K block counts, drawn at once.
        A ``QueryTable`` is answered in one draw, with n the total number of
        queries, K times ``per_block``: the int64 counts have shape (Q,), or
        (K, Q) with ``groups=K``.
        """
        queries, reps = _table_of(q, n, groups)
        p = query_probabilities(self._distribution, queries)
        if len(reps) == 1:  # numpy's scalar-argument path is ~8x cheaper, same stream
            reps, p = reps[0], float(p[0])
        counts = self._rng.binomial(np.asarray(reps, dtype=np.int64), p,
                                    size=(groups or 1, np.size(reps)))
        return _shaped(counts, q, groups)

    def respond_count_uniform_threshold(self, direction: str, lo: float,
                                        hi: float, n: int) -> int:
        """Delegates to ``respond_count``; kept only for perfbench's tracer."""
        return self.respond_count(UniformThreshold(direction, lo, hi), n)


class BitAgent(Agent):
    """The bit-level reference: every count is a sum of ``respond_bits``, one sample per bit."""

    def respond_count(self, q: Query | QueryTable, n: int, *,
                      groups: int | None = None) -> int | np.ndarray:
        queries, reps = _table_of(q, n, groups)
        counts = np.array([[self.respond_bits(query, r).sum() for query, r in zip(queries, reps)]
                           for _ in range(groups or 1)], dtype=np.int64)
        return _shaped(counts, q, groups)


def _table_of(q: Query | QueryTable, n: int,
              groups: int | None) -> tuple[tuple[Query, ...], tuple[int, ...]]:
    """The queries and per-block repetitions that n repetitions of ``q`` in
    ``groups`` blocks ask; a single query is a one-query table."""
    blocks = 1 if groups is None else groups
    if isinstance(q, QueryTable):
        if blocks < 1 or n != blocks * q.per_block:
            raise ValueError(f"{n} queries are not {blocks} blocks of the table's "
                             f"{q.per_block}")
        return q.queries, q.reps
    if n < 1:
        raise ValueError("need at least one query")
    if blocks < 1 or n % blocks:
        raise ValueError(f"{n} repetitions do not split into {groups} equal blocks")
    if n // blocks > INT64_MAX:
        raise ValueError(f"{n // blocks} repetitions per block exceed int64")
    return (q,), (n // blocks,)


def _shaped(counts: np.ndarray, q: Query | QueryTable, groups: int | None):
    """(K, Q) counts as ``respond_count`` returns them for ``q`` and ``groups``."""
    if isinstance(q, QueryTable):
        return counts if groups is not None else counts[0]
    return counts[:, 0] if groups is not None else int(counts[0, 0])


def repeated_fraction(agent: Agent, q: Query, m: int, transcript: Transcript) -> float:
    """Empirical mean of m independent bits for the same query."""
    if m < 1:
        raise ValueError("need at least one repetition")
    ones = agent.respond_count(q, m)
    transcript.record_batch(m)
    return ones / m
