"""The 1-bit interaction protocol: the learner sees bits, never samples.

Every query is a value (one of the ``Query`` kinds below).  Each query
consumes exactly one fresh sample on the agent side.  The Agent answers n
repetitions of any query through one of two paths:

* ``respond_bits`` -- bit level, one fresh sample per bit, the literal
  protocol and the reference the aggregated path is tested against;
  ``BitAgent`` draws every count of ``respond_count`` as a sum of these
  bits, so a whole run through it is bit level;
* ``respond_count`` -- aggregated: a single query's n repetitions get one
  count, the number of 1-bits as a single Binomial(n, p) variate, with p
  computed from the distribution's analytic CDF.  This is distributionally
  identical to the bit-level path (the n bits are i.i.d. Bernoulli(p)) and
  is what makes the million-query experiments tractable.  A ``QueryTable``
  -- query j repeated reps[j] times per block -- is answered in whole
  blocks, K = n / ``per_block`` of them, as one Binomial draw over the
  table's probabilities, which ``query_probabilities`` computes in one point
  pass (below); a refinement round and the non-adaptive baseline are each
  one such draw.

The point pass: a table holds the locations of its rows once, as sorted
distinct points, so ``query_probabilities`` asks the distribution for its
CDFs on them, and its partial means if a row is a ``UniformThreshold``, in
one ``Distribution._on_sorted`` call.  That call costs what the
distribution's shape costs: one without atoms evaluates each oracle once for
both variants, and a ``DiscreteMixture`` with few atoms among many points
locates its atoms among the points and fills the runs between them, so the
pair-grid baseline's 2,047 points cost about what its member's 2 atoms
cost.  Each kind's
probabilities are then a gather from those arrays at its rows' point
indices, followed by the arithmetic of the kind's own oracle (``cdf``,
``cdf_strict``, ``Distribution.prob_interval``,
``uniform_threshold_probability``), so they equal that oracle's bytewise; a
``GrayBit`` keeps its own oracle.  A shifted table moves its points and
shares everything else.  A single threshold query takes its probability
from the scalar oracle at its float ``gamma``, which a ``DiscreteMixture``
answers by bisecting a list, with no array built; any other single query is
the one row of a one-row table.

The table draw is query-major: it takes the K block counts of row 0, then
the K of row 1, and so on.  numpy's Binomial sampler keeps the setup of the
last (n, p) it drew from (BTPE's constants, or inversion's), so K variates
of one row in a row pay for that setup once, where a block-major draw
changes (n, p) at every variate and pays it K Q times.  Every count is still
an independent Binomial(reps[j], p[j]); only the order in which the
generator's stream is used depends on this, and with one block it is the
order of the rows, as a flat draw over the rows would use it.

Only a table's live rows, those at p != 0, are drawn; the others count 0.
numpy's Binomial sampler returns 0 at p == 0 without using the generator, so
every count and every later variate is what a draw over all rows gives.  A
row at p == 1 uses one double of the stream, so it stays in the draw.  The
live rows are found once per (distribution, table), when the table's vector
is memoized, and kept beside it: on a pair-grid member, two of the
baseline's 2N rows are live.  Up to ``PER_ROW_DRAW_MAX`` live rows are drawn
one row at a time, in row order, each row's K variates in one draw with
scalar arguments, which uses the stream in the same query-major order and
skips the fixed cost of numpy's array-argument draw; more are drawn at once.

An estimator asks the same queries trial after trial: localization votes sit
on a sigma-grid and a refinement round is one table shifted to the localized
center.  So the aggregated path memoizes, by two rules:

* every probability -- a single query's, or a table's vector, read-only --
  sits in its distribution's memo: one map of queries and one of tables,
  each of at most ``QUERY_MEMO_SIZE`` entries, oldest out first, shared by
  every agent on the distribution; the memo goes with its distribution, and
  the table map is weakly keyed, so a table's entry goes with its table;
* ``QueryTable.shifted`` computes a shift once per (table, offset) in one
  cache of ``SHIFT_MEMO_SIZE`` entries for all tables, so a repeated center
  gives back the same table, and with it the probabilities memoized for it.
  That cache keeps up to ``SHIFT_MEMO_SIZE`` shifted tables and their bases
  alive until ``QueryTable.shifted.cache_clear()`` empties it.

A memoized probability is the value ``query_probabilities`` or
``query_probability`` gives, so draws do not depend on the memo; those two
public functions compute afresh on every call.

Every estimator asks its queries through ``respond_count``, which records
each answered query in the agent's ``transcript`` under the phase the
estimator named last, so the agent's transcript holds the exact cost of
everything it answered.  The raw sample values never leave the Agent in
either path.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
import weakref
from dataclasses import dataclass, fields

import numpy as np

from .distributions import Distribution, _require_float64

__all__ = [
    "ThresholdGE",
    "ThresholdGT",
    "ThresholdLE",
    "ThresholdLT",
    "Interval",
    "GrayBit",
    "MAX_GRAY_LEVEL",
    "QUERY_MEMO_SIZE",
    "SHIFT_MEMO_SIZE",
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
]

INT64_MAX = int(np.iinfo(np.int64).max)
# Bound of the shift cache, for all tables.  A sweep repeats its trial's (table,
# offset) keys, so the cache must hold one trial's.  Counted, seed 1: `anytime
# --budget 10^40 --trials 3` shifts 29 tables, one per round, 3 times (8 entries
# serve none, 32 serve 58); default `scale-adapt` 5 keys; `pac` 1; `gap` a new
# key per trial.  A refinement table has at most ~330 rows, so 64 cost little.
SHIFT_MEMO_SIZE = 64
# A table with at most this many live rows is drawn a row at a time, with
# scalar arguments: numpy's array-argument binomial pays ~8.5 us before its
# first variate.  Per-row against array draw, reps 1,000, timeit minimum, 2-core
# x86-64 host, numpy 2.4.6: at K = 1 block, 1.8 against 8.5 us at 1 live row,
# 3.2 against 8.4 at 2 (the pair-grid baseline's), 8.1 against 8.7 at 6, 9.4
# against 8.7 at 7 and 11.0 against 8.8 at 8; at K = 24, 14.9 against 15.8 us
# at 6 rows and 17.3 against 17.0 at 7.
PER_ROW_DRAW_MAX = 6
# Bound of each of a distribution's two memo maps.  A median search votes at one
# of 2^levels - 1 grid points: 31 at lam = 16 sigma, 2,047 at lam = 2^10 sigma.
QUERY_MEMO_SIZE = 1024


@dataclass(frozen=True)
class _Threshold:
    gamma: float

    _rule = "threshold query needs a gamma that is not NaN"

    @staticmethod
    def _valid(gamma):
        return gamma == gamma  # +-inf stays valid

    def __post_init__(self):  # a float not NaN is checked inline: a vote builds one per query
        if type(self.gamma) is not float or self.gamma != self.gamma:
            _require_valid(self)


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

    _rule = "malformed interval query: needs lo <= hi, neither NaN"

    @staticmethod
    def _valid(lo, hi):
        return lo <= hi

    def __post_init__(self):
        _require_valid(self)


# The exact Gray oracle enumerates 2**(level - 2) cells per row: a level-24 row
# took 0.47 s and 160 MiB over the import on a 2-core x86-64 host, and each 2
# further levels cost about 4x the time and memory, so deeper ones are refused.
MAX_GRAY_LEVEL = 24


@dataclass(frozen=True)
class GrayBit:
    """Bit = level-th Gray function of the affinely rescaled sample.

    The rescaling is u = (x - shift) / scale, clamped to [0, 1] before the
    Gray function is applied.  ``level`` is an int (not a bool) from 1 to
    ``MAX_GRAY_LEVEL``.
    """

    level: int
    shift: float
    scale: float

    _rule = (f"Gray bit needs an int level from 1 to {MAX_GRAY_LEVEL}, a finite shift "
             f"and a finite positive scale")

    @staticmethod
    def _valid(level, shift, scale):
        return _is_int(level) and (level >= 1) & (level <= MAX_GRAY_LEVEL) \
            & (abs(shift) < math.inf) & (abs(scale) < math.inf) & (scale > 0)

    def __post_init__(self):
        _require_valid(self)


@dataclass(frozen=True)
class UniformThreshold:
    """Bit 1 iff x >= T (direction 'ge') or x <= T ('le').

    The cutoff T ~ Uniform(lo, hi) is drawn afresh for every repetition,
    independently of the sample, so repeated bits stay i.i.d.
    """

    direction: str
    lo: float
    hi: float

    _rule = "uniform threshold needs direction 'ge' or 'le' and finite lo < hi"

    @staticmethod
    def _valid(direction, lo, hi):
        return ((direction == "ge") | (direction == "le")) & (abs(lo) < math.inf) \
            & (abs(hi) < math.inf) & (hi > lo)

    def __post_init__(self):
        _require_valid(self)


Query = ThresholdGE | ThresholdGT | ThresholdLE | ThresholdLT | Interval | GrayBit \
    | UniformThreshold


def _require_valid(q: Query) -> None:
    # Each kind's _valid holds on scalars and, elementwise, on parameter
    # columns, so QueryTable.from_columns checks its rows by the same rule;
    # a column is converted to float there, a value's numbers are checked here.
    for name, value in vars(q).items():
        if name in _REALS:
            if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
                raise ValueError(f"{type(q).__name__} needs a real {name}, an int or float "
                                 f"(not a bool), got {value!r}")
            _require_float64(**{name: value})
    if not q._valid(**vars(q)):
        raise ValueError(f"{q._rule}, got {q!r}")


def _is_count(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    """An int that is not a bool, or an array of such ints."""
    return value.dtype.kind in "iu" if isinstance(value, np.ndarray) else _is_count(value)


def _ints(values) -> np.ndarray:
    """``values`` as an array of int dtype only if every value is an int (not a
    bool), else of object dtype, which every int check rejects."""
    if isinstance(values, np.ndarray):
        return values
    values = list(values)
    return np.array(values, dtype=None if all(map(_is_count, values)) else object)


class QueryTable:
    """A batch of queries fixed before any is answered: query j is repeated
    ``reps[j]`` times in every block, so one block holds ``per_block`` queries.

    The table holds the locations of its rows -- every ``gamma``, ``lo``,
    ``hi`` and Gray ``shift`` -- once, as one sorted array of distinct points
    (0.0 and -0.0 are one point), and its rows grouped once, when it is built,
    by kind, a uniform threshold's also by direction: for each group, its
    rows' positions, one index array into the points per location parameter,
    and one array per other parameter.  ``QueryTable.from_columns`` builds it
    from parameter arrays, and ``QueryTable(queries, reps)`` from query
    values, by turning them into columns first; ``queries`` builds the query
    values only when asked, and ``shifted`` moves the points and shares the
    rest.  Every array a table holds is read-only: ``reps`` is int64 and
    ``per_block`` an exact Python int.  A table is compared and hashed by
    identity, so it keys the probability memo (see the module docstring).
    """

    __slots__ = ("_points", "_blocks", "_reps", "_per_block", "_uniform", "__weakref__")

    def __init__(self, queries, reps):
        queries = tuple(queries)
        # a row's placeholder stands in for each field its kind lacks
        self._build([type(q) for q in queries], reps,
                    {name: [getattr(q, name, blank) for q in queries]
                     for name, blank in _PLACEHOLDERS.items()})

    @classmethod
    def from_columns(cls, kinds, reps, **columns) -> QueryTable:
        """A table whose row j is a query of kind ``kinds[j]`` (of the one kind
        ``kinds``, if it is a class) repeated ``reps[j]`` times per block.

        Its parameters are entry j of the columns named after the kind's
        fields (``gamma``, ``lo``, ``hi``, ``direction``, ``level``,
        ``shift``, ``scale``); a row ignores the columns its kind lacks.
        Every row is checked by its kind's own rule, and ``reps`` must hold
        ints in [1, 2^63 - 1].
        """
        table = cls.__new__(cls)
        table._build(kinds, reps, columns)
        return table

    def _build(self, kinds, reps, columns: dict) -> None:
        # the one place a table's rows are grouped and checked
        reps = _ints(reps)
        if reps.ndim != 1 or not reps.size:
            raise ValueError(f"a query table needs a flat, non-empty array of reps, "
                             f"got shape {reps.shape}")
        if reps.dtype.kind not in "iu" or reps.min() < 1 \
                or reps.dtype.kind == "u" and reps.max() > INT64_MAX:
            raise ValueError(f"repetitions must be ints in [1, 2^63 - 1], got {reps.dtype} "
                             f"reps {reps}")
        size = reps.size
        if isinstance(kinds, type):
            groups = {kinds: np.arange(size)}
        else:
            if len(kinds) != size:
                raise ValueError(f"{size} reps need {size} kinds, got {len(kinds)}")
            at: dict = {}  # each kind's rows, kinds in order of first use
            for j, kind in enumerate(kinds):
                at.setdefault(kind, []).append(j)
            groups = {kind: np.array(rows, dtype=np.intp) for kind, rows in at.items()}
        grouped = []
        for kind, rows in groups.items():
            if kind not in _FIELDS:
                raise ValueError(f"not a query kind: {kind!r}")
            params = {}
            for name in _FIELDS[kind]:
                if name not in columns:
                    raise ValueError(f"{kind.__name__} rows need a {name!r} column")
                dtype = _COLUMN_TYPES[name]
                column = _ints(columns[name]) if dtype is None \
                    else np.asarray(columns[name], dtype=dtype)
                if column.shape != (size,):
                    raise ValueError(f"column {name!r} needs shape ({size},), "
                                     f"got {column.shape}")
                params[name] = column[rows]  # a copy the caller cannot change
            _check_block(kind, rows, params)
            if kind is UniformThreshold:  # one group per direction
                grouped += [(kind, rows[side], {name: column[side] for name, column
                                                in params.items()})
                            for side in (params["direction"] == "ge",
                                         params["direction"] == "le") if side.any()]
            else:
                grouped.append((kind, rows, params))
        located = [column for _, _, params in grouped for name, column in params.items()
                   if name in _LOCATIONS]
        points, index = np.unique(np.concatenate(located), return_inverse=True)
        blocks, start = [], 0
        for kind, rows, params in grouped:
            at, values = {}, {}
            for name, column in params.items():
                if name in _LOCATIONS:
                    at[name], start = index[start:start + column.size], start + column.size
                else:
                    values[name] = column
            _read_only(rows, *at.values(), *values.values())
            blocks.append((kind, rows, at, values))
        _read_only(points)
        self._points, self._blocks, self._reps = points, tuple(blocks), reps.astype(np.int64)
        _read_only(self._reps)
        self._per_block = sum(self._reps.tolist())  # exact: may exceed int64
        # whether query_probabilities reads the partial means on the points
        self._uniform = UniformThreshold in groups

    def shifted(self, offset: float) -> QueryTable:
        """The same table translated by ``offset``: every location parameter
        (``gamma``, ``lo``, ``hi``, a Gray bit's ``shift``) moves by it, while
        the kinds, ``reps`` and ``per_block`` stay.  The offset is added to
        the points, which stay sorted, though two may round to one value.
        Each kind's rule is checked on the moved points, as ``from_columns``
        checks it, so a NaN offset, or one so large that an interval
        collapses, raises ``ValueError``.

        A shift is computed once per (table, offset) in one cache of the
        last ``SHIFT_MEMO_SIZE`` shifts of any table, so shifting again by an
        equal offset returns the same table while the shift is cached;
        ``QueryTable.shifted.cache_clear()`` empties the cache.
        """
        return _shifted(self, float(offset))  # one key for any spelling of the offset

    @property
    def reps(self) -> np.ndarray:
        return self._reps

    @property
    def per_block(self) -> int:
        return self._per_block

    def __len__(self) -> int:
        return self._reps.size

    @property
    def queries(self) -> tuple[Query, ...]:
        """The rows as query values, built anew on each access."""
        out = [None] * self._reps.size
        for kind, rows, at, values in self._blocks:
            params = _params(kind, self._points, at, values)
            for row, *args in zip(rows.tolist(), *(col.tolist() for col in params.values())):
                out[row] = kind(*args)
        return tuple(out)


# One cache for every table, keyed by (table, float offset); lru_cache is
# thread-safe, so it takes no lock.
@functools.lru_cache(maxsize=SHIFT_MEMO_SIZE)
def _shifted(table: QueryTable, offset: float) -> QueryTable:
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which the rules reject
        points = table._points + offset
    # While the moved points stay finite and strictly increasing, every row
    # keeps its parameters finite, apart and in their order, and so keeps to
    # its rule; otherwise each kind's rule decides.
    if not (-math.inf < points[0] and points[-1] < math.inf
            and (points[1:] > points[:-1]).all()):
        for kind, rows, at, values in table._blocks:
            _check_block(kind, rows, _params(kind, points, at, values))
    _read_only(points)
    moved = type(table).__new__(type(table))
    moved._points, moved._blocks, moved._reps = points, table._blocks, table._reps
    moved._per_block, moved._uniform = table._per_block, table._uniform
    return moved


QueryTable.shifted.cache_clear = _shifted.cache_clear
QueryTable.shifted.cache_info = _shifted.cache_info


def _params(kind, points: np.ndarray, at: dict, values: dict) -> dict:
    """A group's parameter columns, in the kind's field order, its locations
    read from ``points``."""
    return {name: points[at[name]] if name in at else values[name] for name in _FIELDS[kind]}


def _check_block(kind, rows: np.ndarray, params: dict) -> None:
    """Raise ``ValueError`` naming the first of a kind's rows its rule rejects."""
    valid = np.asarray(kind._valid(**params))
    if not valid.all():
        bad = int(np.argmin(valid))
        row = {name: column.tolist()[bad] for name, column in params.items()}
        raise ValueError(f"{kind._rule}, got row {rows[bad]}: {kind.__name__}{row}")


def _read_only(*arrays: np.ndarray) -> None:
    # A table may be shared (a cached refinement plan holds one), so none of
    # its arrays can be written through.
    for array in arrays:
        array.setflags(write=False)


# Serializes memo writes, which may evict, across an experiment's threads;
# reads take no lock.
_MEMO_LOCK = threading.Lock()
# distribution -> ({query: Pr(bit = 1)}, weakly {table: (its vector, its live rows)})
_MEMOS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _memos(dist: Distribution) -> tuple[dict, weakref.WeakKeyDictionary]:
    """The distribution's two memo maps: its last ``QUERY_MEMO_SIZE`` distinct
    queries to their probabilities, and its last ``QUERY_MEMO_SIZE`` live
    tables to their vectors, each beside its live rows (see ``_memo_miss``)."""
    memos = _MEMOS.get(dist)
    return _MEMOS.setdefault(dist, ({}, weakref.WeakKeyDictionary())) if memos is None else memos


def _memo_miss(memo, dist: Distribution, q: Query | QueryTable):
    """``query_probability(dist, q)`` for a query, or for a table the pair of
    ``query_probabilities(dist, q)`` and the index of its live rows, those at
    p != 0 (``None`` when every row is), both read-only; stored in ``memo``,
    one of the distribution's two maps, oldest out beyond ``QUERY_MEMO_SIZE``."""
    if isinstance(q, QueryTable):
        p = query_probabilities(dist, q)
        live = (p != 0.0).nonzero()[0]  # a NaN stays live, so its draw still raises
        if live.size == p.size:
            live = None
        else:
            _read_only(live)
        _read_only(p)
        entry = p, live
    else:
        entry = query_probability(dist, q)
    with _MEMO_LOCK:
        memo[q] = entry
        while len(memo) > QUERY_MEMO_SIZE:
            del memo[next(iter(memo))]
    return entry


def _gray_value(level: int, u) -> np.ndarray:
    clamped = np.clip(u, 0.0, 1.0)
    cell = np.floor(np.ldexp(clamped, level)).astype(np.int64) % 4
    return ((cell == 1) | (cell == 2)).astype(np.int64)


def evaluate_query(q: Query, x) -> np.ndarray:
    """Apply the quantization function to sample value(s); returns 0/1.

    A ``UniformThreshold`` has no fixed quantization function: only an
    ``Agent``, which draws its cutoffs, can answer it, so it is refused with
    ``TypeError``.
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
    elif isinstance(q, UniformThreshold):
        raise TypeError(f"a uniform threshold has no fixed quantization function, since "
                        f"its cutoff is drawn afresh for every repetition; only an Agent "
                        f"answers it, got {q!r}")
    else:
        raise TypeError(f"unknown query type: {q!r}")
    return bits if bits.ndim else int(bits)


def query_probabilities(dist: Distribution, table: QueryTable) -> np.ndarray:
    """Pr(bit = 1) of each row of the table under the distribution, from its
    analytic CDF: the point pass of the module docstring."""
    on = _OnPoints(table._points, *dist._on_sorted(table._points, table._uniform))
    blocks = table._blocks
    if len(blocks) == 1:  # one group holds every row, in order
        kind, _, at, values = blocks[0]
        p = np.asarray(_block_probabilities(dist, on, kind, at, values), dtype=float)
    else:
        p = np.empty(len(table))
        for kind, rows, at, values in blocks:
            p[rows] = _block_probabilities(dist, on, kind, at, values)
    # guard float cancellation in tail differences; np.clip would keep a -0.0
    np.maximum(p, 0.0, out=p)
    np.minimum(p, 1.0, out=p)
    return p


def _block_probabilities(dist: Distribution, on: _OnPoints, kind, at: dict,
                         values: dict) -> np.ndarray:
    """A fresh array of the probabilities of one group's rows, unclamped."""
    if kind is GrayBit:
        return _gray_probability(dist, values["level"], on.points[at["shift"]], values["scale"])
    if kind is UniformThreshold:
        return _uniform_on_points(on, values["direction"][0], **at)
    return _ON_POINTS[kind](on, **at)


def query_probability(dist: Distribution, q: Query) -> float:
    """Pr(bit = 1) for one query: a threshold's scalar oracle at its float
    gamma, any other kind's row of its one-row table."""
    oracle = _ORACLES.get(type(q))
    if oracle is not None:
        return min(max(float(oracle(dist, q.gamma)), 0.0), 1.0)  # as query_probabilities clamps
    if type(q) not in _FIELDS:
        raise TypeError(f"unknown query type: {type(q).__name__}")
    return float(query_probabilities(dist, QueryTable((q,), (1,)))[0])


# A table's points and the oracles of one _on_sorted call on them, only read.
_OnPoints = collections.namedtuple("_OnPoints", "points cdf cdf_strict mean mean_strict")


def _interval_on_points(on: _OnPoints, lo, hi) -> np.ndarray:
    # prob_interval's arithmetic: infinite ends are exact.  The points are
    # sorted, so -inf can only be the first and inf only the last.
    upper, lower = on.cdf, on.cdf_strict
    if on.points[-1] == math.inf:
        upper = upper.copy()
        upper[-1] = 1.0
    if on.points[0] == -math.inf:
        lower = lower.copy()
        lower[0] = 0.0
    return upper[hi] - lower[lo]


def _uniform_on_points(on: _OnPoints, direction: str, lo, hi) -> np.ndarray:
    # 'ge' reads the strict oracles, as uniform_threshold_probability does
    cdf, mean = (on.cdf_strict, on.mean_strict) if direction == "ge" else (on.cdf, on.mean)
    return _uniform_from_ends(direction, on.points[lo], on.points[hi], cdf[lo], cdf[hi],
                              mean[lo], mean[hi])


# The threshold oracles of _ORACLES and prob_interval, read off the oracles on
# a table's points at its rows' point indices.
_ON_POINTS = {
    ThresholdGE: lambda on, gamma: 1.0 - on.cdf_strict[gamma],
    ThresholdGT: lambda on, gamma: 1.0 - on.cdf[gamma],
    ThresholdLE: lambda on, gamma: on.cdf[gamma],
    ThresholdLT: lambda on, gamma: on.cdf_strict[gamma],
    Interval: _interval_on_points,
}


def _gray_probability(dist: Distribution, level, shift, scale) -> np.ndarray:
    # Cells j of width 2**-level on [0, 1) carry bit 1 iff j mod 4 in {1, 2};
    # the clamp sends u <= 0 to bit 0 and u >= 1 to the bit of g_level(1),
    # which is 1 only at level 1, whose one cell ends at shift + scale.  Rows
    # are summed one at a time, so memory peaks at one level's cells.
    prob = np.empty(len(level))
    for i, (lv, sh, sc) in enumerate(zip(level.tolist(), shift.tolist(), scale.tolist())):
        width = 0.5 ** lv
        j = np.arange(1, 2 ** lv, 4)
        cdf_high = dist.cdf_strict(sh + sc * (np.minimum(j + 2, 2 ** lv) * width))
        prob[i] = float(np.sum(cdf_high - dist.cdf_strict(sh + sc * (j * width))))
        if lv == 1:
            prob[i] += 1.0 - float(cdf_high[-1])
    return prob


# A threshold's oracle at its gamma, a float or an array; query_probability
# calls it for a single threshold, which a vote asks, and the point pass of
# query_probabilities gives the values it gives.
_ORACLES = {
    ThresholdGE: lambda dist, gamma: 1.0 - dist.cdf_strict(gamma),
    ThresholdGT: lambda dist, gamma: 1.0 - dist.cdf(gamma),
    ThresholdLE: lambda dist, gamma: dist.cdf(gamma),
    ThresholdLT: lambda dist, gamma: dist.cdf_strict(gamma),
}
_FIELDS = {kind: tuple(f.name for f in fields(kind)) for kind in Query.__args__}
# The parameters that place a query on the line, which QueryTable.shifted moves.
_LOCATIONS = frozenset({"gamma", "lo", "hi", "shift"})
# None keeps an int column as given, so the kind's rule sees a float or bool level.
_COLUMN_TYPES = {"gamma": float, "lo": float, "hi": float, "shift": float, "scale": float,
                 "level": None, "direction": str}
# The parameters that are real numbers: a query value refuses any other type.
_REALS = frozenset(name for name, dtype in _COLUMN_TYPES.items() if dtype is float)
_REAL_TYPES = (int, float, np.integer, np.floating)
_PLACEHOLDERS = {"gamma": math.nan, "lo": math.nan, "hi": math.nan, "shift": math.nan,
                 "scale": math.nan, "level": 0, "direction": ""}


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
    ends = np.stack([lo, hi])
    if direction == "ge":
        cdf_lo, cdf_hi = dist.cdf_strict(ends)
        mean_lo, mean_hi = dist.partial_mean_strict(ends)
    elif direction == "le":
        cdf_lo, cdf_hi = dist.cdf(ends)
        mean_lo, mean_hi = dist.partial_mean(ends)
    else:
        raise ValueError(f"direction must be 'ge' or 'le', got {direction!r}")
    p = np.clip(_uniform_from_ends(direction, lo, hi, cdf_lo, cdf_hi, mean_lo, mean_hi),
                0.0, 1.0)  # guard float cancellation in tail differences
    return float(p) if p.ndim == 0 else p


def _uniform_from_ends(direction: str, lo, hi, cdf_lo, cdf_hi, mean_lo, mean_hi):
    """A uniform threshold's Pr(bit = 1) from its ends and the CDF and partial
    mean at them: the strict oracles for 'ge', the others for 'le'."""
    if direction == "ge":
        return 1.0 - cdf_hi + (mean_hi - mean_lo - lo * (cdf_hi - cdf_lo)) / (hi - lo)
    return cdf_lo + (hi * (cdf_hi - cdf_lo) - (mean_hi - mean_lo)) / (hi - lo)


class Transcript:
    """Interaction history with exact per-phase budget accounting.

    Counters only ever increase; a transcript holds query counts, never raw
    sample values.
    """

    def __init__(self):
        self.counts: dict[str, int] = {}
        self._phase = "default"

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
    """Memoryless responder: one fresh i.i.d. sample per query, bits out only.

    The agent keeps no sample and no answer from one query to the next.  What
    it does keep is oracle probabilities: ``respond_count`` takes each p, or
    a table's vector of them, from its distribution's memo, shared with every
    other agent on the same distribution, and computes it only on a miss; the
    agent binds that memo's two maps when it is built.  ``transcript`` counts
    every query ``respond_count`` answers.
    """

    def __init__(self, distribution: Distribution, rng: np.random.Generator):
        self._distribution = distribution
        self._memo, self._table_memo = _memos(distribution)
        self._rng = rng
        self.transcript = Transcript()

    def respond_bits(self, q: Query, n: int) -> np.ndarray:
        """n independent bits for the same query, one fresh sample each.

        A ``UniformThreshold``'s n cutoffs come from the agent's own generator,
        independent of the samples, so the bits are still i.i.d. Bernoulli(p).
        These bits are not recorded: ``respond_count`` records what it
        answers, and ``BitAgent`` answers it from these bits.
        """
        _require_count(n)
        x = self._distribution.sample(self._rng, size=n)
        if isinstance(q, UniformThreshold):
            cutoffs = self._rng.uniform(q.lo, q.hi, n)
            hits = x >= cutoffs if q.direction == "ge" else x <= cutoffs
            return hits.astype(np.int64)
        return np.asarray(evaluate_query(q, x))

    def respond_count(self, q: Query | QueryTable, n: int) -> int | np.ndarray:
        """Number of 1-bits among n repetitions of the query (exact Binomial).

        A single query's count is one int, a single draw.  A ``QueryTable``
        is answered in whole blocks, K = n / ``per_block`` of them, in each
        of which row j is repeated reps[j] times: its int64 counts have shape
        (K, Q), one row per block, from one draw.  That draw is query-major
        (see the module docstring), so the counts are the transpose of a
        (Q, K) array, whose memory layout need not be C order.  Only the rows
        at p != 0 are drawn, the rest count 0; up to ``PER_ROW_DRAW_MAX`` such
        rows are drawn one at a time with scalar arguments, more in one array
        draw.  Either way the generator's stream is used as a draw over every
        row uses it.  The n queries are recorded in ``transcript`` once they
        are answered.
        """
        if isinstance(q, QueryTable):
            counts = self._counts(q, _table_blocks(q, n))
        else:
            if not (type(n) is int and 0 < n <= INT64_MAX):  # the check, inline for a vote
                _require_count(n)
            counts = int(self._counts(q, n))
        self.transcript.record_batch(n)
        return counts

    def _counts(self, q: Query | QueryTable, times: int):
        """The 1-bit count of a single query repeated ``times`` times, or the
        (times, Q) counts of ``times`` blocks of a table."""
        table = isinstance(q, QueryTable)
        memo = self._table_memo if table else self._memo
        entry = memo.get(q)
        if entry is None:
            entry = _memo_miss(memo, self._distribution, q)
        if not table:
            return self._rng.binomial(times, entry)
        # query-major: row j's K variates share the sampler's setup
        p, live = entry
        if live is None and len(q) > PER_ROW_DRAW_MAX:
            return self._rng.binomial(q.reps[:, None], p[:, None], size=(len(q), times)).T
        # a row at p = 0 draws 0 and leaves the stream where it was, so only
        # the live rows are drawn
        counts = np.zeros((len(q), times), dtype=np.int64)
        if live is not None and live.size > PER_ROW_DRAW_MAX:
            counts[live] = self._rng.binomial(q.reps[live, None], p[live, None],
                                              size=(live.size, times))
        else:  # a few rows: K variates of each in one scalar draw, in row order
            for j in range(len(q)) if live is None else live.tolist():
                counts[j] = self._rng.binomial(int(q.reps[j]), float(p[j]), times)
        return counts.T

    def respond_count_uniform_threshold(self, direction: str, lo: float,
                                        hi: float, n: int) -> int:
        """Delegates to ``respond_count``; kept only for perfbench's tracer."""
        return self.respond_count(UniformThreshold(direction, lo, hi), n)


class BitAgent(Agent):
    """The bit-level reference: every count is a sum of ``respond_bits``, one sample per bit."""

    def _counts(self, q: Query | QueryTable, times: int):
        if not isinstance(q, QueryTable):
            return self.respond_bits(q, times).sum()
        return np.array([[self.respond_bits(query, r).sum()
                          for query, r in zip(q.queries, q.reps.tolist())]
                         for _ in range(times)], dtype=np.int64)


def _require_count(n) -> None:
    """Refuse a single query's repetition count n unless it is an int (not a
    bool) in [1, 2^63 - 1]."""
    if not _is_count(n):
        raise ValueError(f"query counts must be ints, got n={n!r}")
    if n < 1:
        raise ValueError("need at least one query")
    if n > INT64_MAX:
        raise ValueError(f"{n} repetitions of one query exceed int64")


def _table_blocks(table: QueryTable, n: int) -> int:
    """The number of whole blocks n queries of the table make, once n is
    checked to be an int (not a bool), at least 1 and a multiple of the
    table's ``per_block``."""
    per_block = table.per_block
    if not (_is_count(n) and n >= 1 and int(n) % per_block == 0):
        raise ValueError(f"a table is answered in whole blocks: n must be a positive int "
                         f"multiple of per_block {per_block}, got n={n!r}")
    return int(n) // per_block
