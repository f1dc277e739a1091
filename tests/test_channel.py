import gc
import math
import weakref

import numpy as np
import pytest
from pytest import approx

from bitmean import channel, harness
from bitmean.channel import (
    MAX_GRAY_LEVEL,
    PER_ROW_DRAW_MAX,
    QUERY_MEMO_SIZE,
    SHIFT_MEMO_SIZE,
    Agent,
    BitAgent,
    GrayBit,
    Interval,
    QueryTable,
    ThresholdGE,
    ThresholdGT,
    ThresholdLE,
    ThresholdLT,
    Transcript,
    UniformThreshold,
    evaluate_query,
    query_probabilities,
    query_probability,
    uniform_threshold_probability,
)
from bitmean.distributions import FILL_POINTS_PER_ATOM, DiscreteMixture, FamilyParams, \
    make_discrete, make_gaussian_budget_tight, make_point_mass, make_two_sided_pareto
from bitmean.hardness import baseline_plan, make_pair_grid, nonadaptive_baseline
from bitmean.harness import ExperimentConfig, acceptance_matrix, run_gap, run_pac, trial_rng
from bitmean.refine import build_plan, estimate_mean, refinement_plan


def _agent(dist, seed=0, tag="chan"):
    return Agent(dist, trial_rng(seed, tag, 0))


def test_point_mass_threshold_is_deterministic():
    agent = _agent(make_point_mass(3.0))
    for _ in range(10):
        assert agent.respond_count(ThresholdGE(2.0), 1) == 1
        assert agent.respond_count(Interval(4.0, 5.0), 1) == 0


def test_malformed_interval_rejected():
    with pytest.raises(ValueError, match="malformed"):
        Interval(2.0, 1.0)


def test_interval_infinite_endpoints_degenerate_to_thresholds():
    d = make_discrete([-1.0, 1.0], [0.5, 0.5])
    assert query_probability(d, Interval(0.0, math.inf)) == approx(
        query_probability(d, ThresholdGE(0.0)))
    assert query_probability(d, Interval(-math.inf, 0.0)) == approx(
        query_probability(d, ThresholdLE(0.0)))


def test_pair_member_interval_probability():
    # shifted two-point instance: upper support point 0.5 carries mass 0.6
    d = make_discrete([-0.5, 0.5], [0.4, 0.6])
    assert query_probability(d, Interval(0.0, 1.0)) == approx(0.6, abs=1e-15)
    agent = _agent(d, seed=1)
    ones = agent.respond_count(Interval(0.0, 1.0), 20000)
    assert ones / 20000 == approx(0.6, abs=4 * math.sqrt(0.24 / 20000))


def test_respond_count_point_mass_and_accounting():
    agent = _agent(make_point_mass(0.0), seed=2)
    assert agent.respond_count(ThresholdLE(0.0), 100) / 100 == 1.0
    assert agent.transcript.total == 100
    agent.respond_count(ThresholdGE(1.0), 5)
    agent.respond_count(QueryTable([ThresholdGE(1.0), ThresholdLE(0.0)], [2, 3]), 10)
    assert agent.transcript.total == 115


def test_respond_count_fraction_converges_to_half():
    d = make_discrete([-1.0, 1.0], [0.5, 0.5])
    assert query_probability(d, ThresholdGE(0.0)) == approx(0.5, abs=1e-15)
    agent = _agent(d, seed=3)
    frac = agent.respond_count(ThresholdGE(0.0), 40000) / 40000
    assert frac == approx(0.5, abs=4 * math.sqrt(0.25 / 40000))


def test_rejects_zero_repetitions():
    agent = _agent(make_point_mass(0.0))
    with pytest.raises(ValueError):
        agent.respond_count(ThresholdGE(0.0), 0)
    assert agent.transcript.total == 0


def test_deterministic_transcripts_same_seed():
    d = make_two_sided_pareto(1.5, 1.0, alpha=1.9)
    runs = []
    for _ in range(2):
        agent = Agent(d, trial_rng(7, "determinism", 0))
        runs.append([agent.respond_bits(ThresholdGE(i * 0.1 - 2.0), 1)[0] for i in range(50)])
    assert runs[0] == runs[1]


def test_complement_symmetry_continuous():
    d = make_gaussian_budget_tight(2.0, 1.0, mu=0.2)
    gamma = 0.7
    p_ge = query_probability(d, ThresholdGE(gamma))
    p_le = query_probability(d, ThresholdLE(gamma))
    assert p_ge + p_le == approx(1.0, abs=1e-12)
    agent = _agent(d, seed=4)
    n = 40000
    total = agent.respond_count(ThresholdGE(gamma), n) + \
        agent.respond_count(ThresholdLE(gamma), n)
    assert total / n == approx(1.0, abs=4 * math.sqrt(0.5 / n))


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
def test_learner_surface_exposes_no_samples(agent_type):
    # structural check: no public attribute or method hands back sample values
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    public = [name for name in dir(agent) if not name.startswith("_")]
    # the transcript holds query counts per phase, never sample values
    assert all(name.startswith("respond") or name == "transcript" for name in public)
    assert isinstance(agent.transcript, Transcript) and agent.transcript.counts == {}
    assert not hasattr(agent, "sample")
    assert not hasattr(agent, "distribution")


def test_strict_thresholds_exclude_the_atom():
    d = make_discrete([1.0, 2.0], [0.3, 0.7])
    expected = {ThresholdGE(1.0): 1.0, ThresholdGT(1.0): 0.7,
                ThresholdLE(1.0): 0.3, ThresholdLT(1.0): 0.0}
    for q, p in expected.items():
        assert query_probability(d, q) == approx(p, abs=1e-15)
    assert evaluate_query(ThresholdGT(1.0), d.points).tolist() == [0, 1]
    assert evaluate_query(ThresholdLT(2.0), d.points).tolist() == [1, 0]


def test_uniform_threshold_validation():
    with pytest.raises(ValueError, match="direction"):
        UniformThreshold("gt", 0.0, 1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        UniformThreshold("ge", 1.0, 1.0)


def test_binomial_and_bitwise_paths_agree():
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    q = ThresholdGE(0.1)
    p = query_probability(d, q)
    agent = _agent(d, seed=6)
    n = 30000
    count_path = agent.respond_count(q, n) / n
    bit_path = float(np.mean(agent.respond_bits(q, n)))
    band = 4 * math.sqrt(p * (1 - p) / n)
    assert count_path == approx(p, abs=band)
    assert bit_path == approx(p, abs=band)


def test_gray_query_probability_matches_empirical():
    d = make_gaussian_budget_tight(2.0, 1.0, mu=-0.4)
    for level in (1, 2, 3, 5):
        q = GrayBit(level, -8.0, 16.0)
        p = query_probability(d, q)
        agent = _agent(d, seed=10 + level)
        n = 30000
        frac = float(np.mean(agent.respond_bits(q, n)))
        assert frac == approx(p, abs=4 * math.sqrt(0.25 / n) + 1e-12)


def test_gray_query_validation():
    with pytest.raises(ValueError):
        GrayBit(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GrayBit(1, 0.0, -1.0)


def test_uniform_threshold_probability_against_direct_sum():
    # independent oracle: clamp-weight each atom directly
    d = make_discrete([-1.0, 0.2, 0.7, 2.0, 3.0], [0.1, 0.3, 0.25, 0.15, 0.2])
    lo, hi = 0.0, 2.0
    span = hi - lo
    direct_ge = sum(p * min(max((x - lo) / span, 0.0), 1.0)
                    for x, p in zip(d.points, d.probs))
    direct_le = sum(p * min(max((hi - x) / span, 0.0), 1.0)
                    for x, p in zip(d.points, d.probs))
    assert uniform_threshold_probability(d, "ge", lo, hi) == approx(direct_ge, abs=1e-14)
    assert uniform_threshold_probability(d, "le", lo, hi) == approx(direct_le, abs=1e-14)


def test_uniform_threshold_probability_matches_bitwise_simulation():
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    lo, hi = 0.0, 2.0
    p = uniform_threshold_probability(d, "ge", lo, hi)
    agent = _agent(d, seed=11)
    n = 40000
    bits = agent.respond_bits(UniformThreshold("ge", lo, hi), n)
    assert float(np.mean(bits)) == approx(p, abs=4 * math.sqrt(0.25 / n))


def test_evaluate_query_refuses_a_uniform_threshold():
    with pytest.raises(TypeError, match="no fixed quantization function.*only an Agent"):
        evaluate_query(UniformThreshold("ge", 0.0, 1.0), [0.5])


def test_evaluate_query_vectorizes():
    x = np.array([-1.0, 0.0, 0.5, 2.0])
    bits = evaluate_query(ThresholdGE(0.25), x)
    assert bits.tolist() == [0, 0, 1, 1]


def test_transcript_counters_never_decrease():
    tr = Transcript()
    tr.begin_phase("a")
    tr.record_batch(5)
    tr.begin_phase("b")
    tr.record_batch(3)
    assert tr.counts == {"a": 5, "b": 3}
    assert tr.total == 8
    with pytest.raises(ValueError):
        tr.record_batch(-1)


@pytest.mark.parametrize("q", [UniformThreshold("ge", 0.0, 2.0), ThresholdGE(0.1)])
def test_block_counts_have_binomial_moments_on_both_agents(q):
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    p = query_probability(d, q)
    n_block, blocks = 50, 4000
    var = n_block * p * (1 - p)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / var
    var_se = var * math.sqrt(2 / (blocks - 1) + excess_kurtosis / blocks)
    # a single query's block counts come from its one-row table
    table = QueryTable((q,), (n_block,))
    for agent_type in (Agent, BitAgent):
        agent = agent_type(d, trial_rng(12, f"blocks/{agent_type.__name__}", 0))
        counts = agent.respond_count(table, blocks * n_block)[:, 0]
        assert counts.dtype == np.int64 and counts.shape == (blocks,)
        assert float(np.mean(counts)) == approx(n_block * p, abs=4 * math.sqrt(var / blocks))
        assert float(np.var(counts, ddof=1)) == approx(var, abs=4 * var_se)


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
def test_indivisible_block_split_rejected(agent_type):
    # a table is answered in whole blocks: a partial one is refused before
    # any draw, with nothing recorded
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    table = QueryTable((ThresholdGE(0.0), ThresholdLE(1.0)), (2, 3))
    for n in (1, 4, 6, 11, 0, -5, 10.0, True):
        with pytest.raises(ValueError, match=f"per_block 5, got n={n!r}"):
            agent.respond_count(table, n)
    assert agent.transcript.total == 0


BAD_QUERIES = [
    (ThresholdGE, {"gamma": math.nan}), (ThresholdGT, {"gamma": math.nan}),
    (ThresholdLE, {"gamma": math.nan}), (ThresholdLT, {"gamma": math.nan}),
    (UniformThreshold, {"direction": "ge", "lo": -math.inf, "hi": 0.0}),
    (UniformThreshold, {"direction": "le", "lo": 0.0, "hi": math.inf}),
    (UniformThreshold, {"direction": "ge", "lo": math.nan, "hi": 1.0}),
    (UniformThreshold, {"direction": "le", "lo": 0.0, "hi": math.nan}),
    (GrayBit, {"level": 1, "shift": math.nan, "scale": 1.0}),
    (GrayBit, {"level": 2, "shift": 0.0, "scale": math.inf}),
    (GrayBit, {"level": 1, "shift": -math.inf, "scale": 1.0}),
    (GrayBit, {"level": 3, "shift": 0.0, "scale": math.nan}),
    (GrayBit, {"level": 1.5, "shift": -1.0, "scale": 2.0}),
    (GrayBit, {"level": True, "shift": -1.0, "scale": 2.0}),
    (GrayBit, {"level": 0, "shift": -1.0, "scale": 2.0}),
    (GrayBit, {"level": MAX_GRAY_LEVEL + 1, "shift": -1.0, "scale": 2.0}),
]
BAD_QUERY_IDS = ["ge-nan", "gt-nan", "le-nan", "lt-nan", "uniform-lo-inf", "uniform-hi-inf",
                 "uniform-lo-nan", "uniform-hi-nan", "gray-shift-nan", "gray-scale-inf",
                 "gray-shift-inf", "gray-scale-nan", "gray-level-float", "gray-level-bool",
                 "gray-level-zero", "gray-level-too-deep"]


@pytest.mark.parametrize("kind, params", BAD_QUERIES, ids=BAD_QUERY_IDS)
def test_queries_reject_non_finite_parameters(kind, params):
    # and, for a Gray bit, a level that is not an int from 1 to MAX_GRAY_LEVEL
    with pytest.raises(ValueError):
        kind(**params)


@pytest.mark.parametrize("kind, params", BAD_QUERIES, ids=BAD_QUERY_IDS)
def test_table_columns_reject_what_queries_reject(kind, params):
    # the same row through the array route, as the table's one kind and as a
    # row of a mixed table behind a valid threshold
    columns = {name: [value] for name, value in params.items()}
    with pytest.raises(ValueError, match=kind._rule):
        QueryTable.from_columns(kind, [3], **columns)
    mixed = {name: [values[0]] * 2 for name, values in columns.items()}
    mixed["gamma"] = [0.0, params.get("gamma", 0.0)]
    with pytest.raises(ValueError, match="row 1"):
        QueryTable.from_columns([ThresholdGE, kind], [3, 3], **mixed)


VALID_QUERIES = {
    ThresholdGE: {"gamma": 0.5}, ThresholdGT: {"gamma": 0.5}, ThresholdLE: {"gamma": 0.5},
    ThresholdLT: {"gamma": 0.5}, Interval: {"lo": 0.0, "hi": 1.0},
    GrayBit: {"level": 2, "shift": 0.0, "scale": 1.0},
    UniformThreshold: {"direction": "ge", "lo": 0.0, "hi": 1.0},
}
REAL_FIELDS = [(kind, name) for kind, params in VALID_QUERIES.items() for name in params
               if name in ("gamma", "lo", "hi", "shift", "scale")]


@pytest.mark.parametrize("value", [None, "0.5", "a", True, np.True_, 0.5j, [0.5],
                                   np.array(0.5)],
                         ids=["none", "numeric-str", "str", "bool", "numpy-bool", "complex",
                              "list", "0d-array"])
@pytest.mark.parametrize("kind, name", REAL_FIELDS,
                         ids=[f"{kind.__name__}-{name}" for kind, name in REAL_FIELDS])
def test_query_values_refuse_a_location_that_is_not_a_real_number(kind, name, value):
    with pytest.raises(ValueError, match=f"^{kind.__name__} needs a real {name}, an int or float"):
        kind(**{**VALID_QUERIES[kind], name: value})


@pytest.mark.parametrize("kind, name", REAL_FIELDS,
                         ids=[f"{kind.__name__}-{name}" for kind, name in REAL_FIELDS])
def test_query_values_refuse_an_int_beyond_float64(kind, name):
    with pytest.raises(ValueError, match=f"^{name} is an int of 1329 bits, beyond float64"):
        kind(**{**VALID_QUERIES[kind], name: 10 ** 400})


@pytest.mark.parametrize("value", [1, np.int64(1), np.float32(0.75), np.float64(0.75)],
                         ids=["int", "numpy-int", "float32", "float64"])
def test_query_values_take_ints_and_numpy_scalars(value):
    d = make_discrete([0.0, 0.75, 1.0], [0.25, 0.25, 0.5])
    for kind in (ThresholdGE, ThresholdGT, ThresholdLE, ThresholdLT):
        assert query_probability(d, kind(value)) == query_probability(d, kind(float(value)))
    assert query_probability(d, Interval(value, 2.0)) == \
        query_probability(d, Interval(float(value), 2.0))
    assert query_probability(d, UniformThreshold("le", -1.0, value)) == \
        query_probability(d, UniformThreshold("le", -1.0, float(value)))
    assert query_probability(d, GrayBit(2, -value, value)) == \
        query_probability(d, GrayBit(2, -float(value), float(value)))


def test_infinite_thresholds_stay_valid():
    d = make_gaussian_budget_tight(2.0, 1.0)
    assert query_probability(d, ThresholdGE(math.inf)) == 0.0
    assert query_probability(d, ThresholdLE(math.inf)) == 1.0
    assert query_probability(d, ThresholdGT(-math.inf)) == 1.0
    assert query_probability(d, ThresholdLT(-math.inf)) == 0.0


MIXED_TABLE = QueryTable(
    (ThresholdGE(0.1), UniformThreshold("le", -1.0, 2.0), Interval(-0.5, 1.5),
     GrayBit(2, -4.0, 8.0)),
    (50, 30, 40, 20))


def test_table_counts_have_binomial_moments_on_both_agents():
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    table, blocks = MIXED_TABLE, 2000
    p = query_probabilities(d, table)
    assert p.tolist() == approx([query_probability(d, q) for q in table.queries], abs=1e-15)
    reps = np.array(table.reps)
    var = reps * p * (1 - p)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / var
    var_se = var * np.sqrt(2 / (blocks - 1) + excess_kurtosis / blocks)
    for agent_type in (Agent, BitAgent):
        agent = agent_type(d, trial_rng(14, f"table/{agent_type.__name__}", 0))
        counts = agent.respond_count(table, blocks * table.per_block)
        assert counts.dtype == np.int64 and counts.shape == (blocks, 4)
        mean, sample_var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        assert np.all(np.abs(mean - reps * p) <= 4 * np.sqrt(var / blocks))
        assert np.all(np.abs(sample_var - var) <= 4 * var_se)


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
def test_table_count_shapes_and_wrong_totals(agent_type):
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    table = MIXED_TABLE
    total = 0
    for blocks in (1, 3):  # K * per_block queries are K blocks, whatever the memory layout
        counts = agent.respond_count(table, blocks * table.per_block)
        total += blocks * table.per_block
        assert counts.dtype == np.int64 and counts.shape == (blocks, 4)
        assert agent.transcript.total == total
        # at the atom 0: x >= 0.1 never, 0 in [-0.5, 1.5] always, u = 1/2 has Gray bit 1
        assert np.all(counts[:, [0, 2, 3]] == [0, 40, 20])
        assert np.all((0 <= counts[:, 1]) & (counts[:, 1] <= 30))
    for n in (table.per_block + 1, 3 * table.per_block - 1, 0):
        with pytest.raises(ValueError, match="per_block"):
            agent.respond_count(table, n)
    assert agent.transcript.total == total
    with pytest.raises(ValueError, match="int64"):  # numpy would raise OverflowError
        agent.respond_count(ThresholdGE(0.0), 2 ** 63)


BAD_TABLES = [
    ((), ()),
    ((ThresholdGE(0.0),), ()),
    ((ThresholdGE(0.0), ThresholdLE(0.0)), (1,)),
    ((ThresholdGE(0.0),), (0,)),
    ((ThresholdGE(0.0),), (-3,)),
    ((ThresholdGE(0.0),), (2.0,)),
    ((ThresholdGE(0.0),), (True,)),
    ((ThresholdGE(0.0),), (2 ** 63,)),
    ((0.5,), (1,)),
    ((ThresholdGE(0.0), ThresholdGE(1.0)), (True, 3)),
]
BAD_TABLE_IDS = ["empty", "no-reps", "short-reps", "zero-rep", "negative-rep", "float-rep",
                 "bool-rep", "rep-beyond-int64", "not-a-query", "bool-among-ints"]


@pytest.mark.parametrize("queries, reps", BAD_TABLES, ids=BAD_TABLE_IDS)
def test_malformed_query_tables_rejected(queries, reps):
    with pytest.raises(ValueError):
        QueryTable(queries, reps)


@pytest.mark.parametrize("queries, reps", BAD_TABLES, ids=BAD_TABLE_IDS)
def test_malformed_table_columns_rejected(queries, reps):
    with pytest.raises(ValueError):
        QueryTable.from_columns([type(q) for q in queries], reps,
                                gamma=[getattr(q, "gamma", 0.0) for q in queries])


def test_table_columns_build_the_same_rows_as_queries():
    queries = MIXED_TABLE.queries
    assert queries == (ThresholdGE(0.1), UniformThreshold("le", -1.0, 2.0),
                       Interval(-0.5, 1.5), GrayBit(2, -4.0, 8.0))
    # every row reads only its kind's fields; the others hold placeholders
    table = QueryTable.from_columns(
        [ThresholdGE, UniformThreshold, Interval, GrayBit], np.array([50, 30, 40, 20]),
        gamma=[0.1, math.nan, math.nan, math.nan], direction=["", "le", "", ""],
        lo=[math.nan, -1.0, -0.5, math.nan], hi=[math.nan, 2.0, 1.5, math.nan],
        level=[0, 0, 0, 2], shift=[math.nan, math.nan, math.nan, -4.0],
        scale=[math.nan, math.nan, math.nan, 8.0])
    assert table.queries == queries and table.reps.tolist() == MIXED_TABLE.reps.tolist()
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    assert query_probabilities(d, table).tolist() == query_probabilities(d, MIXED_TABLE).tolist()
    with pytest.raises(ValueError, match="'lo' column"):
        QueryTable.from_columns(Interval, [1], hi=[1.0])
    with pytest.raises(ValueError, match="shape"):
        QueryTable.from_columns(ThresholdGE, [1, 1], gamma=[0.0])


ALL_KINDS_TABLE = QueryTable(
    (ThresholdGE(0.1), ThresholdGT(-0.4), ThresholdLE(1.5), ThresholdLT(-math.inf),
     Interval(-0.5, 1.5), GrayBit(3, -4.0, 8.0), UniformThreshold("ge", -1.0, 2.0),
     UniformThreshold("le", 0.25, 0.5)),
    (5, 6, 7, 8, 9, 10, 11, 2 ** 62))


def _translated(q, c):
    # the per-query translation that QueryTable.shifted is held to
    if isinstance(q, Interval):
        return Interval(q.lo + c, q.hi + c)
    if isinstance(q, UniformThreshold):
        return UniformThreshold(q.direction, q.lo + c, q.hi + c)
    if isinstance(q, GrayBit):
        return GrayBit(q.level, q.shift + c, q.scale)
    return type(q)(q.gamma + c)


@pytest.mark.parametrize("offset", [0.0, 0.3, -7.25, 1e6])
def test_shifted_table_translates_every_kind(offset):
    shifted = ALL_KINDS_TABLE.shifted(offset)
    expected = tuple(_translated(q, offset) for q in ALL_KINDS_TABLE.queries)
    assert shifted.queries == expected
    assert shifted.reps is ALL_KINDS_TABLE.reps
    assert shifted.per_block == ALL_KINDS_TABLE.per_block
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    assert query_probabilities(d, shifted).tobytes() == \
        query_probabilities(d, QueryTable(expected, ALL_KINDS_TABLE.reps.tolist())).tobytes()


@pytest.mark.parametrize("offset,rule", [
    (math.nan, "threshold query needs a gamma that is not NaN"),
    (math.inf, "threshold query needs a gamma that is not NaN"),  # -inf + inf
    (2.0 ** 60, "uniform threshold needs"),  # 0.25 + c == 0.5 + c: the cutoff range collapses
], ids=["nan", "inf", "collapsing"])
def test_shifted_table_rejects_what_from_columns_rejects(offset, rule):
    with pytest.raises(ValueError, match=f"^{rule}.*, got row"):
        ALL_KINDS_TABLE.shifted(offset)
    assert ALL_KINDS_TABLE.queries[7] == UniformThreshold("le", 0.25, 0.5)  # left unchanged


def test_per_block_stays_exact_beyond_int64():
    big = 2 ** 63 - 1
    for table in (QueryTable((ThresholdGE(0.0), ThresholdLE(0.0), Interval(0.0, 1.0)),
                             (big, big - 1, big)),
                  QueryTable.from_columns(ThresholdGE, np.array([big, big - 1, big]),
                                          gamma=np.zeros(3))):
        assert table.reps.dtype == np.int64 and table.reps.tolist() == [big, big - 1, big]
        assert type(table.per_block) is int and table.per_block == 3 * big - 1
        with pytest.raises(ValueError):  # read-only
            table.reps[0] = 1


def test_single_query_draws_the_one_row_table_stream():
    # the single-query path skips the table, but not a single draw of the
    # stream: it is one scalar draw
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    fast, table, rng = _agent(d, seed=15), _agent(d, seed=15), trial_rng(15, "chan", 0)
    for i in range(400):
        q = ThresholdLE(-5.0 + 0.025 * i)
        n = 1000 + 7 * i
        count = fast.respond_count(q, n)
        assert type(count) is int and count == rng.binomial(n, query_probability(d, q))
        assert count == int(table.respond_count(QueryTable((q,), (n,)), n)[0, 0])


def _refinement_table():
    return build_plan(FamilyParams(1.5, 16.0, 1.0), 1 / 16, 0.1).table.shifted(0.3)


TWO_ATOMS = make_discrete([0.0, 1.0], [0.3, 0.7])


def _live_rows_table(live):
    """A table of ``live`` rows live on ``TWO_ATOMS``, at p = 0.7, 0.3, 1 and
    0.3 in turn, each followed by a dead row."""
    kinds = (ThresholdGE(0.5), Interval(-0.5, 0.5), Interval(-0.5, 1.5), ThresholdLT(0.5))
    queries, reps = [], []
    for i in range(live):
        queries += [kinds[i % 4], Interval(2.0 + i, 3.0 + i)]
        reps += [3 + 97 * i, 5]
    table = QueryTable(queries, reps)
    assert (query_probabilities(TWO_ATOMS, table) != 0).sum() == live
    return table


def _draw_cases():
    """(distribution, table, has rows at p = 0): two tables with every row
    live, 4 and 120 rows, then the baseline's table on a pair member (2 live
    rows), the refinement table at k2_null's mean, a table with no live row,
    and tables of 1, ``PER_ROW_DRAW_MAX`` and one more live rows, so both
    sides of the per-row draw's crossover run."""
    pareto = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    k2_null = acceptance_matrix()["k2_null"]
    refinement = refinement_plan(k2_null.params, 0.25, 0.2).table.shifted(k2_null.mean)
    dead = QueryTable((ThresholdGE(1.0), Interval(2.0, 3.0), ThresholdLT(-1.0)), (3, 5, 7))
    return [(pareto, MIXED_TABLE, False), (pareto, _refinement_table(), False),
            (make_pair_grid(64.0, 1.0, 0.125).member(5, 1),
             baseline_plan(64.0, 1.0, 0.125, 20_000).table, True),
            (k2_null.dist, refinement, True), (make_point_mass(0.0), dead, True),
            *[(TWO_ATOMS, _live_rows_table(live), True)
              for live in (1, PER_ROW_DRAW_MAX, PER_ROW_DRAW_MAX + 1)]]


def _assert_draw(dist, table, has_dead, seed, draw):
    # the agent's counts and its generator's state afterwards are numpy's
    # draw over every row, dead or live, and its generator's state
    generator, rng = trial_rng(seed, "chan", 0), trial_rng(seed, "chan", 0)
    counts = draw(Agent(dist, generator))
    p = query_probabilities(dist, table)
    assert (p == 0).any() == has_dead
    assert np.array_equal(counts, draw(rng, p))
    assert generator.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("blocks", [2, 7, 19])
def test_table_draw_is_query_major(blocks):
    # row j's K block counts are consecutive variates of the stream, so the
    # Binomial sampler sets up once per row
    for dist, table, has_dead in _draw_cases():
        def draw(source, p=None):
            if p is None:
                return source.respond_count(table, blocks * table.per_block)
            return source.binomial(table.reps[:, None], p[:, None],
                                   size=(len(table), blocks)).T
        _assert_draw(dist, table, has_dead, 17, draw)


@pytest.mark.parametrize("blocks", [None, 1])
def test_one_block_table_draw_keeps_row_order(blocks):
    # one block takes the rows in order: its (1, Q) counts are those of a flat
    # draw over the rows (no block axis) and of a one-block (1, Q) draw
    for dist, table, has_dead in _draw_cases():
        def draw(source, p=None):
            if p is None:
                counts = source.respond_count(table, table.per_block)
                assert counts.shape == (1, len(table))
                return counts
            size = None if blocks is None else (blocks, len(table))
            return np.atleast_2d(source.binomial(table.reps, p, size=size))
        _assert_draw(dist, table, has_dead, 18, draw)


class _EveryRowAgent(Agent):
    """Draws every row of a table, those at p = 0 too, as the agent did
    before it skipped them; counts the rows at p = 0 it drew."""

    dead_rows = 0

    def _counts(self, q, times):
        if not isinstance(q, QueryTable):
            return super()._counts(q, times)
        p = query_probabilities(self._distribution, q)
        type(self).dead_rows += int((p == 0).sum())
        return self._rng.binomial(q.reps[:, None], p[:, None], size=(len(q), times)).T


@pytest.mark.parametrize("run", ["gap", "pac_k2_null"])
def test_runs_skipping_dead_rows_equal_runs_drawing_every_row(monkeypatch, run):
    if run == "gap":
        config = ExperimentConfig(k=2.0, lam=64.0, eps=0.125, delta=0.1, trials=6, seed=3,
                                  budgets=(2_000, 20_000))
        runner = run_gap
    else:
        config, runner = ExperimentConfig(fixture="k2_null", trials=4, seed=2), run_pac
    skipping = runner(config)
    monkeypatch.setattr(harness, "Agent", _EveryRowAgent)
    _EveryRowAgent.dead_rows = 0
    assert runner(config) == skipping  # the rows and the CSV text
    assert _EveryRowAgent.dead_rows > 0


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
@pytest.mark.parametrize("n", [5.0, True, math.nan])
def test_non_integer_query_counts_rejected(agent_type, n):
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    with pytest.raises(ValueError, match="must be ints"):
        agent.respond_count(ThresholdGE(0.0), n)
    with pytest.raises(ValueError, match="positive int multiple of per_block"):
        agent.respond_count(QueryTable((ThresholdGE(0.0),), (1,)), n)
    with pytest.raises(ValueError, match="must be ints"):
        agent.respond_bits(ThresholdGE(0.0), n)


# -- the probability memo ------------------------------------------------------

def test_memo_leaves_seeded_reports_unchanged_cold_and_warm(monkeypatch):
    computed = []

    def counting(compute):
        def counted(dist, q):
            computed.append(q)
            return compute(dist, q)
        return counted

    monkeypatch.setattr(channel, "query_probability", counting(query_probability))
    monkeypatch.setattr(channel, "query_probabilities", counting(query_probabilities))
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3)  # a new distribution: the memo is cold
    params = FamilyParams(1.5, 16.0, 1.0)
    reports = []
    for _ in range(2):
        reports.append(estimate_mean(Agent(dist, trial_rng(3, "memo", 0)), params, 1 / 16, 0.1))
        reports.append(len(computed))
    cold, cold_computed, warm, warm_computed = reports
    assert warm == cold and warm.batch_values == cold.batch_values
    assert any(isinstance(q, QueryTable) for q in computed)  # the round's table, cold
    assert cold_computed > 0 and warm_computed == cold_computed  # the warm run computed none


def test_memoized_probabilities_equal_query_probabilities():
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    agent = _agent(d, seed=16)
    for table in (ALL_KINDS_TABLE, MIXED_TABLE.shifted(0.75)):
        agent.respond_count(table, table.per_block)
        p, _ = channel._MEMOS[d][1][table]
        agent.respond_count(table, table.per_block)
        assert channel._MEMOS[d][1][table][0] is p  # computed once
        assert p.tobytes() == query_probabilities(d, table).tobytes()
        assert not p.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            p[0] = 0.5
    for q in MIXED_TABLE.queries:
        agent.respond_count(q, 3)
        assert channel._MEMOS[d][0][q] == query_probability(d, q)


def test_memo_keeps_no_distribution_or_table_alive():
    tables = []

    class Recording(Agent):
        def respond_count(self, q, n, **kwargs):
            if isinstance(q, QueryTable):
                tables.append(weakref.ref(q))
            return super().respond_count(q, n, **kwargs)

    params = FamilyParams(1.5, 16.0, 1.0)
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3)
    estimate_mean(Recording(dist, trial_rng(4, "memo", 0)), params, 1 / 16, 0.1)
    member = make_pair_grid(64.0, 1.0, 0.125).member(3, 1)
    nonadaptive_baseline(Recording(member, trial_rng(4, "memo", 1)), 64.0, 1.0, 0.125, 20000)
    refs = [weakref.ref(dist), weakref.ref(member), weakref.ref(build_plan(params, 1 / 16, 0.1)
                                                                .table), *tables]
    # the round's shifted table, then the baseline's
    assert len(tables) == 2 and all(ref() is not None for ref in refs)
    del dist, member
    gc.collect()  # the caches keep their tables by design, but no distribution
    assert refs[0]() is None and refs[1]() is None and all(ref() is not None for ref in refs[2:])
    baseline_plan.cache_clear()
    build_plan.cache_clear()
    QueryTable.shifted.cache_clear()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_memo_bounds_hold():
    d = make_point_mass(0.0)
    agent = _agent(d, seed=17)
    queries, tables = channel._MEMOS[d]
    for i in range(QUERY_MEMO_SIZE + 10):
        assert agent.respond_count(ThresholdLE(float(i)), 1) == 1
    assert len(queries) == QUERY_MEMO_SIZE
    assert ThresholdLE(0.0) not in queries  # the oldest went first
    kept = [QueryTable((ThresholdGE(float(i)),), (1,)) for i in range(QUERY_MEMO_SIZE + 2)]
    for table in kept:  # kept alive, so only the bound drops them
        agent.respond_count(table, 1)
    assert len(tables) == QUERY_MEMO_SIZE and len(queries) == QUERY_MEMO_SIZE  # bounds apart
    assert kept[0] not in tables and kept[1] not in tables and kept[-1] in tables
    table = kept[-1]
    QueryTable.shifted.cache_clear()
    first = weakref.ref(table.shifted(0.0))
    for i in range(1, SHIFT_MEMO_SIZE + 3):
        table.shifted(float(i))
    assert QueryTable.shifted.cache_info().currsize == SHIFT_MEMO_SIZE
    gc.collect()
    assert first() is None  # the oldest shift went first, and nothing else kept it


def test_memo_drops_a_shifted_table_the_shift_cache_drops():
    # a shift the cache evicted can never be asked again, so its vector goes too
    d = make_two_sided_pareto(1.5, 1.0, mu=0.3)
    agent, tables = _agent(d, seed=19), channel._MEMOS[d][1]
    QueryTable.shifted.cache_clear()
    first = weakref.ref(MIXED_TABLE.shifted(0.0))
    for i in range(SHIFT_MEMO_SIZE + 5):
        shifted = MIXED_TABLE.shifted(i / 8)
        agent.respond_count(shifted, shifted.per_block)
    del shifted
    gc.collect()
    assert first() is None
    assert len(tables) == SHIFT_MEMO_SIZE  # the shifts still cached, and no other
    assert all(any(t is MIXED_TABLE.shifted(i / 8) for t in tables.keys())
               for i in range(5, SHIFT_MEMO_SIZE + 5))


def test_shift_cache_is_one_for_all_tables():
    one = QueryTable((ThresholdGE(0.0),), (1,))
    two = QueryTable((ThresholdGE(0.0),), (1,))
    QueryTable.shifted.cache_clear()
    assert one.shifted(1.0) is not two.shifted(1.0)  # keyed by the table, not its rows
    assert QueryTable.shifted.cache_info().currsize == 2
    for i in range(SHIFT_MEMO_SIZE):
        two.shifted(float(i + 2))
    assert QueryTable.shifted.cache_info().currsize == SHIFT_MEMO_SIZE
    assert one.shifted(1.0).queries == (ThresholdGE(1.0),)
    assert QueryTable.shifted.cache_info().misses == 2 + SHIFT_MEMO_SIZE + 1  # one's was evicted


def test_shifted_nan_raises_on_every_call():
    table = QueryTable((ThresholdGE(0.1), Interval(-0.5, 1.5)), (1, 2))
    assert table.shifted(1.0) is table.shifted(1.0)
    for _ in range(3):
        with pytest.raises(ValueError, match="NaN"):
            table.shifted(math.nan)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_shifted_by_signed_zeros_gives_one_table(first):
    # the offsets compare equal, so they key one cache entry, whichever came first
    table = QueryTable((ThresholdGE(-0.0), Interval(0.0, 1.0)), (1, 2))
    QueryTable.shifted.cache_clear()
    shifted = table.shifted(first)
    assert table.shifted(-first) is shifted
    assert QueryTable.shifted.cache_info().currsize == 1
    assert shifted.queries == (ThresholdGE(0.0), Interval(0.0, 1.0))


@pytest.mark.parametrize("offset", [0.75, np.float64(0.75)])
def test_shifted_by_any_spelling_of_an_offset_gives_one_table(offset):
    table = QueryTable((ThresholdGE(0.1), Interval(-0.5, 1.5)), (1, 2))
    shifted = table.shifted(0.75)
    assert table.shifted(offset) is shifted and table.shifted(offset=offset) is shifted


# -- the point pass --------------------------------------------------------------

POINT_PASS_DISTS = [
    make_discrete([-1.0, 0.2, 0.7, 2.0, 3.0], [0.1, 0.3, 0.25, 0.15, 0.2]),
    make_point_mass(0.7),
    make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9),
    make_gaussian_budget_tight(2.0, 1.0, mu=0.77),
    make_pair_grid(1024.0, 1.0, 0.125).member(500, 1),
    # more atoms than any table below has points, some on the tables' points
    make_discrete(np.arange(-2500, 2500, 2) / 64, np.full(2500, 1 / 2500)),
    make_discrete([-0.0, 1.0], [0.5, 0.5]),  # -0.0 against the tables' 0.0
]
POINT_PASS_IDS = ["discrete", "point-mass", "pareto", "gaussian", "pair-member", "many-atoms",
                  "negative-zero"]
INFINITE_ENDS_TABLE = QueryTable(
    (Interval(-math.inf, 0.2), Interval(0.7, math.inf), Interval(-math.inf, math.inf),
     Interval(-math.inf, -math.inf), Interval(math.inf, math.inf), ThresholdLE(math.inf),
     ThresholdGE(-math.inf), ThresholdGT(math.inf), Interval(0.2, 0.2), Interval(-1.0, 3.0),
     UniformThreshold("le", -1.0, 3.0), ThresholdLT(0.2)),
    (1,) * 12)


def _point_pass_tables():
    refinement = build_plan(FamilyParams(1.5, 16.0, 1.0), 1 / 16, 0.1).table
    return [ALL_KINDS_TABLE, MIXED_TABLE, INFINITE_ENDS_TABLE, ALL_KINDS_TABLE.shifted(0.3),
            INFINITE_ENDS_TABLE.shifted(-0.25), refinement, refinement.shifted(0.7),
            refinement.shifted(-2.5), baseline_plan(64.0, 1.0, 0.125, 20000).table,
            baseline_plan(1024.0, 1.0, 0.125, 20000).table]


# each kind's public oracle on a column of its parameters
PER_KIND_ORACLES = {
    ThresholdGE: lambda dist, gamma: 1.0 - dist.cdf_strict(gamma),
    ThresholdGT: lambda dist, gamma: 1.0 - dist.cdf(gamma),
    ThresholdLE: lambda dist, gamma: dist.cdf(gamma),
    ThresholdLT: lambda dist, gamma: dist.cdf_strict(gamma),
    Interval: lambda dist, lo, hi: dist.prob_interval(lo, hi),
    GrayBit: channel._gray_probability,
    UniformThreshold: lambda dist, direction, lo, hi: uniform_threshold_probability(
        dist, direction[0], lo, hi),
}


def _per_kind_probabilities(dist, table):
    # each kind's oracle on its rows' columns, a uniform threshold's once per
    # direction, clamped: the pass the point pass replaces
    queries = table.queries
    p = np.empty(len(queries))
    groups = [(type(q), getattr(q, "direction", None)) for q in queries]
    for kind, direction in set(groups):
        rows = [j for j, group in enumerate(groups) if group == (kind, direction)]
        columns = {name: np.array([getattr(queries[j], name) for j in rows])
                   for name in channel._FIELDS[kind]}
        p[rows] = PER_KIND_ORACLES[kind](dist, **columns)
    return np.minimum(np.maximum(p, 0.0), 1.0)


@pytest.mark.parametrize("d", POINT_PASS_DISTS, ids=POINT_PASS_IDS)
def test_point_pass_equals_per_kind_oracles_bytewise(d):
    for table in _point_pass_tables():
        assert query_probabilities(d, table).tobytes() == \
            _per_kind_probabilities(d, table).tobytes()


@pytest.mark.parametrize("d", POINT_PASS_DISTS, ids=POINT_PASS_IDS)
def test_single_query_probability_equals_its_one_row_table(d):
    for table in (ALL_KINDS_TABLE, INFINITE_ENDS_TABLE, ALL_KINDS_TABLE.shifted(-1.1)):
        for q in table.queries:
            assert query_probability(d, q) == query_probabilities(d, QueryTable([q], [1]))[0]
    for gamma in np.linspace(-3.0, 3.0, 97).tolist() + [0.2, 0.7, -1.0]:
        for kind in (ThresholdGE, ThresholdGT, ThresholdLE, ThresholdLT):
            q = kind(gamma)
            assert query_probability(d, q) == query_probabilities(d, QueryTable([q], [1]))[0]


def _uniform_table(points):
    # one uniform threshold between each pair of neighbouring points,
    # alternating directions, so its points are exactly these
    size = points.size - 1
    return QueryTable.from_columns(UniformThreshold, np.ones(size, dtype=np.int64),
                                   direction=np.resize(["ge", "le"], size),
                                   lo=points[:-1], hi=points[1:])


@pytest.mark.parametrize("d", POINT_PASS_DISTS, ids=POINT_PASS_IDS)
def test_on_sorted_points_equal_public_oracles_bytewise(d):
    # on every table's points, and on sorted points with +-inf, 0.0 and each
    # atom among them, few and many, with the partial means and without
    atoms = d.points if isinstance(d, DiscreteMixture) else np.array([0.3])
    inputs = [table._points for table in _point_pass_tables()]
    for grid in (np.linspace(-3.0, 3.0, 13), np.linspace(-40.0, 40.0, 200_001)):
        inputs.append(np.unique(np.concatenate([[-math.inf, 0.0, math.inf], atoms, grid])))
    oracles = (d.cdf, d.cdf_strict, d.partial_mean, d.partial_mean_strict)
    for points in inputs:
        for means in (False, True):
            got = d._on_sorted(points, means)
            assert len(got) == 4
            for oracle, values in zip(oracles[:2], got[:2]):
                assert values.tobytes() == oracle(points).tobytes()
            if not means:
                assert got[2:] == (None, None)
                continue
            for oracle, values in zip(oracles[2:], got[2:]):
                assert values.tobytes() == oracle(points).tobytes()
    # a table of uniform thresholds on as many points as a mixture's CDF fill
    # takes reads the partial means as the per-kind oracles give them
    fill = FILL_POINTS_PER_ATOM * (atoms.size + 6)
    points = np.unique(np.concatenate([atoms, np.linspace(-40.0, 40.0, fill)]))
    table = _uniform_table(points)
    expected = np.empty(len(table))
    for side, direction in enumerate(("ge", "le")):
        expected[side::2] = uniform_threshold_probability(d, direction, points[:-1][side::2],
                                                          points[1:][side::2])
    expected = np.minimum(np.maximum(expected, 0.0), 1.0)  # as _per_kind_probabilities clamps
    assert query_probabilities(d, table).tobytes() == expected.tobytes()
    if isinstance(d, DiscreteMixture):  # both of its paths ran
        filled = {points.size >= fill for points in inputs + [table._points]}
        assert filled == {True, False}


ATOMLESS = {name: d for name, d in zip(POINT_PASS_IDS, POINT_PASS_DISTS)
            if not isinstance(d, DiscreteMixture)}


@pytest.mark.parametrize("d", ATOMLESS.values(), ids=ATOMLESS.keys())
def test_a_distribution_without_atoms_evaluates_each_oracle_once_per_pass(d, monkeypatch):
    calls = {"cdf": 0, "partial_mean": 0}
    for name in calls:
        oracle = getattr(type(d), name)

        def counted(self, x, oracle=oracle, name=name):
            calls[name] += 1
            return oracle(self, x)
        monkeypatch.setattr(type(d), name, counted)
    table = _uniform_table(np.linspace(-3.0, 3.0, 13))
    query_probabilities(d, table)
    assert calls == {"cdf": 1, "partial_mean": 1}
    query_probabilities(d, ALL_KINDS_TABLE.shifted(0.3))  # a Gray row calls cdf_strict too
    assert calls["partial_mean"] == 2


def test_table_points_are_sorted_and_distinct():
    # 0.0 and -0.0 are one point; the rows still equal the queries given
    queries = (ThresholdGE(0.0), ThresholdLE(-0.0), Interval(-0.0, 1.0), Interval(0.0, 1.0),
               UniformThreshold("ge", -0.0, 1.0), ThresholdGT(1.0), GrayBit(1, 1.0, 2.0))
    table = QueryTable(queries, (1,) * len(queries))
    assert table._points.tolist() == [0.0, 1.0]
    assert table.queries == queries


@pytest.mark.parametrize("offset,rule", [
    (math.nan, "threshold query needs a gamma that is not NaN"),
    (math.inf, "uniform threshold needs"),
    (-math.inf, "uniform threshold needs"),
    (2.0 ** 60, "uniform threshold needs"),  # 0.125 + c == 0.25 + c
    (1.7e308, "uniform threshold needs"),  # the largest point overflows
], ids=["nan", "inf", "-inf", "collapsing", "overflowing"])
def test_shifting_a_finite_table_rejects_what_from_columns_rejects(offset, rule):
    # every point finite and distinct: the rules are read only once a moved
    # point is not
    table = QueryTable((ThresholdGE(0.125), UniformThreshold("le", 0.125, 0.25),
                        ThresholdLT(1e300)), (1, 2, 3))
    with pytest.raises(ValueError, match=f"^{rule}.*, got row"):
        table.shifted(offset)
    assert table.shifted(2.0).queries == (ThresholdGE(2.125), UniformThreshold("le", 2.125, 2.25),
                                          ThresholdLT(1e300))
