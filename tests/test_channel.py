import math

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import (
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
    repeated_fraction,
    uniform_threshold_probability,
)
from bitmean.distributions import make_discrete, make_gaussian_budget_tight, \
    make_point_mass, make_two_sided_pareto
from bitmean.harness import trial_rng


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


def test_repeated_fraction_point_mass_and_accounting():
    agent = _agent(make_point_mass(0.0), seed=2)
    tr = Transcript()
    assert repeated_fraction(agent, ThresholdLE(0.0), 100, tr) == 1.0
    assert tr.total == 100
    repeated_fraction(agent, ThresholdGE(1.0), 5, tr)
    assert tr.total == 105


def test_repeated_fraction_converges_to_half():
    d = make_discrete([-1.0, 1.0], [0.5, 0.5])
    assert query_probability(d, ThresholdGE(0.0)) == approx(0.5, abs=1e-15)
    agent = _agent(d, seed=3)
    tr = Transcript()
    frac = repeated_fraction(agent, ThresholdGE(0.0), 40000, tr)
    assert frac == approx(0.5, abs=4 * math.sqrt(0.25 / 40000))


def test_rejects_zero_repetitions():
    agent = _agent(make_point_mass(0.0))
    with pytest.raises(ValueError):
        repeated_fraction(agent, ThresholdGE(0.0), 0, Transcript())


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
    assert all(name.startswith("respond") for name in public)
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
    for agent_type in (Agent, BitAgent):
        agent = agent_type(d, trial_rng(12, f"blocks/{agent_type.__name__}", 0))
        counts = agent.respond_count(q, blocks * n_block, groups=blocks)
        assert counts.dtype == np.int64 and counts.shape == (blocks,)
        assert float(np.mean(counts)) == approx(n_block * p, abs=4 * math.sqrt(var / blocks))
        assert float(np.var(counts, ddof=1)) == approx(var, abs=4 * var_se)


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
def test_indivisible_block_split_rejected(agent_type):
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    for groups in (3, 0):
        with pytest.raises(ValueError, match="equal blocks"):
            agent.respond_count(ThresholdGE(0.0), 10, groups=groups)


@pytest.mark.parametrize("make", [
    lambda: ThresholdGE(math.nan), lambda: ThresholdGT(math.nan),
    lambda: ThresholdLE(math.nan), lambda: ThresholdLT(math.nan),
    lambda: UniformThreshold("ge", -math.inf, 0.0), lambda: UniformThreshold("le", 0.0, math.inf),
    lambda: UniformThreshold("ge", math.nan, 1.0), lambda: UniformThreshold("le", 0.0, math.nan),
    lambda: GrayBit(1, math.nan, 1.0), lambda: GrayBit(2, 0.0, math.inf),
    lambda: GrayBit(1, -math.inf, 1.0), lambda: GrayBit(3, 0.0, math.nan),
], ids=["ge-nan", "gt-nan", "le-nan", "lt-nan", "uniform-lo-inf", "uniform-hi-inf",
        "uniform-lo-nan", "uniform-hi-nan", "gray-shift-nan", "gray-scale-inf",
        "gray-shift-inf", "gray-scale-nan"])
def test_queries_reject_non_finite_parameters(make):
    with pytest.raises(ValueError):
        make()


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
    p = query_probabilities(d, table.queries)
    assert p.tolist() == approx([query_probability(d, q) for q in table.queries], abs=1e-15)
    reps = np.array(table.reps)
    var = reps * p * (1 - p)
    excess_kurtosis = (1 - 6 * p * (1 - p)) / var
    var_se = var * np.sqrt(2 / (blocks - 1) + excess_kurtosis / blocks)
    for agent_type in (Agent, BitAgent):
        agent = agent_type(d, trial_rng(14, f"table/{agent_type.__name__}", 0))
        counts = agent.respond_count(table, blocks * table.per_block, groups=blocks)
        assert counts.dtype == np.int64 and counts.shape == (blocks, 4)
        mean, sample_var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        assert np.all(np.abs(mean - reps * p) <= 4 * np.sqrt(var / blocks))
        assert np.all(np.abs(sample_var - var) <= 4 * var_se)


@pytest.mark.parametrize("agent_type", [Agent, BitAgent])
def test_table_count_shapes_and_wrong_totals(agent_type):
    agent = agent_type(make_point_mass(0.0), trial_rng(0, "chan", 0))
    table = MIXED_TABLE
    one = agent.respond_count(table, table.per_block)
    assert one.dtype == np.int64 and one.shape == (4,)
    # at the atom 0: x >= 0.1 never, 0 in [-0.5, 1.5] always, u = 1/2 has Gray bit 1
    assert one[[0, 2, 3]].tolist() == [0, 40, 20] and 0 <= one[1] <= 30
    assert agent.respond_count(table, 3 * table.per_block, groups=3).shape == (3, 4)
    for n, groups in ((table.per_block + 1, None), (table.per_block, 2),
                      (2 * table.per_block, None), (0, 0)):
        with pytest.raises(ValueError):
            agent.respond_count(table, n, groups=groups)
    with pytest.raises(ValueError, match="int64"):  # numpy would raise OverflowError
        agent.respond_count(ThresholdGE(0.0), 2 ** 63)


@pytest.mark.parametrize("queries, reps", [
    ((), ()),
    ((ThresholdGE(0.0),), ()),
    ((ThresholdGE(0.0), ThresholdLE(0.0)), (1,)),
    ((ThresholdGE(0.0),), (0,)),
    ((ThresholdGE(0.0),), (-3,)),
    ((ThresholdGE(0.0),), (2.0,)),
    ((ThresholdGE(0.0),), (True,)),
    ((ThresholdGE(0.0),), (2 ** 63,)),
    ((0.5,), (1,)),
], ids=["empty", "no-reps", "short-reps", "zero-rep", "negative-rep", "float-rep",
        "bool-rep", "rep-beyond-int64", "not-a-query"])
def test_malformed_query_tables_rejected(queries, reps):
    with pytest.raises(ValueError):
        QueryTable(queries, reps)
