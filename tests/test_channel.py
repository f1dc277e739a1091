import math

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import (
    Agent,
    GrayBit,
    Interval,
    ThresholdGE,
    ThresholdGT,
    ThresholdLE,
    ThresholdLT,
    Transcript,
    UniformThreshold,
    evaluate_query,
    query,
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
    tr = Transcript()
    for _ in range(10):
        assert query(agent, ThresholdGE(2.0), tr) == 1
        assert query(agent, Interval(4.0, 5.0), tr) == 0
    assert tr.total == 20


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
        tr = Transcript(record_entries=True)
        tr.begin_phase("probe")
        for i in range(50):
            query(agent, ThresholdGE(i * 0.1 - 2.0), tr)
        runs.append([bit for _, _, bit in tr.entries])
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


def test_learner_surface_exposes_no_samples():
    # structural check: no public attribute or method hands back sample values
    agent = _agent(make_point_mass(0.0))
    public = [name for name in dir(agent) if not name.startswith("_")]
    assert all(name.startswith("respond") for name in public)
    assert not hasattr(agent, "sample")
    assert not hasattr(agent, "distribution")


def test_transcript_entries_hold_queries_and_bits_only(tmp_path):
    agent = _agent(make_point_mass(1.0), seed=5)
    tr = Transcript(record_entries=True)
    tr.begin_phase("probe")
    query(agent, ThresholdGE(0.5), tr)
    query(agent, Interval(0.0, 2.0), tr)
    query(agent, GrayBit(1, -4.0, 8.0), tr)
    path = tmp_path / "dump.csv"
    tr.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "phase,query_kind,param1,param2,bit"
    assert len(lines) == 4
    assert lines[1].startswith("probe,threshold_ge,0.5")


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


def test_transcript_csv_names_every_kind(tmp_path):
    tr = Transcript(record_entries=True)
    for q in (ThresholdGT(1.0), ThresholdLT(1.0), UniformThreshold("le", 0.0, 2.0)):
        tr.record(q, 1)
    path = tmp_path / "kinds.csv"
    tr.write_csv(path)
    kinds = [line.split(",")[1] for line in path.read_text().splitlines()[1:]]
    assert kinds == ["threshold_gt", "threshold_lt", "uniform_threshold_le"]
    tr.record(object(), 0)
    with pytest.raises(TypeError, match="unknown query type"):
        tr.write_csv(path)


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
