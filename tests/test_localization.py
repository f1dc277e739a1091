import math

import numpy as np
import pytest
from pytest import approx

from bitmean import channel
from bitmean.channel import MAX_GRAY_LEVEL, Agent, GrayBit, evaluate_query, \
    query_probabilities, query_probability
from bitmean.cli import main
from bitmean.distributions import FamilyParams, make_gaussian_budget_tight, \
    make_point_mass, make_two_sided_pareto
from bitmean.harness import ExperimentConfig, acceptance_matrix, run_localize, trial_rng
from bitmean.localization import (
    gray_bit_value,
    gray_change_points,
    gray_cost,
    gray_decode,
    gray_plan,
    localize_gray,
    localize_median,
    median_search_cost,
    median_search_levels,
    median_votes_per_level,
)
from bitmean.refine import build_plan
from bitmean.variants import two_stage_cost, two_stage_estimate


def test_gray_bit_values_from_definition():
    assert gray_bit_value(1, 0.3) == 0   # floor(0.6) = 0
    assert gray_bit_value(2, 0.3) == 1   # floor(1.2) = 1
    assert gray_bit_value(2, 0.8) == 0   # floor(3.2) = 3
    assert gray_bit_value(1, 0.5) == 1
    assert gray_bit_value(3, 1.0) == 0   # clamp then floor(8) mod 4 = 0


def test_gray_bit_clamps_outside_unit_interval():
    assert gray_bit_value(2, -3.0) == gray_bit_value(2, 0.0) == 0
    assert gray_bit_value(1, 7.0) == gray_bit_value(1, 1.0) == 1


def test_gray_bit_value_is_the_gray_bit_query():
    # one definition: the bit GrayBit(level, 0, 1) gives the sample x; a NaN
    # sample has no bit
    xs = [-math.inf, -1.0, -0.0, 0.0, 1 / 3, 0.5, 0.75, 1 - 2 ** -30, 1.0, 2.5, math.inf]
    xs += np.linspace(0.0, 1.0, 257).tolist()
    for level in range(1, 13):
        expected = evaluate_query(GrayBit(level, 0.0, 1.0), xs).tolist()
        assert [gray_bit_value(level, x) for x in xs] == expected
        assert all(type(gray_bit_value(level, x)) is int for x in xs[:3])
    with pytest.raises(ValueError, match="x must not be NaN"):
        gray_bit_value(3, math.nan)


def test_gray_change_points_disjoint_up_to_level_12():
    seen = set()
    for level in range(1, 13):
        points = gray_change_points(level)
        assert len(points) == 2 ** (level - 1)
        for p in points:
            key = float(p).as_integer_ratio()
            assert key not in seen
            seen.add(key)


def test_gray_decode_examples():
    assert gray_decode([0, 1]) == (0.25, 0.5)
    assert gray_decode([0]) == (0.0, 0.5)
    lo, hi = gray_decode([gray_bit_value(l, 0.37) for l in range(1, 7)])
    assert lo <= 0.37 <= hi
    assert hi - lo == approx(2.0 ** -6)


def test_gray_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        gray_decode([])
    with pytest.raises(ValueError):
        gray_decode([0, 2])
    for bits, bad in (([1.0, 0.0], "1.0"), ([1, 0.0], "0.0"), (["1"], "'1'"), ([None], "None")):
        with pytest.raises(ValueError, match=f"int or bool, got {bad} in"):
            gray_decode(bits)
    assert gray_decode([True, False]) == gray_decode([1, 0]) == gray_decode(np.array([1, 0]))


def test_gray_roundtrip_exact_on_fine_grid():
    m = 10
    denom = 2 ** (m + 2)
    for i in range(denom + 1):
        x = i / denom
        lo, hi = gray_decode([gray_bit_value(level, x) for level in range(1, m + 1)])
        assert lo <= x <= hi


def test_gray_roundtrip_random_points():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        x = float(rng.random())
        m = int(rng.integers(1, 13))
        lo, hi = gray_decode([gray_bit_value(level, x) for level in range(1, m + 1)])
        assert lo <= x <= hi
        assert hi - lo == approx(2.0 ** -m)


def test_gray_plan_formulas():
    plan = gray_plan(FamilyParams(2.0, 64.0, 1.0), 0.1)
    assert plan.n_bits == 4           # floor(6 - 1 - 1)
    assert plan.votes_per_bit == 36   # ceil(8 ln 80)
    assert plan.total_queries == 144
    plan15 = gray_plan(FamilyParams(1.5, 64.0, 1.0), 0.1)
    assert plan15.n_bits == math.floor(6.0 - 1.0 - 2.0 / 1.5)


def test_gray_plan_bypass_for_narrow_range():
    # lam/sigma below 2**(2 + 2/k) bypasses localization entirely
    params = FamilyParams(2.0, 4.0, 1.0)
    assert gray_plan(params, 0.1) is None
    assert gray_cost(params, 0.1) == 0
    agent = Agent(make_point_mass(0.5), trial_rng(0, "bypass", 0))
    res = localize_gray(agent, params, 0.1)
    assert (res.low, res.high) == (-4.0, 4.0)
    assert res.samples_used == 0


def test_localize_gray_point_mass_noiseless():
    params = FamilyParams(2.0, 64.0, 1.0)
    mu = (0.3 * 2 - 1) * 64.0  # rescaled mean lands at 0.3 on the unit interval
    dist = make_point_mass(mu)
    for trial in range(5):
        agent = Agent(dist, trial_rng(1, "graypm", trial))
        res = localize_gray(agent, params, 0.1)
        assert res.low <= mu <= res.high
        assert res.samples_used == agent.transcript.total == 144
        assert res.length <= 3.0 * 64.0 * 2.0 ** -4 + 1e-12


def test_localize_gray_plan_is_response_independent():
    plan = gray_plan(FamilyParams(2.0, 64.0, 1.0), 0.1)
    table = plan.table
    assert table.queries == tuple(GrayBit(level, -64.0, 128.0) for level in range(1, 5))
    assert table.reps.tolist() == [plan.votes_per_bit] * plan.n_bits
    assert table.per_block == plan.total_queries == 144
    again = gray_plan(FamilyParams(2.0, 64.0, 1.0), 0.1)
    assert again == plan
    assert again.table.queries == table.queries
    assert again.table.reps.tolist() == table.reps.tolist()


def test_gray_plan_is_built_once_and_its_probabilities_computed_once(monkeypatch):
    computed = []
    gray_probability = channel._gray_probability

    def counted(dist, level, shift, scale):
        computed.append(len(level))
        return gray_probability(dist, level, shift, scale)
    monkeypatch.setattr(channel, "_gray_probability", counted)
    params = FamilyParams(2.0, 1024.0, 1.0)
    dist = make_two_sided_pareto(2.0, 1.0, mu=3.7)
    gray_plan.cache_clear()
    for t in range(3):
        localize_gray(Agent(dist, trial_rng(7, "gray", t)), params, 0.1)
    assert gray_plan.cache_info().misses == 1
    assert computed == [gray_plan(params, 0.1).n_bits]  # one table, answered once
    assert two_stage_cost(params, 1 / 16, 0.1) > 0
    assert gray_plan.cache_info().misses == 1  # the cost reads the same plan


def test_run_localize_gray_same_text_on_cold_and_warm_plan():
    config = ExperimentConfig(method="gray", lam=1024.0, trials=5, seed=1)
    gray_plan.cache_clear()
    _, _, cold = run_localize(config)
    assert gray_plan.cache_info().misses == 1
    _, _, warm = run_localize(config)
    assert gray_plan.cache_info().misses == 1
    assert warm == cold


def test_a_kept_gray_plan_holds_float64_for_any_spelling_of_lam():
    # equal params share one kept plan, so its shift and scale must not keep
    # the type of whichever lam built it first
    gray_plan.cache_clear()
    first = gray_plan(FamilyParams(2.0, np.float32(1024.0), 1.0), 0.1)
    kept = gray_plan(FamilyParams(2.0, 1024.0, 1.0), 0.1)
    assert kept is first
    assert type(kept.shift) is float and type(kept.scale) is float
    assert (kept.shift, kept.scale) == (-1024.0, 2048.0)
    gray_plan.cache_clear()


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_gray_plan_table_probabilities_equal_per_level_loop(name):
    # bitwise: what keeps localize_gray's seeded answers when its M draws
    # became one draw of the plan's table
    fx = acceptance_matrix()[name]
    sigma = fx.params.sigma
    for ratio in (64, 1024):
        plan = gray_plan(FamilyParams(fx.params.k, ratio * sigma, sigma), 0.1)
        loop = [query_probability(fx.dist, GrayBit(level, plan.shift, plan.scale))
                for level in range(1, plan.n_bits + 1)]
        assert query_probabilities(fx.dist, plan.table).tobytes() == np.array(loop).tobytes()


class _CountingAgent(Agent):
    """Counts ``respond_count`` calls; with ``refuse`` set, answers none."""

    def __init__(self, dist, rng, refuse=False):
        super().__init__(dist, rng)
        self.calls, self.refuse = 0, refuse

    def respond_count(self, q, n):
        assert not self.refuse, "no query may be made"
        self.calls += 1
        return super().respond_count(q, n)


@pytest.mark.parametrize("lam", [64.0, 1024.0])
def test_non_adaptive_stages_are_one_draw_each(lam):
    params = FamilyParams(2.0, lam, 1.0)
    dist = make_gaussian_budget_tight(2.0, 1.0, 0.3)
    agent = _CountingAgent(dist, trial_rng(9, "draws", 0))
    localize_gray(agent, params, 0.1)
    assert agent.calls == 1
    agent = _CountingAgent(dist, trial_rng(9, "draws", 1))
    report = two_stage_estimate(agent, params, 0.25, 0.1)
    assert agent.calls == 2 == report.rounds_of_adaptivity
    assert agent.transcript.total == report.n_total == two_stage_cost(params, 0.25, 0.1)


def test_gray_depth_bound():
    # lam/sigma = 2^26 needs exactly MAX_GRAY_LEVEL levels at k = 2; 2^27 one more
    assert gray_plan(FamilyParams(2.0, 2.0 ** 26, 1.0), 0.1).n_bits == MAX_GRAY_LEVEL
    with pytest.raises(ValueError, match="lam/sigma"):
        gray_plan(FamilyParams(2.0, 2.0 ** 27, 1.0), 0.1)


@pytest.mark.parametrize("exponent", [40, 52])
def test_deep_gray_plans_refused_before_any_query(exponent, capsys):
    # only the refusal is exercised here: the oracle at these depths would
    # try to allocate 2^36 cells or more
    params = FamilyParams(2.0, 2.0 ** exponent, 1.0)
    dist = make_gaussian_budget_tight(2.0, 1.0, 0.3)
    for cost in (lambda: gray_cost(params, 0.1), lambda: two_stage_cost(params, 0.25, 0.1)):
        with pytest.raises(ValueError, match="lam/sigma"):
            cost()
    for run in (localize_gray, lambda agent, p, d: two_stage_estimate(agent, p, 0.25, d)):
        agent = _CountingAgent(dist, trial_rng(9, "deep", 0), refuse=True)
        with pytest.raises(ValueError, match="lam/sigma"):
            run(agent, params, 0.1)
        assert agent.transcript.total == 0
    assert main(["localize", "--method", "gray", "--fixture", "gauss_tight",
                 "--lambda", str(2.0 ** exponent), "--trials", "2"]) == 1
    assert "lam/sigma" in capsys.readouterr().err


def test_gray_encoding_error_bound():
    # per-bit flip probability is at most (sigma / (2 lam d_l))^k
    params = FamilyParams(1.5, 64.0, 1.0)
    dist = make_two_sided_pareto(1.5, 1.0, mu=11.17, alpha=1.9)
    plan = gray_plan(params, 0.1)
    mu_unit = (dist.mean() + params.lam) / (2 * params.lam)
    rng = trial_rng(2, "grayerr", 0)
    x = dist.sample(rng, 200_000)
    x_unit = (x + params.lam) / (2 * params.lam)
    for level in range(1, plan.n_bits + 1):
        d_l = float(np.min(np.abs(gray_change_points(level) - mu_unit)))
        target = gray_bit_value(level, mu_unit)
        flips = np.array([gray_bit_value(level, u) for u in x_unit[:50_000]]) != target
        rate = float(np.mean(flips))
        bound = (params.sigma / (2 * params.lam * d_l)) ** params.k
        stderr = math.sqrt(max(rate * (1 - rate), 1e-9) / flips.size)
        assert rate <= bound + 4 * stderr


def test_median_cost_formula_and_example():
    params = FamilyParams(2.0, 64.0, 1.0)
    assert median_search_levels(params) == 7
    r = median_votes_per_level(params, 0.1)
    assert r == math.ceil(math.log(8 * 7 / 0.1) / (2 * 0.03 ** 2))
    assert median_search_cost(params, 0.1) == 2 * 7 * r


def test_localize_median_point_mass_always_covered():
    params = FamilyParams(2.0, 64.0, 1.0)
    dist = make_point_mass(3.2)
    for trial in range(10):
        agent = Agent(dist, trial_rng(3, "medpm", trial))
        res = localize_median(agent, params, 0.1)
        assert res.low <= 3.2 <= res.high
        assert res.length <= 8.0 + 1e-12
        assert res.samples_used == agent.transcript.total == median_search_cost(params, 0.1)


def test_localize_median_cost_exact_for_random_parameters():
    rng = np.random.default_rng(9)
    for _ in range(8):
        k = float(rng.uniform(1.2, 3.5))
        sigma = float(rng.uniform(0.5, 3.0))
        lam = sigma * float(rng.uniform(1.0, 40.0))
        delta = float(rng.uniform(0.05, 0.3))
        params = FamilyParams(k, lam, sigma)
        agent = Agent(make_gaussian_budget_tight(k, sigma, mu=0.1 * lam),
                      trial_rng(4, "medcost", _))
        res = localize_median(agent, params, delta)
        assert res.samples_used == agent.transcript.total == median_search_cost(params, delta)


def test_localize_median_coverage_gaussian():
    # narrow Gaussian, lam/sigma = 64, delta = 0.2: coverage >= 0.90
    params = FamilyParams(2.0, 64.0, 1.0)
    from bitmean.distributions import Gaussian

    dist = Gaussian(mu=0.0, scale=0.5)
    covered = 0
    for trial in range(200):
        agent = Agent(dist, trial_rng(5, "medcov", trial))
        res = localize_median(agent, params, 0.2)
        covered += res.low <= 0.0 <= res.high
        assert res.length <= 8.0 + 1e-12
    assert covered / 200 >= 0.90


def test_localize_median_handles_edge_means():
    # mean at the very edge of the search range
    params = FamilyParams(2.0, 16.0, 1.0)
    for mu in (-16.0, 16.0, -15.3):
        dist = make_point_mass(mu)
        agent = Agent(dist, trial_rng(6, f"edge{mu}", 0))
        res = localize_median(agent, params, 0.1)
        assert res.low <= mu <= res.high


def test_delta_validation(capsys):
    params = FamilyParams(2.0, 8.0, 1.0)
    agent = Agent(make_point_mass(0.0), trial_rng(7, "val", 0))
    with pytest.raises(ValueError):
        localize_median(agent, params, 0.0)
    with pytest.raises(ValueError):
        gray_plan(params, 1.5)
    # outside (0, 1), NaN, or so small that a count sized by ln(1/delta) is
    # infinite: each is refused naming delta, before any query
    for delta in (2.0, math.nan, 1e-310, 5e-324):
        with pytest.raises(ValueError, match="delta"):
            median_search_cost(params, delta)
        with pytest.raises(ValueError, match="delta"):
            localize_median(agent, params, delta)
        assert agent.transcript.total == 0
    with pytest.raises(ValueError, match="delta"):
        build_plan(params, 0.25, 5e-324)
    with pytest.raises(ValueError, match="delta"):
        gray_plan(FamilyParams(2.0, 1024.0, 1.0), 5e-324)
    for argv in (["localize", "--delta", "1e-320"], ["anytime", "--delta", "nan"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "delta" in err \
            and "Traceback" not in err


@pytest.mark.parametrize("level", [True, 1.5, 0, MAX_GRAY_LEVEL + 1])
def test_gray_level_outside_gray_bit_rule_rejected(level):
    # the levels GrayBit refuses: a bool, a float, and ints outside 1..MAX_GRAY_LEVEL
    with pytest.raises(ValueError):
        GrayBit(level, 0.0, 1.0)
    with pytest.raises(ValueError, match="level"):
        gray_bit_value(level, 0.6)
    with pytest.raises(ValueError, match="level"):
        gray_change_points(level)
