import math

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import Agent, BitAgent, QueryTable, ThresholdGE, Transcript, \
    query_probabilities, query_probability
from bitmean.distributions import FamilyParams, make_discrete, make_gaussian_budget_tight, \
    make_point_mass, make_two_sided_pareto
from bitmean.hardness import make_pair_grid
from bitmean.harness import acceptance_matrix, trial_rng
from bitmean.refine import (
    Region,
    allocation_constant,
    analytic_base_variance,
    analytic_region_mean,
    analytic_region_probs,
    base_estimate,
    build_plan,
    cutoff_threshold,
    estimate_mean,
    estimate_region,
    predict_cost,
    query_table,
    region_queries,
    worst_case_tail_bound,
)
from bitmean.variants import two_stage_estimate


def test_cutoff_threshold_examples():
    assert cutoff_threshold(FamilyParams(2.0, 64.0, 1.0), 0.125) == 32.0
    assert cutoff_threshold(FamilyParams(1.5, 64.0, 1.0), 0.25) == 128.0
    assert cutoff_threshold(FamilyParams(3.0, 64.0, 1.0), 0.05) == 16.0


def test_cutoff_floor_is_sixteen_sigma():
    # generous eps still never drops below t = 16 sigma
    assert cutoff_threshold(FamilyParams(3.0, 64.0, 1.0), 3.9) == 16.0


def test_tail_bound_decreases_in_t():
    params = FamilyParams(1.7, 64.0, 1.0)
    values = [worst_case_tail_bound(params, 2.0 ** j) for j in range(4, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_build_plan_allocation_examples():
    plan = build_plan(FamilyParams(2.0, 64.0, 1.0), 1 / 8, 0.05)
    assert all(plan.n_by_magnitude[i] == 1024 for i in range(1, plan.i_max + 1))
    plan3 = build_plan(FamilyParams(3.0, 64.0, 1.0), 1 / 8, 0.05)
    assert [plan3.n_by_magnitude[i] for i in (1, 2, 3)] == [512, 256, 128]
    assert plan.batches == 30  # ceil(8 ln 40)


def test_build_plan_rejects_unknown_profile():
    with pytest.raises(ValueError, match="profile"):
        build_plan(FamilyParams(2.0, 64.0, 1.0), 0.25, 0.1, "fast")
    with pytest.raises(ValueError, match="profile"):
        allocation_constant("fast", 2.0)


def test_allocation_beyond_int64_rejected_by_plan_predictor_and_estimator():
    params = FamilyParams(2.0, 16.0, 1.0)
    with pytest.raises(ValueError, match="int64"):
        build_plan(params, 1e-9, 0.2)
    with pytest.raises(ValueError, match="int64"):
        predict_cost(params, 1e-9, 0.2)
    agent = Agent(make_point_mass(0.3), trial_rng(11, "int64", 0))
    tr = Transcript()
    with pytest.raises(ValueError, match="int64"):
        estimate_mean(agent, params, 1e-9, 0.2, transcript=tr)
    assert tr.total == 0  # rejected before localization spends a query
    tr = Transcript()
    with pytest.raises(ValueError, match="int64"):
        two_stage_estimate(agent, params, 1e-9, 0.2, transcript=tr)
    assert tr.total == 0
    # ten times that eps needs n_1 = 1.6e17, which fits
    assert predict_cost(params, 1e-8, 0.2).n_per_region[1] < 2 ** 63


def test_region_blocks_beyond_int64_in_total():
    # build_plan accepts n_i up to the int64 maximum; K blocks of it total more
    # than int64 holds, while each block's draw still fits
    n_i, batches = int(np.iinfo(np.int64).max), 19
    region = Region(index=1, inner=0.0, outer=2.0)
    agent = Agent(make_point_mass(1.0), trial_rng(11, "int64-blocks", 0))
    tr = Transcript()
    vals = estimate_region(agent, region, n_i, region_queries(region, 0.0),
                           batches=batches, transcript=tr)
    assert tr.total == 4 * batches * n_i > 2 ** 63
    assert vals.shape == (batches,)
    assert np.all(np.abs(vals - 1.0) < 1e-6)  # p_a = p_b = 1/2 at the cell midpoint
    # the same region as a table with one more query: K * per_block > int64
    table = QueryTable(region_queries(region, 0.0) + (ThresholdGE(3.0),), (n_i,) * 4 + (5,))
    counts = agent.respond_count(table, batches * table.per_block, groups=batches)
    assert batches * table.per_block > 2 ** 63 and counts.shape == (batches, 5)
    assert np.all(counts[:, [0, 2]] == n_i) and np.all(counts[:, 4] == 0)
    assert np.all(np.abs(counts[:, [1, 3]] / n_i - 0.5) < 1e-6)


def test_build_plan_rejects_eps_at_bypass_scale():
    with pytest.raises(ValueError, match="4 sigma"):
        build_plan(FamilyParams(2.0, 64.0, 1.0), 4.0, 0.1)


def test_regions_tile_the_clipped_range():
    plan = build_plan(FamilyParams(1.5, 64.0, 1.0), 0.25, 0.1)
    bounds = sorted(r.bounds for r in plan.regions)
    assert bounds[0][0] == -plan.t and bounds[-1][1] == plan.t
    for (a1, b1), (a2, b2) in zip(bounds, bounds[1:]):
        assert b1 == a2  # adjacent, no gaps or overlaps
    assert plan.i_max == round(math.log2(plan.t))
    assert plan.t >= 16.0


def test_proof_safe_constant_tracks_order():
    assert allocation_constant("proof-safe", 2.0) == 256 * (3 * 2 ** 6 + 2 ** 4)
    assert allocation_constant("proof-safe", 5.0) == allocation_constant("proof-safe", 3.0)
    assert allocation_constant("empirical", 1.5) == 16.0


def test_analytic_region_identity_example():
    # mass 0.3 at x = 1 inside [0, 2): p_a = p_b = 0.15, value 0.3
    dist = make_discrete([-3.0, 1.0], [0.7, 0.3])
    region = Region(index=1, inner=0.0, outer=2.0)
    p_a, p_b = analytic_region_probs(dist, 0.0, region)
    assert p_a == approx(0.15, abs=1e-14)
    assert p_b == approx(0.15, abs=1e-14)
    assert analytic_region_mean(dist, 0.0, region) == approx(0.3, abs=1e-14)


def test_analytic_region_mean_matches_restriction():
    dist = make_discrete([-1.3, 0.4, 1.1, 2.6], [0.2, 0.3, 0.3, 0.2])
    for index, inner, outer in [(1, 0.0, 2.0), (2, 2.0, 4.0), (-1, 0.0, 2.0)]:
        region = Region(index=index, inner=inner, outer=outer)
        lo, hi = region.bounds
        direct = sum(p * x for x, p in zip(dist.points, dist.probs) if lo <= x <= hi)
        assert analytic_region_mean(dist, 0.0, region) == approx(direct, abs=1e-14)


def test_estimate_region_point_mass_outside_is_zero():
    dist = make_point_mass(-5.0)
    region = Region(index=1, inner=0.0, outer=2.0)
    agent = Agent(dist, trial_rng(0, "regzero", 0))
    tr = Transcript()
    est = estimate_region(agent, region, 50, region_queries(region, 0.0), batches=5,
                          transcript=tr)
    assert est.tolist() == [0.0] * 5
    assert tr.total == 5 * 200


def test_estimate_region_unbiased_monte_carlo():
    dist = make_discrete([-3.0, 1.0], [0.7, 0.3])
    region = Region(index=1, inner=0.0, outer=2.0)
    agent = Agent(dist, trial_rng(1, "regmc", 0))
    queries = region_queries(region, 0.0)
    vals = estimate_region(agent, region, 50, queries, batches=10_000)
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert float(np.mean(vals)) == approx(0.3, abs=4 * stderr)


def test_estimate_region_bitwise_matches_fast_path_distribution():
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    region = Region(index=-1, inner=0.0, outer=2.0)
    rng = trial_rng(2, "regbw", 0)
    agent, bit_agent = Agent(dist, rng), BitAgent(dist, rng)
    queries = region_queries(region, 0.0)
    fast = estimate_region(agent, region, 80, queries, batches=4000)
    slow = estimate_region(bit_agent, region, 80, queries, batches=4000)
    se = math.sqrt(np.var(fast) / 4000 + np.var(slow) / 4000)
    assert float(np.mean(fast)) == approx(float(np.mean(slow)), abs=4 * se)
    assert float(np.var(fast, ddof=1)) == approx(
        float(np.var(slow, ddof=1)), rel=0.15)


def test_base_estimate_point_mass_at_center_is_exact():
    params = FamilyParams(2.0, 16.0, 1.0)
    plan = build_plan(params, 0.25, 0.2)
    dist = make_point_mass(1.5)
    agent = Agent(dist, trial_rng(3, "basepm", 0))
    assert base_estimate(agent, plan, 1.5, query_table(plan, 1.5), batches=5).tolist() == [1.5] * 5


def test_base_estimate_unbiased_for_pair_member():
    params = FamilyParams(2.0, 16.0, 1.0)
    plan = build_plan(params, 0.25, 0.2)
    dist = make_pair_grid(16.0, 1.0, 0.1).member(8, 1)
    center = 0.5
    expected = center + math.fsum(
        analytic_region_mean(dist, center, r) for r in plan.regions)
    agent = Agent(dist, trial_rng(4, "basemc", 0))
    table = query_table(plan, center)
    vals = base_estimate(agent, plan, center, table, batches=4000)
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert float(np.mean(vals)) == approx(expected, abs=4 * stderr)
    # truncation bias at this cutoff is zero for the two-point member,
    # so the analytic target is the true mean itself
    assert expected == approx(dist.mean(), abs=1e-12)


def test_estimate_mean_bypass_branch():
    params = FamilyParams(2.0, 16.0, 1.0)
    dist = make_point_mass(1.7)
    agent = Agent(dist, trial_rng(5, "bypass", 0))
    report = estimate_mean(agent, params, 4.0, 0.2)
    assert report.n_refinement == 0
    assert report.plan is None
    assert abs(report.mu_hat - 1.7) <= 4.0


def test_estimate_mean_pac_quick():
    params = FamilyParams(2.0, 16.0, 1.0)
    dist = make_pair_grid(16.0, 1.0, 0.1).member(9, 1)
    wins = 0
    for trial in range(100):
        agent = Agent(dist, trial_rng(6, "pacq", trial))
        report = estimate_mean(agent, params, 0.25, 0.2)
        wins += abs(report.mu_hat - dist.mean()) <= 0.25
    assert wins >= 80


def test_predict_cost_example_and_accounting():
    params = FamilyParams(2.0, 64.0, 1.0)
    cost = predict_cost(params, 1 / 8, 0.05)
    assert cost.refinement == 1_228_800
    assert cost.t == 32.0 and cost.i_max == 5 and cost.batches == 30

    dist = make_pair_grid(64.0, 1.0, 0.1).member(32, 1)
    agent = Agent(dist, trial_rng(7, "acct", 0))
    tr = Transcript()
    report = estimate_mean(agent, params, 1 / 8, 0.05, transcript=tr)
    full = predict_cost(params, 1 / 8, 0.05)
    assert report.n_total == tr.total == full.total
    assert report.n_localization == full.localization
    assert report.n_refinement == full.refinement


def test_predict_cost_eps_halving_ratio_heavy_tail():
    # k = 1.5: halving eps multiplies refinement by about 2^{k/(k-1)} = 8
    params = FamilyParams(1.5, 64.0, 1.0)
    ratios = []
    for eps in (1 / 16, 1 / 32, 1 / 64):
        a = predict_cost(params, eps, 0.1).refinement
        b = predict_cost(params, eps / 2, 0.1).refinement
        ratios.append(b / a)
    assert ratios[-1] == approx(8.0, rel=0.15)


@pytest.mark.parametrize("fixture", ["pareto15", "gauss_tight_k3"])
@pytest.mark.parametrize("offset", [0.0, 3.9])
def test_batch_variance_matches_analytic_base_variance(fixture, offset):
    # batches that shared draws would keep the mean but not this variance
    fx = acceptance_matrix()[fixture]
    sigma = fx.params.sigma
    plan = build_plan(fx.params, sigma / 4, 0.2)
    center = fx.mean + offset * sigma
    agent = Agent(fx.dist, trial_rng(13, f"basevar/{fixture}/{offset}", 0))
    n = 4000
    vals = base_estimate(agent, plan, center, query_table(plan, center), batches=n)
    s2 = float(np.var(vals, ddof=1))
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    se = math.sqrt((m4 - s2 ** 2 * (n - 3) / (n - 1)) / n)
    assert s2 == approx(analytic_base_variance(fx.dist, center, plan), abs=4 * se)


def test_variance_bound_holds_on_moment_saturating_fixture():
    # mass pushed far out until the second-moment budget binds: the harshest
    # shape for the allocation chain; proof-safe must still meet eps^2/16
    sigma, x = 1.0, 6.0
    p = sigma ** 2 / (2 * x ** 2)
    dist = make_discrete([-x, 0.0, x], [p, 1 - 2 * p, p])
    assert dist.abs_central_moment(2.0) == approx(sigma ** 2, abs=1e-15)
    params = FamilyParams(2.0, 16.0, sigma)
    eps = sigma / 4
    plan = build_plan(params, eps, 0.2, "proof-safe")
    agent = Agent(dist, trial_rng(9, "stressvar", 0))
    table = query_table(plan, 0.0)
    vals = base_estimate(agent, plan, 0.0, table, batches=2000)
    assert float(np.var(vals, ddof=1)) <= (eps ** 2 / 16) * 1.10


def test_estimate_mean_bitwise_end_to_end():
    params = FamilyParams(2.0, 16.0, 1.0)
    dist = make_pair_grid(16.0, 1.0, 0.1).member(9, 1)
    agent = BitAgent(dist, trial_rng(10, "bitwise_e2e", 0))
    tr = Transcript()
    report = estimate_mean(agent, params, 0.5, 0.2, transcript=tr)
    assert report.n_total == tr.total == predict_cost(params, 0.5, 0.2).total
    assert abs(report.mu_hat - dist.mean()) <= 0.5


def test_estimate_mean_validates_inputs():
    params = FamilyParams(2.0, 16.0, 1.0)
    agent = Agent(make_point_mass(0.0), trial_rng(8, "val", 0))
    with pytest.raises(ValueError):
        estimate_mean(agent, params, -1.0, 0.2)
    with pytest.raises(ValueError):
        estimate_mean(agent, params, 0.25, 1.2)


def test_estimate_mean_at_largest_lam_over_sigma_meets_eps():
    # lam/sigma = 2^52 is the largest ratio FamilyParams accepts
    params = FamilyParams(2.0, 2.0 ** 52, 1.0)
    dist = make_gaussian_budget_tight(2.0, 1.0, mu=0.77)
    agent = Agent(dist, trial_rng(12, "lam2^52", 0))
    tr = Transcript()
    report = estimate_mean(agent, params, 0.25, 0.2, transcript=tr)
    assert report.n_total == tr.total == predict_cost(params, 0.25, 0.2).total
    assert report.localization.length <= 8.0
    assert abs(report.mu_hat - dist.mean()) <= 0.25


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_table_probabilities_equal_per_query_loop(name):
    fx = acceptance_matrix()[name]
    sigma = fx.params.sigma
    for eps in (sigma / 4, sigma / 64):
        plan = build_plan(fx.params, eps, 0.2)
        for offset in (0.0, 3.9, -2.5):
            queries = query_table(plan, fx.mean + offset * sigma).queries
            p = query_probabilities(fx.dist, queries)
            assert p.shape == (len(queries),)
            np.testing.assert_allclose(p, [query_probability(fx.dist, q) for q in queries],
                                       rtol=0, atol=1e-15)
