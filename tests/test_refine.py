import math
from fractions import Fraction

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import Agent, BitAgent, QueryTable, ThresholdGE, ThresholdGT, \
    ThresholdLE, ThresholdLT, UniformThreshold, query_probabilities, query_probability
from bitmean.cli import main
from bitmean.distributions import FamilyParams, make_discrete, make_gaussian_budget_tight, \
    make_point_mass, make_two_sided_pareto
from bitmean.hardness import make_pair_grid
from bitmean.harness import acceptance_matrix, trial_rng
from bitmean.refine import (
    PlanSizeError,
    Region,
    _region_sums,
    _region_table,
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
    refinement_plan,
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


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("c", [1e-200, 1e200])
def test_predict_cost_is_scale_invariant(k, c):
    # the tail bound is computed from sigma / (t - 4 sigma), so no power of
    # sigma alone under- or overflows
    for eps in (1 / 4, 1 / 16, 1 / 64):
        base = predict_cost(FamilyParams(k, 16.0, 1.0), eps, 0.2)
        scaled = predict_cost(FamilyParams(k, 16.0 * c, c), eps * c, 0.2)
        assert (scaled.localization, scaled.refinement) == (base.localization, base.refinement)
        assert scaled.plan.i_max == base.plan.i_max
        assert scaled.plan.t == base.plan.t * c
        assert dict(scaled.plan.n_by_magnitude) == dict(base.plan.n_by_magnitude)
    params = FamilyParams(k, 16.0 * c, c)
    dist = make_gaussian_budget_tight(k, c, mu=0.3 * c)
    report = estimate_mean(Agent(dist, trial_rng(15, "scale", 0)), params, c / 4, 0.2)
    assert report.n_total == predict_cost(params, c / 4, 0.2).total
    assert math.isfinite(report.mu_hat)


def test_build_plan_allocation_examples():
    plan = build_plan(FamilyParams(2.0, 64.0, 1.0), 1 / 8, 0.05)
    assert all(plan.n_by_magnitude[i] == 1024 for i in range(1, plan.i_max + 1))
    plan3 = build_plan(FamilyParams(3.0, 64.0, 1.0), 1 / 8, 0.05)
    assert [plan3.n_by_magnitude[i] for i in (1, 2, 3)] == [512, 256, 128]
    assert plan.batches == 30  # ceil(8 ln 40)


def test_build_plan_builds_each_plan_once_and_read_only():
    params = FamilyParams(1.5, 64.0, 1.0)
    plan = build_plan(params, 1 / 16, 0.1)
    assert build_plan(FamilyParams(1.5, 64.0, 1.0), 1 / 16, 0.1) is plan
    assert refinement_plan(params, 1 / 16, 0.1) is plan
    assert build_plan(params, 1 / 16, 0.1, "proof-safe") is not plan
    with pytest.raises(TypeError):
        plan.n_by_magnitude[1] = 5
    for column in (plan.weights, plan.table.reps):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert not plan.table._points.flags.writeable
    for _, rows, at, values in plan.table._blocks:
        assert not any(array.flags.writeable for array in (rows, *at.values(), *values.values()))
    assert plan.samples_per_batch == sum(4 * plan.n_by_magnitude[abs(region.index)]
                                         for region in plan.regions)
    # the derived table and columns take no part in ==
    build_plan.cache_clear()
    rebuilt = build_plan(params, 1 / 16, 0.1)
    assert rebuilt is not plan and rebuilt == plan


@pytest.mark.parametrize("delta,batches", [(0.1, 24), (0.2, 19)])
def test_refinement_takes_the_median_of_even_and_odd_batch_counts(delta, batches):
    fx = acceptance_matrix()["pareto15"]
    report = estimate_mean(Agent(fx.dist, trial_rng(14, "median", 0)), fx.params, 0.25, delta)
    assert len(report.batch_values) == batches
    assert report.mu_hat == float(np.median(report.batch_values))


def test_build_plan_rejects_unknown_profile():
    with pytest.raises(ValueError, match="profile"):
        build_plan(FamilyParams(2.0, 64.0, 1.0), 0.25, 0.1, "fast")
    with pytest.raises(ValueError, match="profile"):
        allocation_constant("fast", 2.0)


def test_allocation_beyond_int64_rejected_by_plan_predictor_and_estimator(capsys):
    params = FamilyParams(2.0, 16.0, 1.0)
    agent = Agent(make_point_mass(0.3), trial_rng(11, "int64", 0))
    # at 1e-160 and below (sigma/eps)^2 leaves float64, so n_1 is checked, in
    # logs, before the cutoff search
    for eps in (1e-9, 1e-150, 1e-160, 1e-300):
        with pytest.raises(ValueError, match="int64"):
            build_plan(params, eps, 0.2)
        with pytest.raises(ValueError, match="int64"):
            predict_cost(params, eps, 0.2)
        with pytest.raises(ValueError, match="int64"):
            estimate_mean(agent, params, eps, 0.2)
        assert agent.transcript.total == 0  # rejected before localization spends a query
        with pytest.raises(ValueError, match="int64"):
            two_stage_estimate(agent, params, eps, 0.2)
        assert agent.transcript.total == 0
    assert main(["pac", "--eps", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "int64" in err and "Traceback" not in err
    # eps = 1e-8 needs n_1 = 1.6e17, which fits
    assert predict_cost(params, 1e-8, 0.2).plan.n_by_magnitude[1] < 2 ** 63


def test_cutoff_beyond_float64_rejected_by_plan_predictor_and_estimator(capsys):
    # at k = 1.01 the tail bound reaches eps/2 = 5e-4 only near t = 2000^100,
    # so the cutoff search leaves float64; n_1 ~ 3.2e7 alone would fit in int64
    params = FamilyParams(1.01, 16.0, 1.0)
    assert cutoff_threshold(params, 1e-3) == math.inf
    agent = Agent(make_point_mass(0.3), trial_rng(11, "float64", 0))
    for run in (lambda: build_plan(params, 1e-3, 0.2), lambda: predict_cost(params, 1e-3, 0.2),
                lambda: estimate_mean(agent, params, 1e-3, 0.2)):
        with pytest.raises(PlanSizeError, match="beyond int64"):
            run()
    assert agent.transcript.total == 0  # rejected before localization spends a query
    assert main(["scaling", "--k", "1.01", "--eps-list", "0.001", "0.0005"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


def test_region_blocks_beyond_int64_in_total():
    # build_plan accepts n_i up to the int64 maximum; K blocks of it total more
    # than int64 holds, while each block's draw still fits
    n_i, batches = int(np.iinfo(np.int64).max), 19
    region = Region(index=1, inner=0.0, outer=2.0)
    agent = Agent(make_point_mass(1.0), trial_rng(11, "int64-blocks", 0))
    vals = estimate_region(agent, region, n_i, 0.0, batches=batches)
    assert agent.transcript.total == 4 * batches * n_i > 2 ** 63
    assert vals.shape == (batches,)
    assert np.all(np.abs(vals - 1.0) < 1e-6)  # p_a = p_b = 1/2 at the cell midpoint
    # the same region as a table with one more query: K * per_block > int64
    table = QueryTable(_region_table((region,), (1,), 0.0).queries + (ThresholdGE(3.0),),
                       (n_i,) * 4 + (5,))
    counts = agent.respond_count(table, batches * table.per_block)
    assert batches * table.per_block > 2 ** 63 and counts.shape == (batches, 5)
    assert np.all(counts[:, [0, 2]] == n_i) and np.all(counts[:, 4] == 0)
    assert np.all(np.abs(counts[:, [1, 3]] / n_i - 0.5) < 1e-6)


def test_build_plan_rejects_eps_at_bypass_scale():
    with pytest.raises(ValueError, match="4 sigma"):
        build_plan(FamilyParams(2.0, 64.0, 1.0), 4.0, 0.1)


@pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_eps_is_refused_before_any_query(eps):
    # inf would otherwise pass as the bypass scale eps >= 4 sigma, which refines nothing
    params = FamilyParams(2.0, 16.0, 1.0)
    with pytest.raises(ValueError, match="eps must be finite"):
        refinement_plan(params, eps, 0.1)
    with pytest.raises(ValueError, match="eps must be finite"):
        predict_cost(params, eps, 0.1)
    agent = Agent(make_point_mass(0.5), trial_rng(1, "eps", 0))
    with pytest.raises(ValueError, match="eps must be finite"):
        estimate_mean(agent, params, eps, 0.1)
    assert agent.transcript.total == 0


def test_eps_beyond_float64_is_refused():
    with pytest.raises(ValueError, match="eps is an int of .* beyond float64"):
        predict_cost(FamilyParams(2.0, 16.0, 1.0), 10 ** 400, 0.1)


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
    est = estimate_region(agent, region, 50, 0.0, batches=5)
    assert est.tolist() == [0.0] * 5
    assert agent.transcript.total == 5 * 200
    for n in (0, True, 2.5):  # the table's reps rule refuses each, before a draw
        with pytest.raises(ValueError):
            estimate_region(agent, region, n, 0.0, batches=5)
    assert agent.transcript.total == 5 * 200


def test_estimate_region_unbiased_monte_carlo():
    dist = make_discrete([-3.0, 1.0], [0.7, 0.3])
    region = Region(index=1, inner=0.0, outer=2.0)
    agent = Agent(dist, trial_rng(1, "regmc", 0))
    vals = estimate_region(agent, region, 50, 0.0, batches=10_000)
    stderr = float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    assert float(np.mean(vals)) == approx(0.3, abs=4 * stderr)


def test_estimate_region_bitwise_matches_fast_path_distribution():
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    region = Region(index=-1, inner=0.0, outer=2.0)
    rng = trial_rng(2, "regbw", 0)
    agent, bit_agent = Agent(dist, rng), BitAgent(dist, rng)
    fast = estimate_region(agent, region, 80, 0.0, batches=4000)
    slow = estimate_region(bit_agent, region, 80, 0.0, batches=4000)
    se = math.sqrt(np.var(fast) / 4000 + np.var(slow) / 4000)
    assert float(np.mean(fast)) == approx(float(np.mean(slow)), abs=4 * se)
    assert float(np.var(fast, ddof=1)) == approx(
        float(np.var(slow, ddof=1)), rel=0.15)


def test_base_estimate_point_mass_at_center_is_exact():
    params = FamilyParams(2.0, 16.0, 1.0)
    plan = build_plan(params, 0.25, 0.2)
    dist = make_point_mass(1.5)
    agent = Agent(dist, trial_rng(3, "basepm", 0))
    assert base_estimate(agent, plan, 1.5, batches=5).tolist() == [1.5] * 5


class _RecordingAgent(Agent):
    """Keeps every count ``respond_count`` returns."""

    def __init__(self, dist, rng):
        super().__init__(dist, rng)
        self.answers = []

    def respond_count(self, q, n):
        counts = super().respond_count(q, n)
        self.answers.append(counts)
        return counts


def test_round_is_region_weights_on_exact_count_differences():
    # Each batch value against the same counts in exact rational arithmetic,
    # sum_i sign_i (a_i (C1 - C2) + b_i (C3 - C4)) / n_i.  The differences are
    # exact ints and each term takes at most R + 2 roundings (its weight, the
    # product, R - 1 additions in its dot product, the final sum), so the
    # error is at most (R + 2) u sum_i |term_i|, u = 2^-53.  On these streams
    # the round's worst error is 1.3e-16 with sum |term_i| ~0.76 (bound
    # ~5e-15); dividing each count by n_i first, then differencing, erred by
    # up to 5.2e-14 on the same counts.
    fixture = acceptance_matrix()["pareto15"]
    plan = build_plan(fixture.params, fixture.params.sigma / 64, 0.05)
    regions, reps, batches = plan.regions, plan.table.reps[::4].tolist(), plan.batches
    unit = 2.0 ** -53
    for seed in range(3):
        agent = _RecordingAgent(fixture.dist, trial_rng(seed, "exact-round", 0))
        values = _region_sums(agent, plan.table, plan.weights, batches).tolist()
        (counts,) = agent.answers
        c = counts.T.reshape(len(regions), 4, batches).tolist()
        for k, value in enumerate(values):
            terms = [Fraction(region.sign) * (Fraction(region.inner) * (c[i][0][k] - c[i][1][k])
                                              + Fraction(region.outer) * (c[i][2][k] - c[i][3][k]))
                     / n for i, (region, n) in enumerate(zip(regions, reps))]
            bound = (len(regions) + 2) * unit * float(sum(map(abs, terms)))
            assert abs(float(Fraction(value) - sum(terms))) <= bound, (seed, k)


def test_round_arithmetic_reads_counts_in_either_layout(monkeypatch):
    # the Agent's (K, Q) counts are the transpose of its query-major draw, the
    # bit-level agent's are C-ordered; the round combines either alike, up to
    # the order in which numpy sums the regions
    plan = build_plan(FamilyParams(1.5, 16.0, 1.0), 1 / 16, 0.2)
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    expected = base_estimate(Agent(dist, trial_rng(5, "layout", 0)), plan, 0.3, plan.batches)
    draw = Agent._counts
    monkeypatch.setattr(Agent, "_counts",
                        lambda self, *args: np.ascontiguousarray(draw(self, *args)))
    got = base_estimate(Agent(dist, trial_rng(5, "layout", 0)), plan, 0.3, plan.batches)
    assert got.tolist() == approx(expected.tolist(), rel=1e-12, abs=1e-12)


def test_base_estimate_unbiased_for_pair_member():
    params = FamilyParams(2.0, 16.0, 1.0)
    plan = build_plan(params, 0.25, 0.2)
    dist = make_pair_grid(16.0, 1.0, 0.1).member(8, 1)
    center = 0.5
    expected = center + math.fsum(
        analytic_region_mean(dist, center, r) for r in plan.regions)
    agent = Agent(dist, trial_rng(4, "basemc", 0))
    vals = base_estimate(agent, plan, center, batches=4000)
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
    assert cost.plan.t == 32.0 and cost.plan.i_max == 5 and cost.plan.batches == 30

    dist = make_pair_grid(64.0, 1.0, 0.1).member(32, 1)
    agent = Agent(dist, trial_rng(7, "acct", 0))
    report = estimate_mean(agent, params, 1 / 8, 0.05)
    full = predict_cost(params, 1 / 8, 0.05)
    assert report.n_total == agent.transcript.total == full.total
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
    vals = base_estimate(agent, plan, center, batches=n)
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
    vals = base_estimate(agent, plan, 0.0, batches=2000)
    assert float(np.var(vals, ddof=1)) <= (eps ** 2 / 16) * 1.10


def test_estimate_mean_bitwise_end_to_end():
    params = FamilyParams(2.0, 16.0, 1.0)
    dist = make_pair_grid(16.0, 1.0, 0.1).member(9, 1)
    agent = BitAgent(dist, trial_rng(10, "bitwise_e2e", 0))
    report = estimate_mean(agent, params, 0.5, 0.2)
    assert report.n_total == agent.transcript.total == predict_cost(params, 0.5, 0.2).total
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
    report = estimate_mean(agent, params, 0.25, 0.2)
    assert report.n_total == agent.transcript.total == predict_cost(params, 0.25, 0.2).total
    assert report.localization.length <= 8.0
    assert abs(report.mu_hat - dist.mean()) <= 0.25


def _loop_region_queries(region, center):
    # the per-region query list, one query value at a time: the reference
    # the array-built refinement table is held to
    a, b = region.inner, region.outer
    if region.index > 0:
        lo, hi = center + a, center + b
        near = ThresholdGE(lo) if region.index == 1 else ThresholdGT(lo)
        return near, UniformThreshold("ge", lo, hi), ThresholdLE(hi), \
            UniformThreshold("le", lo, hi)
    lo, hi = center - b, center - a
    near = ThresholdLE(hi) if region.index == -1 else ThresholdLT(hi)
    return near, UniformThreshold("le", lo, hi), ThresholdGE(lo), UniformThreshold("ge", lo, hi)


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_table_probabilities_equal_per_query_loop(name):
    fx = acceptance_matrix()[name]
    sigma = fx.params.sigma
    for eps in (sigma / 4, sigma / 64):
        plan = build_plan(fx.params, eps, 0.2)
        for offset in (0.0, 3.9, -2.5):
            center = fx.mean + offset * sigma
            table = plan.table.shifted(center)
            queries = table.queries
            assert queries == tuple(q for region in plan.regions
                                    for q in _loop_region_queries(region, center))
            assert table.reps.tolist() == [plan.n_by_magnitude[abs(region.index)]
                                           for region in plan.regions for _ in range(4)]
            p = query_probabilities(fx.dist, QueryTable(queries, table.reps))
            assert p.tolist() == query_probabilities(fx.dist, table).tolist()
            assert p.shape == (len(queries),)
            np.testing.assert_allclose(p, [query_probability(fx.dist, q) for q in queries],
                                       rtol=0, atol=1e-15)
