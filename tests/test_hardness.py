import math

import numpy as np
import pytest
from pytest import approx

from bitmean import hardness
from bitmean.channel import Agent, Interval, QueryTable
from bitmean.distributions import FamilyParams, validate_family
from bitmean.hardness import (
    MAX_BASELINE_LAM_OVER_SIGMA,
    MAX_PAIR_GRID_LAM_OVER_SIGMA,
    baseline_plan,
    baseline_query_plan,
    bernoulli_kl,
    make_k2_pair,
    make_pair_grid,
    nonadaptive_baseline,
    verify_kl_bound,
)
from bitmean.harness import trial_rng


def test_pair_grid_geometry():
    grid = make_pair_grid(4.0, 1.0, 0.1)
    assert grid.n_pairs == 3
    assert [grid.center(j) for j in (1, 2, 3)] == [-2.0, 0.0, 2.0]


def test_pair_grid_member_masses_and_mean():
    grid = make_pair_grid(4.0, 1.0, 0.1)
    plus = grid.member(2, 1)
    assert dict(zip(plus.points, plus.probs)) == approx({-0.5: 0.4, 0.5: 0.6})
    assert plus.mean() == approx(0.1, abs=1e-15)
    minus = grid.member(2, -1)
    assert minus.mean() == approx(-0.1, abs=1e-15)


def test_pair_grid_members_bounded_deviation():
    # |X - mean| < sigma always, so the k-th central moment is below sigma^k
    # for every order
    grid = make_pair_grid(8.0, 1.0, 0.2)
    for j, sign, dist in grid.members():
        spread = np.max(np.abs(dist.points - dist.mean()))
        assert spread < 1.0
        for k in (1.1, 2.0, 3.0):
            assert dist.abs_central_moment(k) <= 1.0


def test_pair_grid_members_pass_family_validation():
    grid = make_pair_grid(8.0, 1.0, 0.1)
    for k in (1.2, 2.0, 3.0, 5.0):
        params = FamilyParams(k, 8.0, 1.0)
        assert all(validate_family(dist, params).is_member
                   for _, _, dist in grid.members())


def test_pair_grid_rejects_large_shift():
    with pytest.raises(ValueError):
        make_pair_grid(4.0, 1.0, 0.5)


@pytest.mark.parametrize("lam, sigma, name", [(10 ** 400, 1, "lam"), (16, 10 ** 400, "sigma")],
                         ids=["lam", "sigma"])
def test_pair_grid_rejects_ints_beyond_float64(lam, sigma, name):
    with pytest.raises(ValueError, match=f"{name} is an int of .* beyond float64"):
        make_pair_grid(lam, sigma, 0.1)


def test_pair_grid_index_validation():
    grid = make_pair_grid(4.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        grid.member(0, 1)
    with pytest.raises(ValueError):
        grid.member(1, 2)
    # a bool is not an int here, nor is a float equal to one
    for pair_index, sign in ((True, 1), (2, True), (2, False), (2.0, 1), (np.float64(2), 1),
                             (2, 1.0), (2, -1.0), ("2", 1), (None, 1), (2, None)):
        with pytest.raises(ValueError, match="must be"):
            grid.member(pair_index, sign)
    assert grid.member(np.int64(2), np.int64(-1)).mean() == approx(grid.member(2, -1).mean())


def test_k2_pair_construction_example():
    pair = make_k2_pair(1.0, 1 / 48)
    assert pair.n_levels == 2
    assert pair.null_masses == (1 / 16, 1 / 64)
    assert pair.shift_masses == (1 / 64, 1 / 128)
    origin = pair.null.probs[int(np.searchsorted(pair.null.points, 0.0))]
    assert origin == approx(27 / 32, abs=1e-15)
    assert pair.null.abs_central_moment(2.0) == approx(1.0, abs=1e-12)
    assert pair.null.mean() == approx(0.0, abs=1e-15)
    assert pair.mixture.mean() == approx(1 / 16, abs=1e-14)


def test_k2_pair_component_means():
    pair = make_k2_pair(1.0, 1 / 48)
    for comp in pair.components:
        assert comp.mean() == approx(3 / 48, abs=1e-14)
        assert comp.abs_central_moment(2.0) <= 1.0 + 1e-12


def test_k2_pair_mixture_equals_uniform_component_draw():
    pair = make_k2_pair(1.0, 1 / 48)
    rng = trial_rng(0, "k2mix", 0)
    n = 400_000
    picks = rng.integers(0, pair.n_levels, size=n)
    samples = np.concatenate([
        pair.components[j].sample(rng, int(np.sum(picks == j)))
        for j in range(pair.n_levels)
    ])
    stderr = float(np.std(samples)) / math.sqrt(n)
    assert float(np.mean(samples)) == approx(3 / 48, abs=4 * stderr)


def test_k2_pair_rejects_oversized_shift():
    with pytest.raises(ValueError, match="grid would be empty"):
        make_k2_pair(1.0, 0.2)
    with pytest.raises(ValueError, match="exceeds lam"):
        make_k2_pair(1.0, 1 / 48, lam=0.05)


@pytest.mark.parametrize("args,message", [
    ((math.inf, 0.1), "sigma=inf"),
    ((math.nan, 0.1), "sigma=nan"),
    ((1.0, math.inf), "eps=inf"),
    ((1.0, math.nan), "eps=nan"),
    ((1.0, 1 / 48, math.nan), "lam=nan"),
    ((1.0, 1 / 48, math.inf), "lam=inf"),
    ((1.0, 1 / 48, -math.inf), "lam=-inf"),
], ids=["sigma-inf", "sigma-nan", "eps-inf", "eps-nan", "lam-nan", "lam-inf", "lam-minus-inf"])
def test_k2_pair_rejects_non_finite_inputs(args, message):
    with pytest.raises(ValueError, match=f"must be finite, got {message}$"):
        make_k2_pair(*args)


def test_kl_bound_value_and_exhaustive_pass():
    pair = make_k2_pair(1.0, 1 / 48)
    res = verify_kl_bound(pair)
    assert res.bound == approx(36 / (2 * 48 ** 2), abs=1e-18)
    assert res.n_subsets == 2 ** (2 * pair.n_levels)
    assert res.all_within_bound


@pytest.mark.parametrize("eps", [1 / 12, 1 / 48, 1 / 192])
def test_kl_bound_across_grid_sizes(eps):
    pair = make_k2_pair(1.0, eps)
    assert pair.n_levels == int(math.floor(0.5 * math.log2(1.0 / (3 * eps))))
    res = verify_kl_bound(pair)
    assert res.all_within_bound


def test_kl_empty_set_and_label_swap():
    assert bernoulli_kl(0.0, 0.0) == 0.0
    p, q = 0.3, 0.2
    assert bernoulli_kl(p, q) == approx(bernoulli_kl(1 - p, 1 - q), rel=1e-12)
    with pytest.raises(ValueError):
        bernoulli_kl(1.2, 0.5)


def test_kl_enumeration_cap():
    pair = make_k2_pair(1.0, 2.0 ** -20 / 3.0)
    assert pair.n_levels > 8
    with pytest.raises(ValueError, match="capped"):
        verify_kl_bound(pair)


def test_baseline_plan_is_pure_and_budgeted():
    plan1 = baseline_query_plan(4.0, 1.0, 0.1, 60)
    plan2 = baseline_query_plan(4.0, 1.0, 0.1, 60)
    assert plan1 == plan2
    assert len(plan1) == 6  # 2N slots
    assert sum(m for _, _, _, m in plan1) == 60
    kinds = {kind for _, kind, _, _ in plan1}
    assert kinds == {"presence", "sign"}


def test_baseline_minimal_budget_runs():
    grid = make_pair_grid(4.0, 1.0, 0.1)
    dist = grid.member(2, 1)
    agent = Agent(dist, trial_rng(1, "base6", 0))
    est = nonadaptive_baseline(agent, 4.0, 1.0, 0.1, 6)
    assert est.samples_used == 6


def test_baseline_rejects_budget_below_slots():
    agent = Agent(make_pair_grid(4.0, 1.0, 0.1).member(1, 1), trial_rng(2, "b", 0))
    with pytest.raises(ValueError):
        nonadaptive_baseline(agent, 4.0, 1.0, 0.1, 5)


def test_baseline_consistent_with_large_budget():
    grid = make_pair_grid(16.0, 1.0, 0.1)
    for trial in range(20):
        rng = trial_rng(3, "haste", trial)
        j = int(rng.integers(1, grid.n_pairs + 1))
        sign = 1 if rng.random() < 0.5 else -1
        dist = grid.member(j, sign)
        agent = Agent(dist, rng)
        est = nonadaptive_baseline(agent, 16.0, 1.0, 0.1, 60_000)
        assert est.pair_index == j
        assert est.sign == sign
        assert abs(est.mu_hat - dist.mean()) <= 1e-12


class _ScriptedAgent(Agent):
    """Answers the baseline's table (lam = 64, sigma = 1: 63 pairs, 126 rows)
    with the given one-block counts, or records the counts it draws."""

    def __init__(self, ones=None, dist=None, rng=None):
        super().__init__(dist or make_pair_grid(64.0, 1.0, 0.125).member(1, 1),
                         rng or trial_rng(0, "scripted", 0))
        self.ones = ones

    def _counts(self, q, times):
        if self.ones is None:
            self.ones = super()._counts(q, times)[0]
        return np.asarray(self.ones, dtype=np.int64)[None, :]


def _decide(per_slot, ones=None, agent=None):
    agent = agent or _ScriptedAgent(ones)
    est = nonadaptive_baseline(agent, 64.0, 1.0, 0.125, 126 * per_slot)
    return est.pair_index, est.sign


def _fraction_rule(ones, per_slot):
    # the decision on float fractions the count rule replaced
    frac = ones / np.full(len(ones), per_slot)
    j = int(np.argmax(frac[0::2])) + 1
    return j, 1 if frac[1::2][j - 1] >= 0.5 else -1


def test_baseline_decides_on_exact_counts():
    ones = np.zeros(126, dtype=np.int64)
    ones[8:10] = 10, 5  # pair 5: all present, the sign interval exactly half
    assert _decide(10, ones) == (5, 1)
    ones[8:10] = 11, 5  # per_slot odd: (per_slot - 1) / 2 is below half
    assert _decide(11, ones) == (5, -1)
    ones[8:10] = 11, 6
    assert _decide(11, ones) == (5, 1)
    ones[:] = 0
    ones[[4, 12, 13]] = 7  # pairs 3 and 7 tie on presence: the first wins
    assert _decide(11, ones) == (3, -1)
    # beyond 2^53 a float fraction rounds (2^53 + 1 - 1) / 2 of 2^53 + 1 up to
    # 1/2; the counts still say below half
    big = 2 ** 53 + 1
    ones[:] = 0
    ones[8:10] = big, big // 2
    assert _fraction_rule(ones, big) == (5, 1) and _decide(big, ones) == (5, -1)


@pytest.mark.parametrize("per_slot", [1, 2, 3, 10, 11, 20_000 // 126])
def test_baseline_count_rule_equals_fraction_rule(per_slot):
    grid = make_pair_grid(64.0, 1.0, 0.125)
    for trial in range(40):
        rng = trial_rng(12, "baseline-rule", trial)
        ones = rng.integers(0, per_slot + 1, size=126)  # ties at small per_slot
        assert _decide(per_slot, ones) == _fraction_rule(ones, per_slot)
        member = grid.member(int(rng.integers(1, 64)), 1 if rng.random() < 0.5 else -1)
        drawing = _ScriptedAgent(dist=member, rng=rng)
        assert _decide(per_slot, agent=drawing) == _fraction_rule(drawing.ones, per_slot)


@pytest.mark.parametrize("sigma", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("lam", [4.0, 77.3, 1000.5, 2.0 ** 10, 2.0 ** 16])
def test_pair_grid_centers_equal_per_pair_loop(lam, sigma):
    grid = make_pair_grid(lam, sigma, 0.1)
    centers = [-grid.lam + 2.0 * j * sigma for j in range(1, grid.n_pairs + 1)]
    assert [grid.center(j) for j in range(1, grid.n_pairs + 1)] == centers
    # the baseline's columns, built from np.arange, hold the same centers
    signs = baseline_plan(lam, sigma, 0.1, 2 * grid.n_pairs).table.queries[1::2]
    assert [q.lo for q in signs] == centers


@pytest.mark.parametrize("lam, sigma, eps, per_slot", [
    (4.0, 1.0, 0.1, 10), (77.3, 0.3, 0.1, 9), (2.0 ** 10, 1.0, 0.125, 520)])
def test_baseline_table_equals_object_built_rows(lam, sigma, eps, per_slot):
    grid = make_pair_grid(lam, sigma, eps)
    budget = 2 * grid.n_pairs * per_slot + 1  # the remainder is never spent
    centers = [grid.center(j) for j in range(1, grid.n_pairs + 1)]
    rows = [(j, kind, q, per_slot) for j, c in enumerate(centers, start=1)
            for kind, q in (("presence", Interval(c - sigma, c + sigma)),
                            ("sign", Interval(c, c + sigma)))]
    assert baseline_query_plan(lam, sigma, eps, budget) == rows
    # the baseline's estimate equals answering an object-built table of those
    # rows from the same stream
    table = QueryTable([q for _, _, q, _ in rows], [m for *_, m in rows])
    for trial in range(5):
        dist = grid.member(1 + (7 * trial) % grid.n_pairs, 1 if trial % 2 else -1)
        est = nonadaptive_baseline(Agent(dist, trial_rng(6, "table", trial)), lam, sigma, eps,
                                   budget)
        ones = Agent(dist, trial_rng(6, "table", trial)).respond_count(table, table.per_block)[0]
        j_hat = int(np.argmax(ones[0::2])) + 1
        sign = 1 if ones[2 * j_hat - 1] / per_slot >= 0.5 else -1
        assert (est.pair_index, est.sign, est.samples_used) == (j_hat, sign, table.per_block)
        assert est.mu_hat == grid.center(j_hat) + sign * eps


def _baseline_agent():
    return Agent(make_pair_grid(4.0, 1.0, 0.1).member(1, 1), trial_rng(2, "b", 0))


@pytest.mark.parametrize("call, message", [
    (lambda: make_pair_grid(math.inf, 1.0, 0.1), "finite"),
    (lambda: make_pair_grid(math.nan, 1.0, 0.1), "finite"),
    (lambda: make_pair_grid(4.0, math.inf, 0.1), "finite"),
    (lambda: nonadaptive_baseline(_baseline_agent(), math.inf, 1.0, 0.1, 60), "finite"),
    (lambda: baseline_query_plan(4.0, 1.0, 0.1, math.nan), "budget must be an int"),
    (lambda: baseline_query_plan(4.0, 1.0, 0.1, True), "budget must be an int"),
    (lambda: nonadaptive_baseline(_baseline_agent(), 4.0, 1.0, 0.1, True),
     "budget must be an int"),
    (lambda: baseline_query_plan(4.0, 1.0, 0.1, 60.0), "budget must be an int"),
    (lambda: baseline_query_plan(4.0, 1.0, 0.1, 2 ** 70), "int64"),
], ids=["grid-lam-inf", "grid-lam-nan", "grid-sigma-inf", "baseline-lam-inf",
        "plan-budget-nan", "plan-budget-bool", "baseline-budget-bool", "plan-budget-float",
        "plan-budget-beyond-int64"])
def test_baseline_inputs_rejected_at_the_boundary(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_pair_grid_too_wide_is_refused(monkeypatch):
    wide = MAX_PAIR_GRID_LAM_OVER_SIGMA + 1.0
    for lam, sigma in ((2.0 ** 40, 1.0), (wide, 1.0), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="lam/sigma .* exceeds the pair grid's cap"):
            make_pair_grid(lam, sigma, sigma / 8.0)
    with pytest.raises(ValueError, match="no room"):
        make_pair_grid(-1e300, 1e-300, 1e-301)  # lam/sigma is -inf
    # the adaptive side reaches past the baseline's cap, which keeps 2^20 runnable
    assert MAX_PAIR_GRID_LAM_OVER_SIGMA > MAX_BASELINE_LAM_OVER_SIGMA >= 2 ** 20
    monkeypatch.setattr(hardness, "MAX_PAIR_GRID_LAM_OVER_SIGMA", 64)
    widest = make_pair_grid(0.3 * 64, 0.3, 0.3 / 8.0)
    assert widest.n_pairs == 63
    with pytest.raises(ValueError, match="exceeds the pair grid's cap of 64"):
        make_pair_grid(0.3 * 65, 0.3, 0.3 / 8.0)


def test_baseline_too_wide_is_refused_before_its_grid(monkeypatch):
    def unused(*args):
        raise AssertionError("built the grid of a refused plan")

    monkeypatch.setattr(hardness, "make_pair_grid", unused)
    baseline_plan.cache_clear()
    for lam, sigma in ((MAX_BASELINE_LAM_OVER_SIGMA + 1.0, 1.0), (0.5 * 2.0 ** 40, 0.5)):
        with pytest.raises(ValueError, match="lam/sigma .* exceeds the baseline's cap"):
            baseline_plan(lam, sigma, sigma / 8.0, 2 ** 50)
    monkeypatch.setattr(hardness, "MAX_BASELINE_LAM_OVER_SIGMA", 64)
    monkeypatch.setattr(hardness, "make_pair_grid", make_pair_grid)
    assert baseline_plan(0.3 * 64, 0.3, 0.3 / 8.0, 1_000).grid.n_pairs == 63
    with pytest.raises(ValueError, match="exceeds the baseline's cap of 64"):
        baseline_plan(0.3 * 65, 0.3, 0.3 / 8.0, 1_000)
    baseline_plan.cache_clear()


def test_baseline_plan_is_built_once_and_read_by_both_callers(monkeypatch):
    built = []
    original = hardness.make_pair_grid
    monkeypatch.setattr(hardness, "make_pair_grid",
                        lambda *args: built.append(args) or original(*args))
    baseline_plan.cache_clear()
    plan = baseline_plan(64.0, 1.0, 0.125, 20_000)
    grid = original(64.0, 1.0, 0.125)
    assert (plan.grid, plan.per_slot, plan.table.per_block) == \
        (grid, 20_000 // 126, 126 * (20_000 // 126))
    assert baseline_plan(64.0, 1.0, 0.125, 20_000) is plan
    rows = baseline_query_plan(64.0, 1.0, 0.125, 20_000)
    assert [q for _, _, q, _ in rows] == list(plan.table.queries)
    for trial in range(3):
        dist = grid.member(1 + 5 * trial, 1)
        est = nonadaptive_baseline(Agent(dist, trial_rng(8, "plan", trial)), 64.0, 1.0, 0.125,
                                   20_000)
        assert est.samples_used == plan.table.per_block
    assert built == [(64.0, 1.0, 0.125)]
    assert not plan.table.reps.flags.writeable


def test_baseline_plan_memo_is_bounded_and_draws_do_not_depend_on_it():
    grid = make_pair_grid(16.0, 1.0, 0.1)

    def estimate():
        return nonadaptive_baseline(Agent(grid.member(3, -1), trial_rng(9, "memo", 0)),
                                    16.0, 1.0, 0.1, 3_000)

    baseline_plan.cache_clear()
    cold = estimate()
    assert estimate() == cold and baseline_plan.cache_info().hits == 1
    for budget in range(3_030, 3_120, 30):
        baseline_plan(16.0, 1.0, 0.1, budget)
    assert baseline_plan.cache_info().currsize == 1
    assert estimate() == cold and baseline_plan.cache_info().misses == 5


def test_cached_int_budget_admits_no_equal_non_int():
    baseline_plan.cache_clear()
    plan = baseline_plan(4.0, 1.0, 0.1, 60)
    assert baseline_plan(4.0, 1.0, 0.1, 60) is plan
    # 60.0 == 60 and True == 1 hash alike, so the type is checked before the memo
    for budget in (60.0, True, np.float64(60)):
        with pytest.raises(ValueError, match="budget must be an int"):
            baseline_plan(4.0, 1.0, 0.1, budget)
        with pytest.raises(ValueError, match="budget must be an int"):
            baseline_query_plan(4.0, 1.0, 0.1, budget)
        with pytest.raises(ValueError, match="budget must be an int"):
            nonadaptive_baseline(_baseline_agent(), 4.0, 1.0, 0.1, budget)
    assert baseline_plan(4.0, 1.0, 0.1, np.int64(60)).table.reps.tolist() == [10] * 6
