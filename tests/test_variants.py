import math

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import Agent, Transcript
from bitmean.distributions import FamilyParams, make_gaussian_budget_tight, \
    make_point_mass
from bitmean.hardness import make_pair_grid
from bitmean.harness import acceptance_matrix, trial_rng
from bitmean.localization import median_search_cost
from bitmean.refine import estimate_mean, predict_cost
from bitmean.variants import (
    BudgetError,
    anytime_estimate,
    anytime_schedule_params,
    multivariate_estimate,
    scale_grid,
    two_stage_cost,
    two_stage_estimate,
    unknown_scale_estimate,
)

PARAMS = FamilyParams(2.0, 64.0, 1.0)


def test_anytime_schedule_values():
    eps1, d1 = anytime_schedule_params(1.0, 0.1, 1)
    eps2, d2 = anytime_schedule_params(1.0, 0.1, 2)
    assert (eps1, eps2) == (0.5, 0.25)
    assert d1 == approx(0.6 / math.pi ** 2, rel=1e-12)
    assert d2 == approx(0.15 / math.pi ** 2, rel=1e-12)
    total = sum(anytime_schedule_params(1.0, 0.1, t)[1] for t in range(1, 500))
    assert total <= 0.1


def test_anytime_budget_exactly_first_round():
    eps1, d1 = anytime_schedule_params(1.0, 0.2, 1)
    budget = median_search_cost(PARAMS, 0.2) + predict_cost(PARAMS, eps1, d1).refinement
    agent = Agent(make_gaussian_budget_tight(2.0, 1.0, 0.3), trial_rng(0, "any1", 0))
    res = anytime_estimate(agent, PARAMS, 0.2, budget)
    assert res.rounds_completed == 1
    assert res.eps_achieved == 0.5
    assert res.n_total <= budget


def test_anytime_rejects_infeasible_budget():
    agent = Agent(make_point_mass(0.0), trial_rng(1, "any2", 0))
    with pytest.raises(BudgetError):
        anytime_estimate(agent, PARAMS, 0.2, 100)


def test_anytime_budget_invariants():
    budget = predict_cost(PARAMS, 1 / 32, 0.2).total
    agent = Agent(make_gaussian_budget_tight(2.0, 1.0, 0.3), trial_rng(2, "any3", 0))
    tr = Transcript()
    res = anytime_estimate(agent, PARAMS, 0.2, budget, transcript=tr)
    assert res.n_total == tr.total <= budget
    # the skipped next round would not have fit
    eps_next, d_next = anytime_schedule_params(1.0, 0.2, res.rounds_completed + 1)
    next_cost = predict_cost(PARAMS, eps_next, d_next).refinement
    assert res.n_total + next_cost > budget


@pytest.mark.parametrize("k,min_ratio", [(2.0, 4.0), (2.5, 4.0), (1.5, 8.0)])
def test_anytime_round_costs_grow_geometrically(k, min_ratio):
    params = FamilyParams(k, 64.0, 1.0)
    costs = []
    for tau in range(1, 7):
        eps_t, d_t = anytime_schedule_params(1.0, 0.2, tau)
        costs.append(predict_cost(params, eps_t, d_t).refinement)
    for a, b in zip(costs, costs[1:]):
        assert b / a >= min_ratio * 0.999


def test_anytime_tracks_oracle_accuracy():
    eps_star = 1 / 32
    budget = predict_cost(PARAMS, eps_star, 0.2).total
    dist = make_gaussian_budget_tight(2.0, 1.0, 0.4)
    for trial in range(10):
        agent = Agent(dist, trial_rng(3, "any4", trial))
        res = anytime_estimate(agent, PARAMS, 0.2, budget)
        assert res.eps_achieved <= 8 * eps_star
        assert abs(res.mu_hat - 0.4) <= res.eps_achieved + 0.05


def test_scale_grid_values():
    guesses = scale_grid(1.0, 16.0)
    assert guesses == [16.0, 8.0, 4.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        scale_grid(4.0, 2.0)


def test_unknown_scale_round_parameters():
    # eps_i = r sigma_i / 6 and sigma_i / eps_i constant across rounds
    r = 0.3
    for sigma_i in scale_grid(1.0, 16.0):
        assert sigma_i / (r * sigma_i / 6.0) == approx(6.0 / r, rel=1e-12)
    assert r * 16.0 / 6.0 == approx(0.8, rel=1e-12)


def test_unknown_scale_pac_quick():
    sigma_true = 4.0
    dist = make_gaussian_budget_tight(2.0, sigma_true, mu=0.7)
    wins = 0
    for trial in range(40):
        agent = Agent(dist, trial_rng(4, "scaleq", trial))
        res = unknown_scale_estimate(agent, 2.0, 64.0, 1.0, 16.0, 0.25, 0.2)
        wins += abs(res.mu_hat - 0.7) <= 0.25 * sigma_true
    assert wins >= 32


def test_unknown_scale_validates_ratio():
    agent = Agent(make_point_mass(0.0), trial_rng(5, "scalev", 0))
    with pytest.raises(ValueError):
        unknown_scale_estimate(agent, 2.0, 64.0, 1.0, 16.0, 1.5, 0.2)


def test_unknown_scale_rarely_halts_while_guess_is_valid():
    # while sigma_i >= sigma_true the intervals all contain the mean, so a
    # halt before that point happens with frequency at most delta
    sigma_true = 4.0
    valid_rounds = 2  # guesses 16, 8, 4 are >= sigma_true
    dist = make_gaussian_budget_tight(2.0, sigma_true, mu=0.7)
    premature = 0
    for trial in range(60):
        agent = Agent(dist, trial_rng(13, "halt", trial))
        res = unknown_scale_estimate(agent, 2.0, 64.0, 1.0, 16.0, 0.25, 0.2)
        premature += res.halted_early and res.chosen_round < valid_rounds
    assert premature <= 0.2 * 60 + 4 * math.sqrt(60 * 0.2 * 0.8)


def test_two_stage_uses_two_rounds_and_exact_accounting():
    dist = make_gaussian_budget_tight(2.0, 1.0, 0.3)
    for trial in range(5):
        agent = Agent(dist, trial_rng(6, "ts", trial))
        tr = Transcript()
        report = two_stage_estimate(agent, PARAMS, 0.25, 0.2, transcript=tr)
        assert report.rounds_of_adaptivity == 2
        assert report.n_total == tr.total == two_stage_cost(PARAMS, 0.25, 0.2)


def test_two_stage_point_mass_recovery():
    dist = make_point_mass(1.7)
    agent = Agent(dist, trial_rng(7, "tspm", 0))
    report = two_stage_estimate(agent, PARAMS, 0.25, 0.2)
    assert abs(report.mu_hat - 1.7) <= 0.25


def test_two_stage_pac_parity_with_main_estimator():
    dist = make_pair_grid(64.0, 1.0, 0.1).member(32, 1)
    wins_main = wins_two = 0
    for trial in range(100):
        agent = Agent(dist, trial_rng(8, "tspar_a", trial))
        wins_main += abs(estimate_mean(agent, PARAMS, 0.25, 0.2).mu_hat
                         - dist.mean()) <= 0.25
        agent = Agent(dist, trial_rng(8, "tspar_b", trial))
        wins_two += abs(two_stage_estimate(agent, PARAMS, 0.25, 0.2).mu_hat
                        - dist.mean()) <= 0.25
    assert abs(wins_main - wins_two) <= 5


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_two_stage_meets_target_on_acceptance_fixtures(name):
    # k2_null and k2_mixture put an atom on the shared endpoint of regions -2
    # and -3 around the Gray center; it must be counted once
    fixture = acceptance_matrix()[name]
    wins = 0
    for trial in range(40):
        agent = Agent(fixture.dist, trial_rng(14, f"ts_matrix/{name}", trial))
        report = two_stage_estimate(agent, fixture.params, 0.25, 0.2)
        wins += abs(report.mu_hat - fixture.mean) <= 0.25
    assert wins >= 0.8 * 40


def test_multivariate_single_coordinate_reduces_to_univariate():
    params = FamilyParams(2.0, 16.0, 1.0)
    dist = make_gaussian_budget_tight(2.0, 1.0, 0.5)
    res = multivariate_estimate([dist], params, 0.25, 0.2,
                                trial_rng(9, "mv1", 0))
    assert res.mu_hat.shape == (1,)
    assert res.n_total == predict_cost(params, 0.25, 0.2).total


def test_multivariate_point_masses_exact():
    # masses at half-grid offsets: localization centers land exactly on them
    params = FamilyParams(2.0, 16.0, 1.0)
    targets = [0.5, -1.5, 2.5, 7.5]
    dists = [make_point_mass(v) for v in targets]
    res = multivariate_estimate(dists, params, 0.5, 0.2, trial_rng(10, "mv4", 0))
    assert float(np.linalg.norm(res.mu_hat - np.array(targets))) == 0.0


def test_multivariate_gaussian_pac():
    params = FamilyParams(2.0, 16.0, 1.0)
    dists = [make_gaussian_budget_tight(2.0, 1.0, 0.3),
             make_gaussian_budget_tight(2.0, 1.0, -0.8)]
    truth = np.array([0.3, -0.8])
    wins = 0
    for trial in range(100):
        rng = trial_rng(11, "mv2", trial)
        res = multivariate_estimate(dists, params, 0.25, 0.2, rng)
        wins += float(np.linalg.norm(res.mu_hat - truth)) <= 0.25
    assert wins >= 80


def test_multivariate_bits_per_sample_modes():
    params = FamilyParams(2.0, 16.0, 1.0)
    dists = [make_point_mass(0.5), make_point_mass(-1.5)]
    strict = multivariate_estimate(dists, params, 0.5, 0.2, trial_rng(12, "mv3", 0))
    relaxed = multivariate_estimate(dists, params, 0.5, 0.2, trial_rng(12, "mv3", 0),
                                    bits_per_sample=2)
    per_coord = [r.n_total for r in strict.reports]
    assert strict.n_total == sum(per_coord)
    assert relaxed.n_total == max(r.n_total for r in relaxed.reports)
    with pytest.raises(ValueError):
        multivariate_estimate([], params, 0.5, 0.2, trial_rng(13, "mv0", 0))
