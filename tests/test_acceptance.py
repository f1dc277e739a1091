"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 11 checks the adaptivity gap at lam/sigma = 2^16: at the
adaptive estimator's own budget the estimator is (eps, delta)-PAC on the pair
grid and the non-adaptive baseline is not.  The baseline's linear cost in
lam/sigma overtakes the adaptive estimator's lam-free refinement cost only
near 2^15 at eps = sigma/8, delta = 0.1, so smaller search ranges cannot show
the gap.
"""

import math

import numpy as np
import pytest
from scipy.stats import binom

from bitmean.channel import Agent, Transcript, query_probability
from bitmean.distributions import FamilyParams, make_discrete, \
    make_gaussian_budget_tight, make_two_sided_pareto, validate_family
from bitmean.hardness import baseline_query_plan, make_k2_pair, make_pair_grid, \
    nonadaptive_baseline, verify_kl_bound
from bitmean.harness import ExperimentConfig, acceptance_matrix, run_localize, \
    run_pac, trial_rng
from bitmean.localization import gray_bit_value, gray_change_points, gray_decode, \
    gray_plan, localize_gray
from bitmean.refine import analytic_region_mean, base_estimate, build_plan, \
    estimate_mean, predict_cost, query_table
from bitmean.variants import anytime_estimate, unknown_scale_estimate

SIGMA = 1.0
LAM = 16.0


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_family_membership():
    checks = []
    for name, fixture in acceptance_matrix(SIGMA, LAM).items():
        checks.append((name, validate_family(fixture.dist, fixture.params)))
    grid = make_pair_grid(LAM, SIGMA, SIGMA / 10)
    params2 = FamilyParams(2.0, LAM, SIGMA)
    for j, sign, dist in grid.members():
        checks.append((f"pair_{j}_{sign}", validate_family(dist, params2)))
    k2 = make_k2_pair(SIGMA, SIGMA / 48, LAM)
    checks.append(("k2_null", validate_family(k2.null, params2)))
    checks.append(("k2_mixture", validate_family(k2.mixture, params2)))
    bad = [name for name, verdict in checks if not verdict.is_member]
    ok = _report(1, not bad, f"{len(checks)} fixtures validated; failures: {bad}")
    assert ok


def _decomposition_cases():
    grid = make_pair_grid(LAM, SIGMA, SIGMA / 10)
    mid = (grid.n_pairs + 1) // 2
    c_mid = grid.centers[mid - 1]
    return [
        ("pair_plus", grid.member(mid, 1), c_mid),
        ("pair_plus_halfgrid", grid.member(mid, 1), c_mid - SIGMA / 2),
        ("pair_minus", grid.member(mid, -1), c_mid),
        ("three_point", make_discrete([-1.8, 0.0, 1.8], [0.25, 0.5, 0.25]), 0.0),
    ]


def test_criterion_02_decomposition_identity():
    params = FamilyParams(2.0, LAM, SIGMA)
    worst = 0.0
    for _, dist, center in _decomposition_cases():
        for eps in (SIGMA / 4, SIGMA / 8, SIGMA / 16):
            plan = build_plan(params, eps, 0.1)
            total = math.fsum(
                analytic_region_mean(dist, center, r) for r in plan.regions)
            tail = dist.shifted_tail_contribution(center, plan.t)
            worst = max(worst, abs(total + tail - (dist.mean() - center)))
    ok = _report(2, worst <= 1e-12, f"max decomposition residual {worst:.2e}")
    assert ok


def test_criterion_03_truncation_bias():
    params = FamilyParams(2.0, LAM, SIGMA)
    worst_margin = math.inf
    ok = True
    for _, dist, center in _decomposition_cases():
        for eps in (SIGMA / 4, SIGMA / 8, SIGMA / 16):
            plan = build_plan(params, eps, 0.1)
            bias = abs(dist.shifted_tail_contribution(center, plan.t))
            ok = ok and bias <= eps / 2
            worst_margin = min(worst_margin, eps / 2 - bias)
    ok = _report(3, ok, f"analytic tail bias within eps/2 (min margin {worst_margin:.3g})")
    assert ok


def test_criterion_04_variance_constraint():
    eps = SIGMA / 4
    bound = (eps ** 2 / 16) * 1.10
    results = {}
    cases = [
        ("pair_plus", make_pair_grid(LAM, SIGMA, SIGMA / 10).member(8, 1),
         FamilyParams(2.0, LAM, SIGMA)),
        ("pareto15", make_two_sided_pareto(1.5, SIGMA, mu=0.3, alpha=1.9),
         FamilyParams(1.5, LAM, SIGMA)),
    ]
    for name, dist, params in cases:
        plan = build_plan(params, eps, 0.2, "proof-safe")
        center = round(dist.mean() * 2) / 2
        agent = Agent(dist, trial_rng(404, f"variance/{name}", 0))
        table = query_table(plan, center)
        values = [base_estimate(agent, plan, center, table) for _ in range(2000)]
        results[name] = float(np.var(values, ddof=1))
    ok = all(v <= bound for v in results.values())
    ok = _report(4, ok, f"sample variances {results} vs bound {bound:.3e}")
    assert ok


def test_criterion_05_pac_success():
    rates = {}
    for name in acceptance_matrix(SIGMA, LAM):
        cfg = ExperimentConfig(fixture=name, lam=LAM, sigma=SIGMA, eps=SIGMA / 4,
                               delta=0.2, profile="empirical", trials=300, seed=505)
        _, summary, _ = run_pac(cfg)
        rates[name] = summary["success_rate"]
    ok = all(rate >= 0.75 for rate in rates.values())
    ok = _report(5, ok, "observed success rates " +
                 ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))
    assert ok


def test_criterion_06_exact_sample_accounting():
    rng = np.random.default_rng(606)
    grid = make_pair_grid(64.0, 1.0, 0.3)
    mismatches = []
    for case in range(20):
        k = float(rng.uniform(1.3, 3.4))
        sigma = float(rng.uniform(0.5, 2.0))
        lam = sigma * float(rng.uniform(2.0, 128.0))
        eps = sigma * float(rng.choice([1 / 8, 1 / 4, 1 / 2, 1.0, 5.0]))
        delta = float(rng.uniform(0.02, 0.3))
        profile = "proof-safe" if case % 2 else "empirical"
        params = FamilyParams(k, lam, sigma)
        dist = make_gaussian_budget_tight(k, sigma, mu=float(rng.uniform(-lam / 2, lam / 2)))
        agent = Agent(dist, trial_rng(607, "accounting", case))
        tr = Transcript()
        report = estimate_mean(agent, params, eps, delta, profile=profile,
                               transcript=tr)
        predicted = predict_cost(params, eps, delta, profile)
        if not (report.n_total == tr.total == predicted.total
                and report.n_localization == predicted.localization
                and report.n_refinement == predicted.refinement):
            mismatches.append(case)
    ok = _report(6, not mismatches,
                 f"20 random settings, realized == predicted; mismatches: {mismatches}")
    assert ok


def test_criterion_07_scaling_law_ratios():
    windows = {1.5: (6.0, 10.0), 3.0: (3.4, 4.6), 2.0: (4.0, 5.0)}
    observed = {}
    ok = True
    for k, (lo, hi) in windows.items():
        params = FamilyParams(k, 64.0, 1.0)
        r = predict_cost(params, 1 / 128, 0.1).refinement \
            / predict_cost(params, 1 / 64, 0.1).refinement
        observed[k] = r
        inside = (lo < r <= hi) if k == 2.0 else (lo <= r <= hi)
        ok = ok and inside
    ok = _report(7, ok, "refinement ratios at sigma/eps 128 vs 64: " +
                 ", ".join(f"k={k}: {v:.3f}" for k, v in observed.items()))
    assert ok


def test_criterion_08_gray_machinery():
    # change-point grids disjoint through level 12, exact
    seen = set()
    disjoint = True
    for level in range(1, 13):
        for p in gray_change_points(level):
            key = float(p).as_integer_ratio()
            disjoint = disjoint and key not in seen
            seen.add(key)

    # roundtrip containment for every grid point at M = 10, exact
    m = 10
    roundtrip = all(
        (lambda lo_hi, x: lo_hi[0] <= x <= lo_hi[1])(
            gray_decode([gray_bit_value(level, x) for level in range(1, m + 1)]), x)
        for x in (i / 2 ** (m + 2) for i in range(2 ** (m + 2) + 1))
    )

    # sample count M * J, exact
    params = FamilyParams(2.0, 64.0, 1.0)
    plan = gray_plan(params, 0.2)
    dist = make_gaussian_budget_tight(2.0, 1.0, mu=0.77)
    counts_ok = True
    covered = 0
    for trial in range(200):
        agent = Agent(dist, trial_rng(808, "gray", trial))
        tr = Transcript()
        res = localize_gray(agent, params, 0.2, tr)
        counts_ok = counts_ok and res.samples_used == tr.total == plan.total_queries
        covered += res.low <= 0.77 <= res.high
    coverage = covered / 200

    ok = disjoint and roundtrip and counts_ok and coverage >= 0.90
    ok = _report(8, ok, f"grids disjoint={disjoint}, roundtrip={roundtrip}, "
                 f"count==M*J={counts_ok}, coverage={coverage:.3f}")
    assert ok


def test_criterion_09_median_localization():
    coverages = {}
    max_len_covered = 0.0
    for name in acceptance_matrix(SIGMA, LAM):
        cfg = ExperimentConfig(fixture=name, lam=LAM, sigma=SIGMA, delta=0.2,
                               trials=200, seed=909, method="median")
        rows, summary, _ = run_localize(cfg)
        coverages[name] = summary["coverage"]
        lens = [r[2] - r[1] for r in rows if r[4]]
        max_len_covered = max(max_len_covered, max(lens))
    ok = all(c >= 0.90 for c in coverages.values()) \
        and max_len_covered <= 8 * SIGMA + 1e-9
    ok = _report(9, ok, f"coverage >= 0.90 per fixture {coverages}; "
                 f"max covered length {max_len_covered:.2f} <= 8 sigma")
    assert ok


def test_criterion_10_k2_pair_exactness():
    checks_ok = True
    details = []
    for expected_m, eps in [(1, SIGMA / 12), (2, SIGMA / 48), (3, SIGMA / 192)]:
        pair = make_k2_pair(SIGMA, eps, LAM)
        checks_ok = checks_ok and pair.n_levels == expected_m
        var_err = abs(pair.null.abs_central_moment(2.0) - SIGMA ** 2)
        mean_err = abs(pair.mixture.mean() - 3 * eps)
        origin = float(pair.null.probs[int(np.searchsorted(pair.null.points, 0.0))])
        mass_err = abs(float(np.sum(pair.null.probs)) - 1.0)
        valid = all(p <= q for p, q in zip(pair.shift_masses, pair.null_masses))
        kl = verify_kl_bound(pair, slack=1e-15)
        checks_ok = checks_ok and var_err <= 1e-12 and mean_err <= 1e-12 \
            and origin > 0.5 and mass_err <= 1e-12 and valid and kl.all_within_bound
        details.append(f"M={pair.n_levels}: var_err={var_err:.1e}, "
                       f"kl_max={kl.max_kl:.2e} <= {kl.bound:.2e}")
    ok = _report(10, checks_ok, "; ".join(details))
    assert ok


def _pair_instance(grid, rng):
    j = int(rng.integers(1, grid.n_pairs + 1))
    sign = 1 if rng.random() < 0.5 else -1
    return j, sign, grid.member(j, sign)


def _baseline_exact_success(plan, dist, j: int, sign: int) -> float:
    """Exact probability that ``nonadaptive_baseline`` succeeds on pair j.

    The baseline is non-adaptive, so its success probability follows from its
    fixed plan.  Pair j's presence slot holds all of the instance's mass and
    reads m ones out of m.  Another slot's interval meets it at most in a
    shared endpoint, so only the lower neighbour can reach m too, and it then
    wins the tie (argmax keeps the first maximum).  Any other pair misses the
    mean by at least 2 sigma - 2 eps > eps, so success is identification
    times the sign test: Binomial(m, q) ones, sign +1 iff the fraction >= 1/2.
    """
    _, _, own, m = plan[2 * (j - 1)]
    if query_probability(dist, own) != 1.0:
        raise AssertionError(f"pair {j}'s presence interval misses its mass")
    identified = 1.0
    if j > 1:
        identified -= query_probability(dist, plan[2 * (j - 2)][2]) ** m
    q = query_probability(dist, plan[2 * (j - 1) + 1][2])
    upper = float(binom.sf((m + 1) // 2 - 1, m, q))
    return identified * (upper if sign == 1 else 1.0 - upper)


def test_criterion_11_adaptivity_gap():
    # At lam/sigma = 2^16 the adaptive budget leaves the baseline 8 queries
    # per slot; at 2^14 it would leave 33 and the baseline would be PAC.
    eps, delta, trials = 1 / 8, 0.1, 200
    lam = 2.0 ** 16
    params = FamilyParams(2.0, lam, SIGMA)
    budget = predict_cost(params, eps, delta, "empirical").total
    grid = make_pair_grid(lam, SIGMA, eps)

    adaptive_wins = 0
    cost_matches = True
    for trial in range(trials):
        rng = trial_rng(1111, "gap/adaptive", trial)
        _, _, dist = _pair_instance(grid, rng)
        report = estimate_mean(Agent(dist, rng), params, eps, delta,
                               profile="empirical")
        adaptive_wins += abs(report.mu_hat - dist.mean()) <= eps
        cost_matches = cost_matches and report.n_total == budget
    adaptive_rate = adaptive_wins / trials

    plan = baseline_query_plan(lam, SIGMA, eps, budget)
    per_slot = plan[0][3]
    instances = (_pair_instance(grid, trial_rng(1111, "gap/baseline", trial))
                 for trial in range(trials))
    baseline_rate = math.fsum(_baseline_exact_success(plan, dist, j, sign)
                              for j, sign, dist in instances) / trials

    # Cross-check the exact evaluation against the real baseline, simulated
    # at a small search range with the same per-slot count.
    small_lam = 64.0
    small_grid = make_pair_grid(small_lam, SIGMA, eps)
    small_budget = 2 * small_grid.n_pairs * per_slot
    small_plan = baseline_query_plan(small_lam, SIGMA, eps, small_budget)
    sim_wins = 0
    exact_probs = []
    for trial in range(trials):
        rng = trial_rng(1111, "gap/baseline", trial)
        j, sign, dist = _pair_instance(small_grid, rng)
        est = nonadaptive_baseline(Agent(dist, rng), small_lam, SIGMA, eps,
                                   small_budget)
        sim_wins += abs(est.mu_hat - dist.mean()) <= eps
        exact_probs.append(_baseline_exact_success(small_plan, dist, j, sign))
    sim_rate = sim_wins / trials
    exact_small = math.fsum(exact_probs) / trials
    stderr = math.sqrt(math.fsum(p * (1 - p) for p in exact_probs)) / trials

    ok_adaptive = adaptive_rate >= 1 - delta and cost_matches
    ok_baseline = baseline_rate < 1 - delta
    ok_cross = abs(sim_rate - exact_small) <= 4 * stderr and sim_rate < 1 - delta
    _report(11, ok_adaptive and ok_baseline and ok_cross,
            f"B={budget}, 2N={2 * grid.n_pairs}, m={per_slot}: "
            f"adaptive={adaptive_rate:.3f} (need >= {1 - delta}, n_total == B: "
            f"{cost_matches}), baseline exact={baseline_rate:.3f} "
            f"(need < {1 - delta}); at lam={small_lam:g} simulated="
            f"{sim_rate:.3f} vs exact={exact_small:.3f} (need within "
            f"4 se = {4 * stderr:.3f})")
    assert ok_adaptive
    assert ok_baseline
    assert ok_cross


def test_criterion_12_anytime():
    params = FamilyParams(2.0, 64.0, 1.0)
    eps_star = SIGMA / 32
    budget = predict_cost(params, eps_star, 0.2, "empirical").total
    dist = make_gaussian_budget_tight(2.0, SIGMA, mu=0.4)
    ok = True
    eps_seen = set()
    for trial in range(50):
        agent = Agent(dist, trial_rng(1212, "anytime", trial))
        res = anytime_estimate(agent, params, 0.2, budget, profile="empirical")
        ok = ok and res.eps_achieved <= 8 * eps_star and res.n_total <= budget
        eps_seen.add(res.eps_achieved)
    ok = _report(12, ok, f"50 trials: eps_T values {sorted(eps_seen)} "
                 f"<= 8 eps* = {8 * eps_star}; all within budget {budget}")
    assert ok


def test_criterion_13_unknown_scale():
    sigma_max = 4.0
    sigma_true = sigma_max / 4
    dist = make_gaussian_budget_tight(2.0, sigma_true, mu=0.7)
    wins = 0
    for trial in range(200):
        agent = Agent(dist, trial_rng(1313, "scale", trial))
        res = unknown_scale_estimate(agent, 2.0, 64.0, sigma_max / 16, sigma_max,
                                     0.25, 0.2, profile="empirical")
        wins += abs(res.mu_hat - 0.7) <= 0.25 * sigma_true
    rate = wins / 200
    ok = _report(13, rate >= 0.80, f"relative-accuracy success rate {rate:.3f} >= 0.80")
    assert ok
