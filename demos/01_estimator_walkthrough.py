"""Walk through the full 1-bit mean estimation pipeline, stage by stage.

The setting: an agent holds a heavy-tailed distribution (bounded 1.5-th
central moment) whose mean lies somewhere in [-64, 64].  We may only ask
1-bit threshold questions, one fresh sample per question.
"""

import numpy as np

from bitmean import (
    Agent,
    FamilyParams,
    build_plan,
    cutoff_threshold,
    estimate_mean,
    localize_median,
    make_two_sided_pareto,
    predict_cost,
)

rng = np.random.default_rng(2026)
params = FamilyParams(k=1.5, lam=64.0, sigma=1.0)
dist = make_two_sided_pareto(k=1.5, sigma=1.0, mu=-23.4, alpha=1.9)
eps, delta = 0.25, 0.1

print("=== Setup ===")
print(f"family: k={params.k}, lam={params.lam}, sigma={params.sigma}")
print(f"hidden mean: {dist.mean()}   target: |error| <= {eps} w.p. >= {1 - delta}")

# Stage 1: localization. A certified noisy binary search on a sigma-spaced
# grid narrows the mean to an interval of length <= 8 sigma.
agent = Agent(dist, rng)
loc = localize_median(agent, params, delta)
print("\n=== Stage 1: localization ===")
print(f"interval: [{loc.low:.2f}, {loc.high:.2f}]  (length {loc.length:.2f})")
print(f"center:   {loc.center:.2f}   queries spent: {loc.samples_used}")

# Stage 2-3: cutoff and partition. Everything beyond t contributes at most
# eps/2 to the mean and is estimated as zero; [-t, t] is tiled by dyadic
# regions around the center.
t = cutoff_threshold(params, eps)
plan = build_plan(params, eps, delta)
print("\n=== Stages 2-3: cutoff and partition ===")
print(f"cutoff t = {t} sigma multiples; {2 * plan.i_max} regions")
print(f"region allocations n_i: {[plan.n_by_magnitude[i] for i in range(1, plan.i_max + 1)]}")
print(f"median-of-means batches K = {plan.batches}")

# Stages 4-6 run inside estimate_mean: randomized threshold queries per
# region, variance-aware allocation, median of K base estimates.
agent = Agent(dist, np.random.default_rng(7))
report = estimate_mean(agent, params, eps, delta)
print("\n=== Stages 4-6: refinement ===")
print(f"estimate: {report.mu_hat:.4f}   true mean: {dist.mean():.4f}")
print(f"error:    {abs(report.mu_hat - dist.mean()):.4f} (target {eps})")
print(f"queries:  localization={report.n_localization} "
      f"refinement={report.n_refinement} total={report.n_total}")
# the agent counts every query it answers, per phase of the run
print(f"agent's transcript: {agent.transcript.counts}")

cost = predict_cost(params, eps, delta)
print(f"predicted total (closed form): {cost.total}  "
      f"matches transcript: {cost.total == agent.transcript.total}")
