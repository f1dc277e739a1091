"""Property tests for the identities the estimator rests on.

Examples are capped and derandomized so the file stays fast and repeatable.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from pytest import approx

from bitmean.channel import query_probabilities, query_probability
from bitmean.distributions import FamilyParams, make_discrete, \
    make_gaussian_budget_tight, make_two_sided_pareto
from bitmean.localization import gray_bit_value, gray_decode
from bitmean.refine import build_plan, query_table, region_queries

SIGMA = 1.0
PARAMS = FamilyParams(2.0, 16.0, SIGMA)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Atoms and centers on the sigma/2 lattice, so atoms land on cell endpoints
# c +- 2^i sigma often; the spread reaches past the largest cutoff (64 sigma).
half_steps = st.integers(min_value=-160, max_value=160)
discrete_fixtures = st.lists(
    st.tuples(half_steps, st.integers(min_value=1, max_value=20)),
    min_size=1, max_size=8,
).map(lambda atoms: make_discrete(
    [0.5 * SIGMA * step for step, _ in atoms],
    np.array([w for _, w in atoms], dtype=float) / sum(w for _, w in atoms)))


@PROPERTY
@given(dist=discrete_fixtures, center_step=st.integers(min_value=-32, max_value=32),
       eps=st.sampled_from([SIGMA / 4, SIGMA / 8, SIGMA / 16]))
def test_decomposition_identity_with_endpoint_atoms(dist, center_step, eps):
    center = 0.5 * SIGMA * center_step
    plan = build_plan(PARAMS, eps, 0.1)
    total = 0.0
    for region in plan.regions:
        f1, f2, f3, f4 = (query_probability(dist, q)
                          for q in region_queries(region, center))
        total += region.sign * (region.inner * (f1 - f2) + region.outer * (f3 - f4))
    tail = dist.shifted_tail_contribution(center, plan.t)
    assert math.isclose(total + tail, dist.mean() - center, abs_tol=1e-9)
    # the round's table, evaluated as arrays, gives the same probabilities
    queries = query_table(plan, center).queries
    assert query_probabilities(dist, queries).tolist() == approx(
        [query_probability(dist, q) for q in queries], abs=1e-15)


oracle_fixtures = st.one_of(
    discrete_fixtures,
    st.builds(make_gaussian_budget_tight, st.sampled_from([1.5, 2.0, 3.0]),
              st.floats(0.25, 4.0), st.floats(-5.0, 5.0)),
    st.builds(make_two_sided_pareto, st.sampled_from([1.5, 2.0]),
              st.floats(0.25, 4.0), st.floats(-5.0, 5.0), st.floats(2.1, 4.0)),
)


@PROPERTY
@given(dist=oracle_fixtures, x=st.floats(-40.0, 40.0), width=st.floats(0.0, 40.0))
def test_cdf_monotone_and_partial_mean_matches_cdf(dist, x, width):
    y = x + width
    cdf_x, cdf_y = float(dist.cdf(x)), float(dist.cdf(y))
    assert 0.0 <= float(dist.cdf_strict(x)) <= cdf_x <= cdf_y <= 1.0
    # E[X 1(x < X <= y)] lies between x and y times the mass of (x, y]
    mass = cdf_y - cdf_x
    inner = dist.partial_mean(y) - dist.partial_mean(x)
    slack = 1e-9 * (1.0 + abs(x) + abs(y))
    assert x * mass - slack <= inner <= y * mass + slack
    # the array oracles equal their scalar calls, at the ends and at +-inf
    xs = np.array([x, y, -math.inf, math.inf])
    for oracle in (dist.cdf, dist.cdf_strict, dist.partial_mean, dist.partial_mean_strict):
        np.testing.assert_allclose(oracle(xs), [oracle(float(v)) for v in xs],
                                   rtol=0, atol=1e-15)
    if width > 0:
        assert dist.prob_interval(xs[:2], xs[:2] + width) == approx(
            [dist.prob_interval(v, v + width) for v in xs[:2]], abs=1e-15)


@PROPERTY
@given(bits=st.lists(st.integers(0, 1), min_size=1, max_size=24))
def test_gray_decode_round_trip(bits):
    lo, hi = gray_decode(bits)
    assert hi - lo == 0.5 ** len(bits)
    mid = (lo + hi) / 2.0
    assert [gray_bit_value(level, mid) for level in range(1, len(bits) + 1)] == bits
