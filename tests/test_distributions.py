import math

import numpy as np
import pytest
from pytest import approx

from bitmean.channel import uniform_threshold_probability
from bitmean.distributions import (
    DiscreteMixture,
    FamilyParams,
    Gaussian,
    PointMass,
    TwoSidedPareto,
    gaussian_abs_moment_factor,
    make_discrete,
    make_gaussian_budget_tight,
    make_point_mass,
    make_two_sided_pareto,
    operative_order,
    validate_family,
)
from bitmean.harness import acceptance_matrix, trial_rng

N_MC = 10 ** 6


def test_discrete_mean_is_dot_product():
    d = make_discrete([-0.5, 0.5], [0.4, 0.6])
    assert d.mean() == approx(0.1, abs=1e-15)


def test_point_mass_has_zero_central_moments():
    d = make_discrete([0.0], [1.0])
    assert d.mean() == 0.0
    for order in (1.2, 2.0, 3.0):
        assert d.abs_central_moment(order) == 0.0


def test_discrete_second_central_moment():
    d = make_discrete([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    assert d.abs_central_moment(2.0) == approx(2.0, abs=1e-15)


def test_discrete_validation_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        make_discrete([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        make_discrete([0.0, 1.0], [1.2, -0.2])
    with pytest.raises(ValueError, match="sum to"):
        make_discrete([0.0, 1.0], [0.6, 0.6])


@pytest.mark.parametrize("points, probs, name", [
    ([0.0, 1.0], [math.nan, 1.0], "probabilities"),  # passes the sign and sum checks
    ([0.0, 1.0], [0.5, math.inf], "probabilities"),
    ([math.nan, 1.0], [0.5, 0.5], "points"),
    ([-math.inf, 1.0], [0.5, 0.5], "points"),
])
def test_discrete_rejects_non_finite_parameters(points, probs, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_discrete(points, probs)


@pytest.mark.parametrize("location", [math.nan, math.inf, -math.inf])
def test_point_mass_rejects_non_finite_location(location):
    with pytest.raises(ValueError, match="location must be finite"):
        make_point_mass(location)


def test_discrete_cdf_handles_atoms_exactly():
    d = make_discrete([-1.0, 0.0, 2.0], [0.2, 0.5, 0.3])
    assert d.cdf(0.0) == approx(0.7, abs=1e-15)
    assert d.cdf_strict(0.0) == approx(0.2, abs=1e-15)
    assert d.cdf(-5.0) == 0.0 and d.cdf(5.0) == 1.0
    assert d.prob_interval(0.0, 2.0) == approx(0.8, abs=1e-15)
    assert d.partial_mean(0.0) == approx(-0.2, abs=1e-15)
    assert d.partial_mean_strict(0.0) == approx(-0.2, abs=1e-15)


def test_pareto_matches_closed_forms():
    d = make_two_sided_pareto(1.5, 1.0, alpha=1.9)
    assert d.x_min == approx((0.4 / 1.9) ** (2.0 / 3.0), rel=1e-12)
    assert d.abs_central_moment(1.5) == approx(1.0, rel=1e-12)
    assert d.cdf(0.0) == approx(0.5, abs=1e-15)


def test_pareto_translation_shifts_mean():
    d = make_two_sided_pareto(1.5, 1.0, mu=5.0, alpha=1.9)
    assert d.mean() == 5.0
    assert d.cdf(5.0) == approx(0.5, abs=1e-15)


def test_pareto_requires_alpha_above_k():
    with pytest.raises(ValueError, match="alpha"):
        make_two_sided_pareto(2.0, 1.0, alpha=1.9)


@pytest.mark.parametrize("args, kwargs, name", [
    ((1.5, 1.0), {"mu": math.nan}, "mu"),
    ((1.5, 1.0), {"mu": -math.inf}, "mu"),
    ((1.5, math.inf), {}, "sigma"),
    ((1.5, math.nan), {}, "sigma"),
    ((math.inf, 1.0), {}, "moment order k"),
    ((1.5, 1.0), {"alpha": math.inf}, "alpha"),
])
def test_pareto_rejects_non_finite_parameters(args, kwargs, name):
    with pytest.raises(ValueError, match=name):
        make_two_sided_pareto(*args, **kwargs)


@pytest.mark.parametrize("sigma, mu, name", [
    (math.inf, 0.0, "sigma"),
    (math.nan, 0.0, "sigma"),
    (1.0, math.nan, "mu"),
    (1.0, math.inf, "mu"),
])
def test_gaussian_rejects_non_finite_parameters(sigma, mu, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        make_gaussian_budget_tight(2.0, sigma, mu=mu)


BIG = 10 ** 400  # an int beyond float64


def test_pareto_rejects_ints_beyond_float64():
    with pytest.raises(ValueError, match="mu is an int of .* beyond float64"):
        make_two_sided_pareto(1.5, 1.0, mu=BIG)
    with pytest.raises(ValueError, match="alpha is an int of .* beyond float64"):
        TwoSidedPareto(1.5, 1.0, alpha=BIG)
    assert TwoSidedPareto(2, 1, mu=2 ** 60).mu == 2.0 ** 60  # ints within range stay valid


def test_gaussian_rejects_ints_beyond_float64():
    with pytest.raises(ValueError, match="mu is an int of .* beyond float64"):
        make_gaussian_budget_tight(2.0, 1.0, mu=BIG)
    with pytest.raises(ValueError, match="sigma is an int of .* beyond float64"):
        make_gaussian_budget_tight(2.0, BIG)
    with pytest.raises(ValueError, match="scale is an int of .* beyond float64"):
        Gaussian(0.0, BIG)


def test_point_mass_rejects_an_int_beyond_float64():
    with pytest.raises(ValueError, match="location is an int of .* beyond float64"):
        make_point_mass(BIG)
    with pytest.raises(ValueError, match="location is an int of .* beyond float64"):
        PointMass(-BIG)


def test_discrete_rejects_ints_beyond_float64():
    with pytest.raises(ValueError, match=r"points\[1\] is an int of .* beyond float64"):
        make_discrete([0.0, BIG], [0.5, 0.5])
    with pytest.raises(ValueError, match=r"probs\[0\] is an int of .* beyond float64"):
        DiscreteMixture((0.0, 1.0), (BIG, 0.5))
    assert make_discrete([0, 2 ** 60], [1, 0]).mean() == 0.0


def test_pareto_moment_above_alpha_is_infinite():
    d = make_two_sided_pareto(1.5, 1.0, alpha=1.9)
    assert d.abs_central_moment(2.0) == math.inf


def test_gaussian_budget_tight_binds_exactly():
    for k in (1.5, 2.0, 2.7, 3.0):
        d = make_gaussian_budget_tight(k, 2.0, mu=0.3)
        assert d.abs_central_moment(k) == approx(2.0 ** k, rel=1e-12)
    assert gaussian_abs_moment_factor(2.0) == approx(1.0, rel=1e-14)


def test_operative_order_caps_at_three():
    assert operative_order(2.0) == 2.0
    assert operative_order(7.5) == 3.0


def test_family_params_validation():
    with pytest.raises(ValueError):
        FamilyParams(k=1.0, lam=4.0, sigma=1.0)
    with pytest.raises(ValueError):
        FamilyParams(k=2.0, lam=0.5, sigma=1.0)
    with pytest.raises(ValueError):
        FamilyParams(k=2.0, lam=4.0, sigma=-1.0)


@pytest.mark.parametrize("lam,sigma", [(math.inf, 1.0), (math.nan, 1.0),
                                       (4.0, math.inf), (4.0, math.nan),
                                       (math.inf, math.inf)])
def test_family_params_rejects_non_finite(lam, sigma):
    with pytest.raises(ValueError, match="finite"):
        FamilyParams(k=2.0, lam=lam, sigma=sigma)


@pytest.mark.parametrize("k, lam, sigma, name", [
    (2, 10 ** 400, 1, "lam"),
    (2, 16, 10 ** 400, "sigma"),
    (10 ** 400, 16, 1, "k"),  # operative_k would convert it to a float
    (2, -10 ** 400, 1, "lam"),
], ids=["lam", "sigma", "k", "negative-lam"])
def test_family_params_rejects_ints_beyond_float64(k, lam, sigma, name):
    with pytest.raises(ValueError, match=f"{name} is an int of .* beyond float64"):
        FamilyParams(k, lam, sigma)
    assert FamilyParams(2, 2 ** 60, 2 ** 10).operative_k == 2.0  # ints within range stay valid


@pytest.mark.parametrize("ratio", [2.0 ** 60, 2.0 ** 1000])
def test_family_params_rejects_lam_over_sigma_beyond_2_52(ratio):
    with pytest.raises(ValueError, match="lam/sigma"):
        FamilyParams(k=2.0, lam=ratio, sigma=1.0)
    FamilyParams(k=2.0, lam=2.0 ** 52, sigma=1.0)


def test_validate_family_point_mass():
    params = FamilyParams(k=2.0, lam=4.0, sigma=1.0)
    assert validate_family(make_point_mass(0.0), params).is_member


def test_validate_family_pair_member_all_orders():
    # two-point instance with support length sigma: passes for every k > 1
    d = make_discrete([-0.5, 0.5], [0.4, 0.6])
    for k in (1.1, 1.5, 2.0, 3.0, 6.0):
        assert validate_family(d, FamilyParams(k=k, lam=4.0, sigma=1.0)).is_member


def test_validate_family_rejects_inflated_moment():
    d = make_discrete([-2.0, 2.0], [0.5, 0.5])
    check = validate_family(d, FamilyParams(k=2.0, lam=4.0, sigma=1.0))
    assert not check.is_member
    assert check.moment_value == approx(4.0, abs=1e-15)


def test_validate_family_rejects_mean_outside_range():
    d = make_point_mass(5.0)
    assert not validate_family(d, FamilyParams(k=2.0, lam=4.0, sigma=1.0)).is_member


def _stderr(values):
    return float(np.std(values, ddof=1)) / math.sqrt(len(values))


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_monte_carlo_agrees_with_oracles(name):
    fixture = acceptance_matrix()[name]
    dist, params = fixture.dist, fixture.params
    rng = trial_rng(101, f"mc/{name}", 0)
    x = dist.sample(rng, N_MC)

    assert float(np.mean(x)) == approx(dist.mean(), abs=4 * _stderr(x) + 1e-12)

    order = params.operative_k
    dev = np.abs(x - dist.mean()) ** order
    assert float(np.mean(dev)) == approx(
        dist.abs_central_moment(order), abs=4 * _stderr(dev) + 1e-12)


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_tail_probability_bound(name):
    # Pr(|X - mu| >= t) <= sigma^k / t^k, checked empirically with slack
    fixture = acceptance_matrix()[name]
    dist, params = fixture.dist, fixture.params
    k = params.operative_k
    rng = trial_rng(102, f"tail/{name}", 0)
    x = dist.sample(rng, N_MC)
    for t in (params.sigma, 2 * params.sigma, 4 * params.sigma):
        hits = np.abs(x - dist.mean()) >= t
        bound = (params.sigma / t) ** k
        assert float(np.mean(hits)) <= bound + 4 * _stderr(hits) + 1e-12


@pytest.mark.parametrize("name", ["pareto15", "gauss_tight", "k2_mixture"])
def test_cdf_matches_empirical_fractions(name):
    fixture = acceptance_matrix()[name]
    dist = fixture.dist
    rng = trial_rng(103, f"cdf/{name}", 0)
    x = dist.sample(rng, N_MC)
    grid = np.linspace(-6.0, 6.0, 20)
    for g in grid:
        p = float(dist.cdf(g))
        stderr = math.sqrt(p * (1.0 - p) / N_MC)
        assert float(np.mean(x <= g)) == approx(p, abs=4 * stderr + 1e-9)


def test_partial_mean_matches_empirical():
    dist = make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9)
    rng = trial_rng(104, "partial", 0)
    x = dist.sample(rng, N_MC)
    for g in (-2.0, 0.3, 1.0, 4.0):
        vals = x * (x <= g)
        assert float(np.mean(vals)) == approx(
            dist.partial_mean(g), abs=4 * _stderr(vals) + 1e-12)


def test_shifted_tail_contribution_matches_empirical():
    fixture = acceptance_matrix()["pareto15"]
    dist = fixture.dist
    rng = trial_rng(105, "tailcontrib", 0)
    x = dist.sample(rng, N_MC)
    for center, t in [(0.0, 4.0), (0.5, 8.0)]:
        vals = (x - center) * (np.abs(x - center) > t)
        assert float(np.mean(vals)) == approx(
            dist.shifted_tail_contribution(center, t),
            abs=4 * _stderr(vals) + 1e-12)


@pytest.mark.parametrize("center, t, name", [
    (0.0, math.nan, "cutoff t"), (0.0, 0.0, "cutoff t"), (0.0, -1.0, "cutoff t"),
    (math.inf, 1.0, "center"), (-math.inf, 1.0, "center"), (math.nan, 1.0, "center"),
], ids=["t-nan", "t-zero", "t-negative", "center-inf", "center-neg-inf", "center-nan"])
def test_shifted_tail_contribution_refuses_bad_cutoff_and_center(center, t, name):
    # refused by name before any oracle call: a NaN t is not a positive cutoff
    dist = make_discrete([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError, match=name):
        dist.shifted_tail_contribution(center, t)


def test_discrete_arrays_are_immutable():
    d = make_discrete([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        d.points[0] = 3.0


def _oracle_inputs(fx) -> np.ndarray:
    # atoms, the Pareto gap and its edges +-x_min (with their float neighbours),
    # +-inf and the refinement cell endpoints around the mean
    dist, sigma = fx.dist, fx.params.sigma
    mean = dist.mean()
    xs = [-math.inf, math.inf, mean]
    xs += [mean + side * 2.0 ** i * sigma for side in (1, -1) for i in range(-2, 8)]
    if hasattr(dist, "points"):
        xs += dist.points.tolist()
    if hasattr(dist, "x_min"):
        for edge in (mean - dist.x_min, mean + dist.x_min):
            xs += [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf)]
        xs += [mean + dist.x_min / 2, mean - dist.x_min / 2]
    return np.array(xs)


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_array_oracles_equal_scalar_loop(name):
    fx = acceptance_matrix()[name]
    dist = fx.dist
    xs = _oracle_inputs(fx)
    for oracle in (dist.cdf, dist.cdf_strict, dist.partial_mean, dist.partial_mean_strict):
        values = oracle(xs)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        np.testing.assert_allclose(values, [oracle(float(x)) for x in xs], rtol=0, atol=1e-15)
    lo, hi = np.meshgrid(xs, xs, indexing="ij")
    ordered = lo <= hi
    np.testing.assert_allclose(
        dist.prob_interval(lo[ordered], hi[ordered]),
        [dist.prob_interval(a, b) for a, b in zip(lo[ordered], hi[ordered])], rtol=0, atol=1e-15)
    finite = ordered & (lo < hi) & np.isfinite(lo) & np.isfinite(hi)
    for direction in ("ge", "le"):
        np.testing.assert_allclose(
            uniform_threshold_probability(dist, direction, lo[finite], hi[finite]),
            [uniform_threshold_probability(dist, direction, a, b)
             for a, b in zip(lo[finite], hi[finite])], rtol=0, atol=1e-15)


@pytest.mark.parametrize("dist", [
    make_discrete([-0.5, 0.5], [0.4, 0.6]),
    make_point_mass(0.3),
    make_two_sided_pareto(1.5, 1.0, mu=0.3, alpha=1.9),
    make_gaussian_budget_tight(2.0, 1.0, mu=0.77),
], ids=lambda d: type(d).__name__)
def test_prob_interval_rejects_nan_endpoints(dist):
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
                   (np.array([0.0, math.nan]), np.array([1.0, 1.0]))):
        with pytest.raises(ValueError, match="NaN"):
            dist.prob_interval(lo, hi)
    assert dist.prob_interval(-math.inf, math.inf) == 1.0


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_scalar_cdf_equals_array_cdf_bytewise(name):
    # a float is answered by the scalar path (a bisect on a discrete fixture),
    # an array by numpy; between atoms, at +-inf and at NaN as well
    fx = acceptance_matrix()[name]
    xs = np.unique(_oracle_inputs(fx))
    xs = np.concatenate([xs, (xs[1:-2] + xs[2:-1]) / 2, [math.nan, -0.0, 0.0]])
    for oracle in (fx.dist.cdf, fx.dist.cdf_strict):
        scalars = [oracle(x) for x in xs.tolist()]
        assert all(type(value) is float for value in scalars)
        assert np.array(scalars).tobytes() == oracle(xs).tobytes()


@pytest.mark.parametrize("name", sorted(acceptance_matrix()))
def test_oracles_answer_nan_with_nan(name):
    # numpy sorts NaN last, so an atom search alone would count every atom
    dist = acceptance_matrix()[name].dist
    xs = np.array([-1.0, math.nan, 2.0])
    for oracle in (dist.cdf, dist.cdf_strict, dist.partial_mean, dist.partial_mean_strict):
        for nan in (math.nan, np.float64(math.nan)):
            value = oracle(nan)
            assert type(value) is float and math.isnan(value)
        values = oracle(xs)
        assert np.isnan(values).tolist() == [False, True, False]
        assert values[[0, 2]].tolist() == [oracle(-1.0), oracle(2.0)]


def _merged_by_numpy(points, probs):
    # the merge as numpy arrays make it: a stable argsort, then running sums
    points, probs = np.asarray(points, dtype=float), np.asarray(probs, dtype=float)
    order = np.argsort(points, kind="stable")
    xs, ps = [], []
    for x, p in zip(points[order], probs[order]):
        if xs and x == xs[-1]:
            ps[-1] += p
        else:
            xs.append(float(x))
            ps.append(float(p))
    xs, ps = np.array(xs), np.array(ps)
    return (xs, ps, np.concatenate(([0.0], np.cumsum(ps))),
            np.concatenate(([0.0], np.cumsum(xs * ps))))


def test_discrete_merges_atoms_as_numpy_does():
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 7, 40):
        for _ in range(20):
            points = rng.integers(-4, 4, size) * 0.375
            points[rng.random(size) < 0.2] = -0.0
            probs = rng.dirichlet(np.ones(size))
            expected = _merged_by_numpy(points, probs)
            for d in (DiscreteMixture(points.tolist(), probs.tolist()),
                      DiscreteMixture(tuple(points.tolist()), probs),
                      DiscreteMixture(points, probs)):
                got = (d.points, d.probs, d._cum, d._cum_xp)
                assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
                assert d.mean() == math.fsum((expected[0] * expected[1]).tolist())


@pytest.mark.parametrize("points, probs, message", [
    ([[0.0, 1.0]], [1.0], "one-dimensional"),
    (np.zeros((2, 1)), [0.5, 0.5], "one-dimensional"),
    (0.0, [1.0], "one-dimensional"),
    ([0.0], 1.0, "one-dimensional"),
    ([], [], "non-empty"),
    ([0.0, 1.0], [1.0], "length mismatch: 2 points vs 1 probabilities"),
    ([0.0, np.nan], [0.5, 0.5], r"points must be finite, got \[ 0. nan\]"),
    ([0.0, 1.0], [np.inf, 0.5], r"probabilities must be finite, got \[inf 0.5\]"),
])
def test_discrete_checks_keep_their_messages(points, probs, message):
    with pytest.raises(ValueError, match=message):
        DiscreteMixture(points, probs)
