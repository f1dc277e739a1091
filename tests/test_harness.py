import dataclasses
import math

import numpy as np
import pytest

from bitmean import cli, hardness, harness
from bitmean.cli import main
from bitmean.harness import (
    ExperimentConfig,
    acceptance_matrix,
    binomial_lower_bound,
    run_gap,
    run_localize,
    run_pac,
    run_scale_adapt,
    run_scaling,
    run_verify,
    trial_rng,
    write_csv,
)
from bitmean.hardness import baseline_plan
from bitmean.refine import build_plan


def test_trial_rng_reproducible_and_independent():
    a = trial_rng(42, "exp", 0).integers(0, 2 ** 32, 5)
    b = trial_rng(42, "exp", 0).integers(0, 2 ** 32, 5)
    c = trial_rng(42, "exp", 1).integers(0, 2 ** 32, 5)
    d = trial_rng(42, "other", 0).integers(0, 2 ** 32, 5)
    assert a.tolist() == b.tolist()
    assert a.tolist() != c.tolist()
    assert a.tolist() != d.tolist()


def test_run_pac_point_mass_perfect():
    cfg = ExperimentConfig(fixture="point_mass", trials=20, eps=0.25, delta=0.2)
    rows, summary, _ = run_pac(cfg)
    assert summary["success_rate"] == 1.0
    assert len({r[10] for r in rows}) == 1  # identical deterministic sample count


def test_run_pac_csv_deterministic(tmp_path):
    texts = []
    for run in range(2):
        out = tmp_path / f"pac{run}.csv"
        cfg = ExperimentConfig(fixture="gauss_tight", trials=10, eps=0.5,
                               delta=0.2, seed=77, out=str(out))
        run_pac(cfg)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_run_pac_threads_do_not_change_rows():
    cfg1 = ExperimentConfig(fixture="pareto15", trials=12, eps=0.5, delta=0.2,
                            seed=5, threads=1)
    cfg2 = ExperimentConfig(fixture="pareto15", trials=12, eps=0.5, delta=0.2,
                            seed=5, threads=3)
    rows1, _, _ = run_pac(cfg1)
    rows2, _, _ = run_pac(cfg2)
    assert rows1 == rows2


def test_run_scaling_appends_ratios():
    cfg = ExperimentConfig(k=2.0, lam=64.0, sigma=1.0, delta=0.1,
                           eps_list=(1 / 16, 1 / 32, 1 / 64))
    rows, _ = run_scaling(cfg)
    assert rows[0][-1] == ""
    assert float(rows[1][-1]) > 1.0
    with pytest.raises(ValueError):
        run_scaling(ExperimentConfig(eps_list=(0.25,)))


def test_run_scaling_after_bypass_scale_row():
    # eps >= 4 sigma refines nothing, so the next row has no ratio to take
    cfg = ExperimentConfig(k=2.0, lam=16.0, sigma=1.0, delta=0.2, eps_list=(4.0, 2.0, 1.0))
    rows, _ = run_scaling(cfg)
    assert [row[5] for row in rows] == [0, 2432, 9728]
    assert [row[-1] for row in rows] == ["", "", "4.000000"]


def test_run_localize_methods():
    for method in ("median", "gray"):
        cfg = ExperimentConfig(fixture="gauss_tight", lam=64.0, trials=20,
                               delta=0.2, method=method, seed=3)
        rows, summary, _ = run_localize(cfg)
        assert summary["coverage"] >= 0.9
        assert len(rows) == 20


def test_run_verify_clean_and_corrupted():
    clean = run_verify()
    assert clean.passed
    assert "all checks passed" in clean.manifest()

    def corrupt(masses):
        masses = list(masses)
        masses[0] += 1e-3
        return masses

    bad = run_verify(corrupt=corrupt)
    assert not bad.passed
    assert any(check_id == "k2/null_variance" for check_id, _, _ in bad.failures)
    assert "k2/null_variance" in bad.manifest()


def test_binomial_lower_bound_behaviour():
    assert binomial_lower_bound(0, 100) == 0.0
    lb_all = binomial_lower_bound(300, 300)
    lb_most = binomial_lower_bound(290, 300)
    assert 0.0 < lb_most < lb_all <= 1.0
    # 240/300 successes still certify >= 0.75 at 95%
    assert binomial_lower_bound(248, 300) >= 0.75


@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
def test_binomial_lower_bound_closed_forms(confidence):
    alpha = 1.0 - confidence
    for n in (1, 2, 7, 30, 10 ** 6):
        assert binomial_lower_bound(0, n, confidence) == 0.0
        assert binomial_lower_bound(n, n, confidence) == alpha ** (1.0 / n)
        assert binomial_lower_bound(1, n, confidence) == -math.expm1(math.log1p(-alpha) / n)


def test_binomial_lower_bound_is_monotone_in_successes_and_confidence():
    confidences = (0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
    for n in (*range(1, 200, 11), 200):
        bounds = [[binomial_lower_bound(s, n, c) for s in range(n + 1)] for c in confidences]
        for row in bounds:
            assert all(0.0 <= lo <= hi < 1.0 for lo, hi in zip(row, row[1:])), n
        for looser, tighter in zip(bounds, bounds[1:]):
            assert all(t <= l for l, t in zip(looser, tighter)), n


@pytest.mark.parametrize("trials", [10 ** 5, 10 ** 6])
@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
def test_binomial_lower_bound_matches_betaincinv_at_large_n(trials, confidence):
    from scipy.special import betaincinv
    for successes in (1, 2, 10, 1001, trials // 3, trials // 2, trials - 1):
        expected = float(betaincinv(successes, trials - successes + 1, 1.0 - confidence))
        assert binomial_lower_bound(successes, trials, confidence) == pytest.approx(
            expected, rel=1e-10, abs=0.0), successes


@pytest.mark.parametrize("confidence", [0.05, 0.3, 0.49])
def test_binomial_lower_bound_below_half_confidence_matches_betaincinv(confidence):
    # solved in 1 - x, on the tail P(Bin(n, x) < s) = confidence
    from scipy.special import betaincinv
    for trials in (3, 30, 999, 10 ** 4):
        for successes in {2, trials // 3, trials // 2, trials - 1}:
            expected = float(betaincinv(successes, trials - successes + 1, 1.0 - confidence))
            assert binomial_lower_bound(successes, trials, confidence) == pytest.approx(
                expected, rel=1e-10, abs=0.0), (successes, trials)


def test_binomial_lower_bound_takes_numpy_ints():
    for successes, trials in ((0, 5), (1, 5), (3, 5), (5, 5), (1500, 4000), (2, 10 ** 6)):
        value = binomial_lower_bound(np.int64(successes), np.int64(trials))
        assert type(value) is float
        assert value == binomial_lower_bound(successes, trials)


@pytest.mark.parametrize("args, match", [
    ((5, 3), "successes must be an int in"),
    ((-1, 10), "successes must be an int in"),
    ((2.5, 10), "successes must be an int in"),
    ((True, 10), "successes must be an int in"),
    ((3, 0), "trials must be an int >= 1"),
    ((3, 10.0), "trials must be an int >= 1"),
    ((3, 10, 1.5), "confidence must be in"),
    ((3, 10, 0.0), "confidence must be in"),
    ((3, 10, 1.0), "confidence must be in"),
    ((3, 10, math.nan), "confidence must be in"),
], ids=["s>n", "s<0", "s-float", "s-bool", "n=0", "n-float", "conf>1", "conf=0", "conf=1",
        "conf-nan"])
def test_binomial_lower_bound_refuses_bad_input(args, match):
    with pytest.raises(ValueError, match=match):
        binomial_lower_bound(*args)


def test_unknown_fixture_is_config_error():
    with pytest.raises(KeyError) as info:
        run_pac(ExperimentConfig(fixture="nope", trials=2))
    assert str(sorted(acceptance_matrix()))[1:-1] in str(info.value)


def test_resolve_fixture_builds_only_the_named_fixture(monkeypatch):
    harness._resolve_fixture.cache_clear()  # so every fixture below is built cold
    matrix = acceptance_matrix(2.0, 32.0)

    def unused(*args):
        raise AssertionError("built a fixture that was not asked for")

    monkeypatch.setattr(harness, "make_pair_grid", unused)
    monkeypatch.setattr(harness, "make_k2_pair", unused)
    for name in ("pareto15", "gauss_tight", "gauss_tight_k3", "point_mass"):
        fixture = harness._resolve_fixture(ExperimentConfig(fixture=name, sigma=2.0, lam=32.0))
        assert (fixture.name, fixture.params, fixture.mean) == \
            (name, matrix[name].params, matrix[name].mean)


def test_resolve_fixture_keeps_each_fixture_once():
    harness._resolve_fixture.cache_clear()
    config = ExperimentConfig(fixture="pareto15", eps=1 / 16, delta=0.1, trials=3, seed=5)
    first = harness._resolve_fixture(config)
    assert harness._resolve_fixture(config).dist is first.dist
    assert harness._resolve_fixture(ExperimentConfig(fixture="pareto15", sigma=2.0)) \
        is not first
    assert harness._resolve_fixture(config) is not first  # the bound of one dropped it
    _, _, warm = run_pac(config)
    harness._resolve_fixture.cache_clear()
    _, _, cold = run_pac(config)
    assert warm == cold


def test_run_gap_same_text_on_cold_and_warm_memo():
    config = ExperimentConfig(k=2.0, lam=64.0, eps=0.125, delta=0.1, trials=6, seed=3,
                              budgets=(2_000, 20_000))
    baseline_plan.cache_clear()
    build_plan.cache_clear()
    _, cold = run_gap(config)
    assert baseline_plan.cache_info().misses == 2  # each budget's plan built once
    _, warm = run_gap(config)
    assert warm == cold


def test_run_pac_same_text_on_cold_and_warm_plan_memo():
    config = ExperimentConfig(fixture="pareto15", eps=1 / 16, delta=0.1, trials=3, seed=5)
    build_plan.cache_clear()
    _, _, cold = run_pac(config)
    hits = build_plan.cache_info().hits
    _, _, warm = run_pac(config)
    assert build_plan.cache_info().hits > hits  # the second run reused the plan
    assert warm == cold


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    text = write_csv(str(path), ["a", "b"], [(1, 2.5), (3, "x")])
    assert text == "a,b\n1,2.5\n3,x\n"
    assert path.read_text() == text


def test_acceptance_matrix_contents():
    matrix = acceptance_matrix()
    assert {"pair_plus_center", "k2_mixture", "pareto15", "gauss_tight",
            "point_mass"} <= set(matrix)
    assert matrix["pareto15"].params.k == 1.5


# -- CLI surface -------------------------------------------------------------

def test_cli_verify_exit_zero(capsys):
    assert main(["verify"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_cli_unknown_fixture_exit_one(capsys):
    assert main(["pac", "--fixture", "nope", "--trials", "2"]) == 1


def test_cli_gap_too_wide_is_config_error(capsys):
    assert main(["gap", "--lambda", "1e12", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "lam/sigma = 1e+12 exceeds the pair grid's cap" in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["lam", "sigma", "k", "eps", "delta"])
def test_cli_number_beyond_float64_is_config_error(tmp_path, capsys, name):
    config = tmp_path / "big.json"
    config.write_text(f'{{"{name}": {10 ** 400}}}')
    assert main(["pac", "--trials", "1", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: {name} must be a number within float64's range" in err
    assert "Traceback" not in err


def test_gap_refuses_a_baseline_too_wide_before_any_trial(monkeypatch, capsys):
    def unused(*args, **kwargs):
        raise AssertionError("ran a trial of a gap run whose baseline is refused")

    monkeypatch.setattr(hardness, "MAX_BASELINE_LAM_OVER_SIGMA", 32)
    monkeypatch.setattr(harness, "estimate_mean", unused)
    baseline_plan.cache_clear()
    assert main(["gap", "--lambda", "64", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "lam/sigma = 64 exceeds the baseline's cap of 32" in err and "Traceback" not in err


def test_run_gap_refuses_any_budget_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "estimate_mean", lambda *args, **kwargs: calls.append(args))
    monkeypatch.setattr(harness, "nonadaptive_baseline", lambda *args: calls.append(args))
    config = ExperimentConfig(lam=64.0, trials=3, seed=1, budgets=(200000, 5))
    with pytest.raises(ValueError, match="budget 5 below the 2N = 126 queries needed"):
        run_gap(config)
    assert calls == []


def test_cli_pac_writes_csv(tmp_path, capsys):
    out = tmp_path / "pac.csv"
    code = main(["pac", "--fixture", "point_mass", "--trials", "3",
                 "--eps", "0.5", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(
        "fixture,trial,seed,mu_true,mu_hat,abs_err,eps,success,n_loc,n_ref,n_total")


def test_cli_scaling_and_localize(capsys):
    assert main(["scaling", "--k", "2", "--delta", "0.1",
                 "--eps-list", "0.0625", "0.03125"]) == 0
    assert main(["localize", "--method", "gray", "--lambda", "64",
                 "--fixture", "point_mass", "--trials", "5"]) == 0


def test_cli_run_prints_plan(capsys):
    assert main(["run", "--fixture", "point_mass", "--eps", "0.5",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "mu_hat" in out and "plan:" in out


def test_cli_run_method_gray(capsys):
    assert main(["run", "--fixture", "point_mass", "--lambda", "64",
                 "--eps", "0.5", "--method", "gray"]) == 0
    assert "rounds of adaptivity: 2" in capsys.readouterr().out


def test_cli_config_setting_two_stage_is_config_error(tmp_path, capsys):
    # run's localizer is its method; the former two_stage switch is no setting
    config = tmp_path / "two_stage.json"
    config.write_text('{"two_stage": true}')
    _assert_configuration_error(["run", "--fixture", "point_mass", "--config", str(config)],
                                capsys)


def test_cli_gap_small(capsys):
    code = main(["gap", "--lambda", "8", "--eps", "0.125", "--delta", "0.2",
                 "--trials", "5", "--budgets", "100", "1000"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("estimator,budget,success_rate,trials")


def test_cli_anytime_and_scale_adapt(tmp_path):
    from bitmean.refine import predict_cost
    from bitmean.distributions import FamilyParams

    budget = predict_cost(FamilyParams(2.0, 16.0, 1.0), 0.25, 0.2).total
    assert main(["anytime", "--budget", str(budget), "--fixture", "gauss_tight",
                 "--trials", "3"]) == 0
    assert main(["scale-adapt", "--sigma-min", "1", "--sigma-max", "4",
                 "--lambda", "32", "--fixture", "gauss_tight", "--sigma", "2",
                 "--trials", "2"]) == 0


def test_scale_adapt_runs_at_its_fixtures_k(monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def recording(agent, k, *args, **kwargs):
        seen.append(k)
        raise Stop

    monkeypatch.setattr(harness, "unknown_scale_estimate", recording)
    for fixture, k in (("pareto15", 1.5), ("gauss_tight", 2.0)):
        with pytest.raises(Stop):  # a config's own k is not read
            run_scale_adapt(ExperimentConfig(fixture=fixture, k=3.0, trials=1))
        assert seen.pop() == k


def test_cli_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"trials": 3, "eps": 0.5, "fixture": "point_mass", "seed": 5}')

    def pac_stdout(*argv):
        assert main(["pac", *argv]) == 0
        return capsys.readouterr().out

    from_file = pac_stdout("--config", str(cfg_path))
    rows = [line.split(",") for line in from_file.splitlines() if line.startswith("point_mass,")]
    assert len(rows) == 3  # file values apply over ExperimentConfig's defaults
    assert all(row[2] == "5" and row[6] == "0.5" for row in rows)
    assert from_file == pac_stdout("--trials", "3", "--eps", "0.5", "--fixture", "point_mass",
                                   "--seed", "5")
    assert pac_stdout("--config", str(cfg_path), "--trials", "4").count("\npoint_mass,") == 4


def test_config_refuses_no_threads_and_an_out_outside_any_directory(tmp_path):
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        ExperimentConfig(threads=0)
    (tmp_path / "file.csv").write_text("")
    for out in (tmp_path / "missing" / "x.csv", tmp_path / "file.csv" / "x.csv", tmp_path):
        with pytest.raises(ValueError, match="out must name a file in an existing directory"):
            ExperimentConfig(out=str(out))
    for out in (tmp_path / "x.csv", tmp_path / "file.csv"):  # new or overwritten
        ExperimentConfig(out=str(out))


def test_cli_out_outside_any_directory_runs_no_trial(monkeypatch, capsys, tmp_path):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "trial_rng", no_trial)
    _assert_configuration_error(["pac", "--trials", "1", "--fixture", "point_mass",
                                 "--out", str(tmp_path / "missing" / "x.csv")], capsys)


def _assert_configuration_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["pac", "--trials", "0"], ["localize", "--trials", "0"],
                                  ["pac", "--trials", "-2"], ["localize", "--method", "mediam"],
                                  ["pac", "--trials", "2", "--eps", "inf"],
                                  ["pac", "--trials", "2", "--eps", "nan"],
                                  ["scaling", "--eps-list", "0.5", "inf"],
                                  ["run", "--method", "gray", "--eps", "inf"],
                                  ["scale-adapt", "--sigma-max", "inf", "--trials", "1"],
                                  ["scale-adapt", "--sigma-min", "inf", "--sigma-max", "inf",
                                   "--trials", "1"],
                                  ["pac", "--seed", "-1", "--trials", "1"],
                                  ["pac", "--trials", "1", "--fixture", "point_mass",
                                   "--out", "/missing/dir/x.csv"],
                                  ["pac", "--threads", "-3", "--trials", "1"]])
def test_cli_invalid_setting_exits_one(argv, capsys):
    _assert_configuration_error(argv, capsys)


# a quick successful run of each command
_COMMAND_RUNS = {
    "run": ["--fixture", "point_mass", "--eps", "0.5"],
    "localize": ["--fixture", "point_mass", "--trials", "2"],
    "pac": ["--fixture", "point_mass", "--eps", "0.5", "--trials", "2"],
    "scaling": ["--eps-list", "0.5", "0.25"],
    "anytime": ["--budget", "185088", "--trials", "1"],
    "scale-adapt": ["--sigma-min", "1", "--sigma-max", "4", "--lambda", "32", "--sigma", "2",
                    "--trials", "1"],
    "gap": ["--lambda", "8", "--eps", "0.125", "--trials", "1"],
    "verify": [],
}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_flags_are_the_fields_the_command_reads(monkeypatch, capsys, command):
    read = set()
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}

    class Recording(ExperimentConfig):
        def __post_init__(self):
            super().__post_init__()
            read.clear()  # the checks read every field

        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(cli, "ExperimentConfig", Recording)
    assert main([command, *_COMMAND_RUNS[command]]) == 0
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {a.dest for a in subparsers.choices[command]._actions} - {"help", "config"}
    assert read == flags


@pytest.mark.parametrize("argv", [["run", "--k", "0.5"], ["verify", "--trials", "3"],
                                  ["pac", "--k", "3"], ["scale-adapt", "--k", "1.5"]])
def test_cli_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_bad_config_file_exits_one(tmp_path, capsys):
    unknown_key = tmp_path / "unknown.json"
    unknown_key.write_text('{"trials": 2, "bogus": 1}')
    fractional_trials = tmp_path / "fractional.json"
    fractional_trials.write_text('{"trials": 2.5, "fixture": "point_mass"}')
    string_eps = tmp_path / "string_eps.json"
    string_eps.write_text('{"trials": 2, "eps": "0.5", "fixture": "point_mass"}')
    for path in (unknown_key, tmp_path / "missing.json", fractional_trials, string_eps):
        _assert_configuration_error(["pac", "--config", str(path)], capsys)


def test_cli_usage_error_and_failed_verify_exit_differently(monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pac", "--trials", "abc"])
    assert exc.value.code == 2

    def corrupt(masses):
        return [masses[0] + 1e-3, *masses[1:]]

    monkeypatch.setattr(cli, "run_verify",
                        lambda sigma, lam: run_verify(sigma=sigma, lam=lam, corrupt=corrupt))
    capsys.readouterr()
    assert main(["verify"]) == 3
    assert "k2/null_variance" in capsys.readouterr().out


def test_experiment_config_checks_its_settings():
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="method"):
        ExperimentConfig(method="mediam")
    with pytest.raises(ValueError, match="trials must be an integer"):
        ExperimentConfig(trials=True)  # JSON true is an int in Python
    with pytest.raises(ValueError, match="eps must be a number"):
        ExperimentConfig(eps="0.5")
    with pytest.raises(ValueError, match="budgets must be a list of integers"):
        ExperimentConfig(budgets=[100, 2.5])
    assert ExperimentConfig(eps=1).eps == 1  # an integer is a number
    with pytest.raises(ValueError, match="lam must be a number within float64's range"):
        ExperimentConfig(lam=10 ** 400)
    with pytest.raises(ValueError, match="eps_list must be a list of numbers"):
        ExperimentConfig(eps_list=[0.5, -10 ** 400])
    with pytest.raises(ValueError, match="budget must be an integer"):
        ExperimentConfig(budget=np.True_)
    cfg = ExperimentConfig(budgets=[100, 1000])
    assert cfg.budgets == (100, 1000)
    # numpy ints are ints, and in range they are numbers
    assert ExperimentConfig(trials=np.int64(5)).trials == 5
    assert ExperimentConfig(budgets=list(np.array([100, 1000]))).budgets == (100, 1000)
    assert ExperimentConfig(lam=np.int64(64), eps_list=[np.int64(1), 0.5]).lam == 64
    with pytest.raises(ValueError, match="trials must be an integer"):
        ExperimentConfig(trials=np.float64(5.0))
    with pytest.raises(AttributeError):
        cfg.trials = 5
