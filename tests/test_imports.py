"""The cold start: ``import bitmean`` and ``bitmean.cli``, the estimator on
non-Gaussian fixtures, the Clopper-Pearson bound, ``run_pac`` and the ``pac``
command load no scipy module; only the Gaussian oracles load
``scipy.special``, and nothing loads ``scipy.stats``.  A serial sweep loads
no thread pool (``concurrent.futures``)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import beta

from bitmean.harness import binomial_lower_bound

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_START = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

import bitmean
import bitmean.cli
from bitmean import harness
from bitmean.channel import Agent
from bitmean.hardness import make_pair_grid, nonadaptive_baseline
from bitmean.refine import estimate_mean

harness.run_gap(harness.ExperimentConfig(lam=64.0, trials=4, seed=1))
pareto = harness.acceptance_matrix()["pareto15"]
estimate_mean(Agent(pareto.dist, harness.trial_rng(1, "cold", 0)), pareto.params, 0.25, 0.2)
grid = make_pair_grid(64.0, 1.0, 0.125)
member = grid.member(3, -1)
estimate_mean(Agent(member, harness.trial_rng(1, "cold", 1)), bitmean.FamilyParams(2.0, 64.0, 1.0),
              0.125, 0.1)
nonadaptive_baseline(Agent(member, harness.trial_rng(1, "cold", 2)), 64.0, 1.0, 0.125, 100000)
before = scipy_modules()

harness.binomial_lower_bound(29, 30)
after_bound = scipy_modules()
harness.run_pac(harness.ExperimentConfig(fixture="pareto15", k=1.5, trials=4, seed=1))
bitmean.cli.main(["pac", "--fixture", "pareto15", "--trials", "4"])
after_pac = scipy_modules()
bitmean.make_gaussian_budget_tight(2.0, 1.0).cdf(0.5)
print(json.dumps({"before": before, "after_bound": after_bound, "after_pac": after_pac,
                  "after_gaussian": scipy_modules()}))
"""


def test_only_a_gaussian_oracle_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["before"] == []
    assert loaded["after_bound"] == []
    assert loaded["after_pac"] == []
    assert "scipy.special" in loaded["after_gaussian"]
    assert not any(name.startswith("scipy.stats") for name in loaded["after_gaussian"])


SERIAL_SWEEP = """
import sys
import bitmean
from bitmean import harness
harness.run_pac(harness.ExperimentConfig(fixture="pareto15", k=1.5, trials=4, seed=1))
harness.run_gap(harness.ExperimentConfig(lam=64.0, trials=4, seed=1))
print("concurrent.futures" in sys.modules)
"""


def test_a_serial_sweep_loads_no_thread_pool():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SERIAL_SWEEP], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
def test_binomial_lower_bound_equals_beta_ppf(confidence):
    for trials in (1, 2, 3, 7, 30, 100, 999, 10 ** 4):
        for successes in {1, 2, trials // 3, trials // 2, trials - 1, trials}:
            if not 1 <= successes <= trials:
                continue
            expected = float(beta.ppf(1.0 - confidence, successes, trials - successes + 1))
            assert binomial_lower_bound(successes, trials, confidence) == pytest.approx(
                expected, rel=1e-12, abs=0.0), (successes, trials, confidence)
    assert binomial_lower_bound(np.int64(29), np.int64(30)) == binomial_lower_bound(29, 30)
