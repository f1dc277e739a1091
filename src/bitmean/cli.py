"""Command-line harness over the experiment runners.

Exit codes: 0 success, 1 configuration error, 2 usage error (argparse),
3 verification/acceptance failure.  Settings come from ``ExperimentConfig``'s defaults, overridden by the
optional JSON config file (``--config``, keyed by ``ExperimentConfig`` field
names), overridden by the flags actually typed.  Each command offers a flag
for exactly the fields its runner reads; a config file may set any field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .harness import ExperimentConfig, _resolve_fixture, run_anytime, run_gap, run_localize, \
    run_pac, run_scale_adapt, run_scaling, run_verify, trial_rng


def _run(cfg: ExperimentConfig) -> int:
    from .channel import Agent
    from .refine import estimate_mean
    from .variants import two_stage_estimate

    fixture = _resolve_fixture(cfg)
    agent = Agent(fixture.dist, trial_rng(cfg.seed, "run", 0))
    estimator = two_stage_estimate if cfg.method == "gray" else estimate_mean
    report = estimator(agent, fixture.params, cfg.eps, cfg.delta, profile=cfg.profile)
    print(f"mu_hat: {report.mu_hat:.6f} (true mean {fixture.mean:.6f})")
    print(f"samples: localization={report.n_localization} "
          f"refinement={report.n_refinement} total={report.n_total}")
    print(f"rounds of adaptivity: {report.rounds_of_adaptivity}")
    if report.plan is not None:
        plan = report.plan
        n_vec = [plan.n_by_magnitude[i] for i in range(1, plan.i_max + 1)]
        print(f"plan: t={plan.t} i_max={plan.i_max} K={plan.batches} n_i={n_vec}")
    return 0


def _printer(runner, summary_line: str = ""):
    """An action printing the runner's CSV, then ``summary_line`` filled from
    the runner's summary dict."""
    def action(cfg: ExperimentConfig) -> int:
        result = runner(cfg)
        print(result[-1], end="")
        if summary_line:
            print(summary_line.format_map(result[1]))
        return 0
    return action


def _verify(cfg: ExperimentConfig) -> int:
    report = run_verify(sigma=cfg.sigma, lam=cfg.lam)
    print(report.manifest())
    return 0 if report.passed else 3


# read by every runner that runs trials and writes a CSV
_SWEEP = "trials seed out threads"

# name: (summary, the ExperimentConfig fields its runner reads, action)
COMMANDS = {
    "run": ("single estimate with plan summary",
            "method fixture lam sigma eps delta profile seed", _run),
    "localize": ("localization coverage trials",
                 f"method fixture lam sigma delta {_SWEEP}",
                 _printer(run_localize, "coverage: {coverage:.3f} over {trials} trials")),
    "pac": ("PAC success sweep", f"fixture lam sigma eps delta profile {_SWEEP}",
            _printer(run_pac, "success rate: {success_rate:.3f} "
                              "(95% lower bound {lower_bound_95:.3f})")),
    "scaling": ("predicted-cost scaling study", "eps_list k lam sigma delta profile out",
                _printer(run_scaling)),
    "anytime": ("budget-oblivious estimation",
                f"budget fixture lam sigma delta profile {_SWEEP}", _printer(run_anytime)),
    "scale-adapt": ("unknown-scale grid search",
                    f"sigma_min sigma_max ratio fixture lam sigma delta profile {_SWEEP}",
                    _printer(run_scale_adapt, "success rate: {success_rate:.3f}")),
    "gap": ("adaptive vs non-adaptive success curves",
            f"budgets k lam sigma eps delta profile {_SWEEP}", _printer(run_gap)),
    "verify": ("full analytic verification suite", "lam sigma", _verify),
}

# argparse settings for each ExperimentConfig annotation
_FLAG_KINDS = {
    "int": {"type": int},
    "float": {"type": float},
    "str": {},
    "str | None": {},
    "tuple[int, ...]": {"type": int, "nargs": "*"},
    "tuple[float, ...]": {"type": float, "nargs": "*"},
}
_HELP = {"profile": "proof-safe or empirical", "method": "median or gray"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitmean",
        description="1-bit mean estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    annotations = {f.name: f.type for f in fields(ExperimentConfig)}
    for name, (summary, names, _) in COMMANDS.items():
        # SUPPRESS keeps untyped flags out of the namespace, so they cannot
        # override the config file or ExperimentConfig's defaults
        sub = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for field in names.split():
            flag = "--lambda" if field == "lam" else "--" + field.replace("_", "-")
            sub.add_argument(flag, dest=field, help=_HELP.get(field),
                             **_FLAG_KINDS[annotations[field]])
        sub.add_argument("--config", help="JSON file of settings; typed flags win")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    typed = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    file_values = {}
    if "config" in args:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_values = json.load(fh)
    return ExperimentConfig(**{**file_values, **typed})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    try:
        return COMMANDS[args.command][2](cfg)
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
