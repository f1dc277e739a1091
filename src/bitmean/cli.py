"""Command-line harness over the experiment runners.

Exit codes: 0 success, 1 configuration error, 2 usage error (argparse),
3 verification/acceptance failure.  Settings come from ``ExperimentConfig``'s defaults, overridden by the
optional JSON config file (``--config``, keyed by ``ExperimentConfig`` field
names), overridden by the flags actually typed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentConfig, _resolve_fixture, run_anytime, run_gap, run_localize, \
    run_pac, run_scale_adapt, run_scaling, run_verify, trial_rng


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=float)
    sub.add_argument("--lambda", dest="lam", type=float)
    sub.add_argument("--sigma", type=float)
    sub.add_argument("--eps", type=float)
    sub.add_argument("--delta", type=float)
    sub.add_argument("--fixture")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out")
    sub.add_argument("--profile", help="proof-safe or empirical")
    sub.add_argument("--threads", type=int)
    sub.add_argument("--config", help="JSON file of settings; typed flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitmean",
        description="1-bit mean estimation experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # SUPPRESS keeps untyped flags out of the namespace, so they cannot
        # override the config file or ExperimentConfig's defaults
        sub = subs.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        _common_flags(sub)
        return sub

    command("run", "single estimate with plan summary").add_argument(
        "--two-stage", action="store_true")
    command("localize", "localization coverage trials").add_argument(
        "--method", help="median or gray")
    command("pac", "PAC success sweep")
    command("scaling", "predicted-cost scaling study").add_argument(
        "--eps-list", type=float, nargs="+")
    command("anytime", "budget-oblivious estimation").add_argument("--budget", type=int)
    scale = command("scale-adapt", "unknown-scale grid search")
    scale.add_argument("--sigma-min", type=float)
    scale.add_argument("--sigma-max", type=float)
    scale.add_argument("--ratio", type=float)
    command("gap", "adaptive vs non-adaptive success curves").add_argument(
        "--budgets", type=int, nargs="*")
    command("verify", "full analytic verification suite")
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
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "localize":
            rows, summary, text = run_localize(cfg)
            print(text, end="")
            print(f"coverage: {summary['coverage']:.3f} over {summary['trials']} trials")
            return 0
        if args.command == "pac":
            rows, summary, text = run_pac(cfg)
            print(text, end="")
            print(f"success rate: {summary['success_rate']:.3f} "
                  f"(95% lower bound {summary['lower_bound_95']:.3f})")
            return 0
        if args.command == "scaling":
            rows, text = run_scaling(cfg)
            print(text, end="")
            return 0
        if args.command == "anytime":
            rows, text = run_anytime(cfg)
            print(text, end="")
            return 0
        if args.command == "scale-adapt":
            rows, summary, text = run_scale_adapt(cfg)
            print(text, end="")
            print(f"success rate: {summary['success_rate']:.3f}")
            return 0
        if args.command == "gap":
            rows, text = run_gap(cfg)
            print(text, end="")
            return 0
        if args.command == "verify":
            report = run_verify(sigma=cfg.sigma, lam=cfg.lam)
            print(report.manifest())
            return 0 if report.passed else 3
    except (ValueError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    return 1


def _cmd_run(cfg: ExperimentConfig) -> int:
    from .channel import Agent
    from .refine import estimate_mean
    from .variants import two_stage_estimate

    fixture = _resolve_fixture(cfg)
    agent = Agent(fixture.dist, trial_rng(cfg.seed, "run", 0))
    estimator = two_stage_estimate if cfg.two_stage else estimate_mean
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


if __name__ == "__main__":
    sys.exit(main())
