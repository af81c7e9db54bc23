"""Command-line entry point: run, validate, and case-study subcommands."""

from __future__ import annotations

import argparse
import math
import sys

from .errors import ConfigError, SizeLimitError
from .scenarios import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    InfeasibleScenario,
    _run_casestudy,
    load_scenario,
    make_out_dir,
    run_scenario,
)

SWEEP_N_TOTAL = 608  # chain length of the uncalibrated sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgelam-sim",
        description="Deterministic edge-LAM deployment simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    run_p.add_argument("--config", required=True, help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")

    val_p = sub.add_parser("validate", help="parse and validate a scenario config")
    val_p.add_argument("--config", required=True, help="scenario JSON file")

    case_p = sub.add_parser("casestudy", help="token-budget sweep / calibration")
    case_p.add_argument(
        "--budgets", default="64,128,256",
        help="comma-separated per-device token budgets",
    )
    case_p.add_argument(
        "--calibrate", action="store_true",
        help="calibrate the model to the reported reductions before sweeping",
    )
    case_p.add_argument(
        "--targets", default="0.708,0.596",
        help="mem,lat reduction targets used with --calibrate",
    )
    case_p.add_argument("--out", default=None, help="optional output directory")
    return parser


def _cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: kind={scenario.kind} seed={scenario.seed}")
    return EXIT_OK


def _cmd_casestudy(args) -> int:
    import tempfile

    from . import casestudy as cs

    try:
        flag = "--budgets"
        budgets = [int(b) for b in args.budgets.split(",") if b]
        flag = "--targets"
        mem_t, lat_t = (float(t) for t in args.targets.split(","))
    except ValueError as exc:
        print(f"config error: {flag}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.calibrate and not (0 < mem_t < 1 and 0 < lat_t < 1):
        print("config error: --targets: must be two fractions in (0,1)", file=sys.stderr)
        return EXIT_CONFIG
    top = math.inf if args.calibrate else SWEEP_N_TOTAL
    if not budgets or not all(1 <= b <= top for b in budgets):
        limit = "" if args.calibrate else f" up to n_total {top}"
        print(f"config error: --budgets: must be positive integers{limit}", file=sys.stderr)
        return EXIT_CONFIG
    if args.calibrate:
        spec = {"budgets": budgets, "targets": (mem_t, lat_t), "model": None}
    else:
        spec = {
            "budgets": budgets,
            "targets": None,
            "model": dict(
                n_total=SWEEP_N_TOTAL, t_budget=min(budgets),
                alpha_mem=cs.DEFAULT_ALPHA_MEM, beta_comp=cs.DEFAULT_BETA_COMP,
                gamma_handoff=0.03, base_mem=1e4, compute_rate=cs.DEFAULT_COMPUTE_RATE,
            ),
        }
    # the runner always writes its outputs; without --out they go to a
    # directory that is removed after the run
    with tempfile.TemporaryDirectory() as scratch:
        try:
            out = make_out_dir(args.out or scratch)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            summary, rows = _run_casestudy(spec, 0, out)  # the model draws no random numbers
        except (InfeasibleScenario, SizeLimitError) as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    if args.calibrate:
        model, cal = summary["model"], summary["calibration"]
        print(
            f"calibrated: N={model['n_total']} gamma_handoff={model['gamma_handoff']:.6g}s "
            f"base_mem={model['base_mem']:.6g}B "
            f"(mem_reduction={cal['achieved']['mem_reduction']:.3f}, "
            f"lat_reduction={cal['achieved']['lat_reduction']:.3f}) {cal['message']}"
        )
    header = f"{'T':>6} {'devices':>8} {'mem_red':>9} {'lat_red':>9} {'norm_cost':>10}"
    print(header)
    for r in rows:
        print(
            f"{r.t_budget:>6} {r.device_count:>8} {r.mem_reduction:>9.3f} "
            f"{r.lat_reduction:>9.3f} {r.combined_normalized_cost:>10.4f}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, args.out, seed=args.seed)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "casestudy":
        return _cmd_casestudy(args)
    return EXIT_CONFIG  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
