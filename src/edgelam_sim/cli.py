"""Command-line entry point: run, validate, and case-study subcommands."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .scenarios import (
    EXIT_CONFIG,
    EXIT_OK,
    Scenario,
    load_scenario,
    parse_scenario,
    run_guarded,
    run_scenario,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built at the first ``main`` call and reused by
    later calls in the process; ``parse_args`` leaves it unchanged."""
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
        "--targets", default=None,
        help="mem,lat reduction targets used with --calibrate (default: the paper's)",
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

    def load() -> Scenario:
        try:
            flag = "--budgets"
            budgets = [int(b) for b in args.budgets.split(",") if b]
            flag = "--targets"
            if args.targets is not None:  # else the parser's default targets
                mem_t, lat_t = (float(t) for t in args.targets.split(","))
        except ValueError as exc:
            raise ConfigError(str(exc), flag) from None
        if args.calibrate:
            block = {"budgets": budgets, "calibrate": True}
            if args.targets is not None:
                block["targets"] = [mem_t, lat_t]
        else:
            # the uncalibrated sweep's model; an empty budget list is left
            # for the parser to name
            block = {"budgets": budgets, "model": dict(
                n_total=608, t_budget=min(budgets, default=1),
                alpha_mem=cs.DEFAULT_ALPHA_MEM, beta_comp=cs.DEFAULT_BETA_COMP,
                gamma_handoff=0.03, base_mem=1e4,
            )}
        # seed 0: the model draws no random numbers
        config = {"kind": "casestudy", "seed": 0, "casestudy": block}
        try:
            return parse_scenario(json.dumps(config))
        except ConfigError as exc:
            flag = "--targets" if exc.where == "casestudy.targets" else "--budgets"
            raise ConfigError(str(exc).removeprefix(f"{exc.where}: "), flag) from None

    # the run always writes its outputs, and the table is read back from
    # them; without --out they go to a directory that is removed afterwards
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(args.out or scratch)
        code, line = run_guarded(load, out)
        if code != EXIT_OK:
            print(line, file=sys.stderr)
            return code
        summary = json.loads((out / "casestudy_summary.json").read_text(encoding="utf-8"))
        with open(out / "casestudy_sweep.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
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
    for r in rows:  # the cells are shortest round-trip text, so float() gives back each value
        print(
            f"{r['max_tokens']:>6} {r['device_count']:>8} {float(r['mem_reduction']):>9.3f} "
            f"{float(r['lat_reduction']):>9.3f} {float(r['combined_normalized_cost']):>10.4f}"
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
