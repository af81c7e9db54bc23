"""Self-test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that:
* a run of every workload, untraced and traced, reports every metric named
  in ``BENCHMARK.json`` with its unit, and passes its correctness gate;
* the traced counts (calls, placements, candidates, rows, shannon_rate
  calls) repeat exactly across two traced runs of the same seed;
* no span's self time exceeds its duration, and self times are not negative;
* the correctness gate fails when an output is wrong;
* a function or note the program no longer has is left out, not read as 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import run
import tracer as tr
import workloads as wl

COUNT_SUFFIXES = (".calls", ".placements", ".candidates", ".rows")


def _spans_files(report: dict) -> list[Path]:
    run_dir = run.WORK / f"{report['workload']}-seed{report['seed']}-trace1-tiny"
    return sorted((run_dir / "spans").glob("*.json"))


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for name in wl.WORKLOADS:
        traced_counts = []
        for trace in (False, True, True):
            report = run.run_workload(name, seed=7, seconds=1, trace=trace, scale="tiny")
            got = {m: v["unit"] for m, v in report["metrics"].items()}
            label = f"{name} trace={int(trace)}"
            expect(got == expected[trace], f"{label}: emits exactly the named metrics with units")
            expect(report["failed"] == 0 and report["attempted"] > 0,
                   f"{label}: correctness gate passes ({report['messages'][:3]})")
            if not trace:
                continue
            traced_counts.append({
                m: v["value"] for m, v in report["metrics"].items()
                if m.endswith(COUNT_SUFFIXES)
            })
            spans_ok = True
            for path in _spans_files(report):
                for spans, counts, base, _ in run.read_spans(path):
                    for agg in tr.aggregate(spans, counts, base).values():
                        spans_ok &= -1e-9 <= agg["self_s"] <= agg["s"] + 1e-9
            expect(spans_ok, f"{label}: self time within [0, duration] for every span name")
        expect(traced_counts[0] == traced_counts[1],
               f"{name}: traced counts repeat exactly across two traced runs")

    # the gate must catch a wrong result: perturb one recorded cost
    refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    ref = refs["shipped/cot_place"]
    wrong = dict(ref, **{"exact.cost_s": ref["exact.cost_s"] * (1 + 1e-6)})
    expect(checks.compare(ref, ref) == [] and checks.compare(ref, wrong) != [],
           "reference comparison rejects a changed cost")
    extra = dict(ref, n_feasible=123)
    expect(checks.compare(ref, extra) == [], "reference comparison ignores fields it does not pin")

    # a function the program lost, or a note it stopped giving, is left out, not read as 0
    spans = [["cot_placement.solve_exact", 0.0, 1.0, -1, {"placements": 8, "cost": 1.0}]]
    layers = run.pass_layers([(spans, {}, 0, False)], absent={"accel.placement_scan"})
    expect("accel.placement_scan.s" not in layers
           and "cot_placement.solve_exact.feasible_ratio" not in layers
           and layers.get("cot_placement.solve_exact.placements") == 8.0,
           "absent functions and notes are not reported")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
