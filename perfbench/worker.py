"""Child process of the benchmark: runs scenarios through the program's CLI.

Two modes, both started by ``run.py`` with ``src`` on ``PYTHONPATH``:

``worker.py warm PLAN RESULT``
    Import ``edgelam_sim.cli`` once, then run every pass of the plan through
    ``cli.main(["run", ...])`` in this process, timing each scenario and
    running the host-speed probe of ``hostspeed.py`` before it.  With
    ``"spans"`` set in the plan, the wrappers from ``tracer.py`` are
    installed first and the spans are written there at the end; the call
    counters are installed for the passes listed in ``"counted"`` only.

``worker.py cli SPANS COUNT ARGV...``
    One traced CLI invocation in a fresh process: the traced twin of
    ``python -m edgelam_sim.cli ARGV...``, with call counters if COUNT is 1.

``worker.py provenance``
    Print the numpy version and the program's accelerator backend.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

import hostspeed
import tracer as tr

CRASHED = -1  # exit code recorded for a scenario that raised instead of returning


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _provenance() -> dict:
    import numpy

    try:
        from edgelam_sim._accel import ACCEL_BACKEND
    except ImportError:
        ACCEL_BACKEND = "absent"
    return {"numpy": numpy.__version__, "accel_backend": ACCEL_BACKEND}


def _dump(path: str, tracer: tr.Tracer, marks: list[dict], counted: list[bool],
          missing: list[str]) -> None:
    """Spans, per-pass marks, which passes were counted, and what the program lacks."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"spans": tracer.spans, "marks": marks, "counted": counted,
                   "missing": missing}, f)


def run_warm(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    t0 = time.perf_counter()
    from edgelam_sim import cli

    tracer = tr.Tracer() if plan["spans"] else None
    missing = tr.install(tracer) if tracer else []
    marks, counted = [], []
    times, codes, probes = [], [], []
    remove_counters = None
    for p, scenarios in enumerate(plan["passes"]):
        if times and time.perf_counter() - t0 > plan["stop_after_s"]:
            break
        if tracer:
            if remove_counters:
                remove_counters()
                remove_counters = None
            if p in plan["counted"]:
                absent, remove_counters = tr.count_calls(tracer)
                missing += absent
            marks.append(tracer.mark())
            counted.append(p in plan["counted"])
        for sc in scenarios:
            probes.append(hostspeed.probe())
            t = time.perf_counter()
            try:
                code = cli.main(["run", "--config", sc["config"], "--out", sc["out"]])
            except Exception:  # a crashing scenario is a failed run, not a failed benchmark
                traceback.print_exc()
                code = CRASHED
            times.append(time.perf_counter() - t)
            codes.append(code)
    if tracer:
        marks.append(tracer.mark())
        _dump(plan["spans"], tracer, marks, counted, sorted(set(missing)))
    result = {
        "times": times,
        "codes": codes,
        "probes": probes,
        "peak_rss_mb": _peak_rss_mb(),
        **_provenance(),
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


def run_cli(spans_path: str, count: bool, argv: list[str]) -> int:
    from edgelam_sim import cli

    tracer = tr.Tracer()
    missing = tr.install(tracer)
    if count:
        missing += tr.count_calls(tracer)[0]
    marks = [tracer.mark()]
    try:
        return cli.main(argv)
    finally:
        marks.append(tracer.mark())
        _dump(spans_path, tracer, marks, [count], missing)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "warm":
        sys.exit(run_warm(*rest))
    if mode == "cli":
        sys.exit(run_cli(rest[0], rest[1] == "1", rest[2:]))
    if mode == "provenance":
        print(json.dumps(_provenance()))
        sys.exit(0)
    sys.exit(f"unknown mode {mode!r}")
