"""edgelam-sim benchmark: end-to-end CLI runs with a correctness gate.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli_shipped --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one table

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs half the passes untraced and half with the span wrappers
of ``tracer.py`` installed, and reports the per-layer metrics plus the
tracing overhead.  The first traced pass also counts calls to the hot
helpers; its times are not used, because the counters inflate them.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers for people, with sample counts, the error rate and where
the run came from.

Each workload is one client in a closed loop: the next scenario starts when
the previous one has exited.  ``--seconds`` is turned into a fixed number of
passes over the workload's scenario list (see ``workloads.passes_for``), so
two versions of the program are measured on identical work.  The first pass
of each process kind warms up and is checked but not timed.  The probe of
``hostspeed.py`` runs before every scenario and every set-up sample, and
``setup_s`` and ``pass_s`` are given at the host speed of its reference
time.  BLAS is pinned to one thread.  Everything is written under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import hostspeed
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH / "references.json"

SETUP_REPEATS = 5  # before the passes and again after them, so ten in all
STOP_AFTER_S = 110.0  # start no pass after this, so a slow host still exits within 180 s
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# setup_s and pass_s are scaled to reference host speed (see hostspeed.py);
# the unscaled times, and the median and tail of all scenario runs, are
# printed too, unbounded, with their sample counts
END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: name -> unit; "<span>.calls|.s|.self_s" read straight
# from the aggregated spans, the rest are derived in ``layer_metrics``
PER_LAYER = {
    "scenarios.load_scenario.calls": "count",
    "scenarios.load_scenario.self_s": "s",
    "scenarios.write_json.s": "s",
    "scenarios.write_csv.rows": "count",
    "scenarios.write_csv.s": "s",
    "scenarios.run_scenario.self_s": "s",
    "fedft.select_devices_and_bandwidth.calls": "count",
    "fedft.select_devices_and_bandwidth.self_s": "s",
    "netsim.shannon_rate.calls": "count",
    "fedft.fedft_round.calls": "count",
    "fedft.fedft_round.self_s": "s",
    "cot_placement.solve_exact.calls": "count",
    "cot_placement.solve_exact.s": "s",
    "cot_placement.solve_exact.placements": "count",
    "cot_placement.solve_exact.feasible_ratio": "ratio",
    "accel.placement_scan.s": "s",
    "cot_placement.solve_local_search.s": "s",
    "cot_placement.solve_local_search.gap_mean": "ratio",
    "moe_orchestrator.orchestrate.calls": "count",
    "moe_orchestrator.orchestrate.self_s": "s",
    "moe_orchestrator.orchestrate.slots_per_s": "1/s",
    "moe_orchestrator.gate_select.s": "s",
    "accel.assignment_scores.calls": "count",
    "accel.assignment_scores.candidates": "count",
    "accel.assignment_scores.s": "s",
    "unlearn.pretrain.s": "s",
    "unlearn.unlearning_round.self_s": "s",
    "unlearn.bce_dataset_grad.calls": "count",
    "unlearn.bce_dataset_grad.s": "s",
    "unlearn.retained_subspace.s": "s",
    "unlearn.retained_subspace.kept_ratio": "ratio",
    "unlearn.orthogonal_project.s": "s",
    "unlearn.add_dp_noise.s": "s",
    "numerics.gram_schmidt.s": "s",
    "rng.stream.calls": "count",
    "casestudy.calibrate_casestudy.s": "s",
    "trace.overhead_s": "s",
}

# count-only metrics, read from the one traced pass that ran with counters
COUNTED_METRICS = {f"{tr.metric_name(m, f)}.calls" for m, f in tr.COUNTED}

# derived per-layer metrics -> the (span, note) pairs they are computed from;
# a metric is not reported when its span was called but a note is missing
DERIVED_FROM = {
    "scenarios.write_csv.rows": (("scenarios.write_csv", "rows"),),
    "cot_placement.solve_exact.placements": (("cot_placement.solve_exact", "placements"),),
    "cot_placement.solve_exact.feasible_ratio": (
        ("cot_placement.solve_exact", "n_feasible"), ("cot_placement.solve_exact", "placements")),
    "cot_placement.solve_local_search.gap_mean": (
        ("cot_placement.solve_exact", "cost"), ("cot_placement.solve_local_search", "cost")),
    "moe_orchestrator.orchestrate.slots_per_s": (("moe_orchestrator.orchestrate", "slots"),),
    "accel.assignment_scores.candidates": (("accel.assignment_scores", "candidates"),),
    "unlearn.retained_subspace.kept_ratio": (
        ("unlearn.retained_subspace", "given"), ("unlearn.retained_subspace", "kept")),
}

NUMBA_NOTE = (
    "numba is not installed, so ACCEL_BACKEND is numpy: the README's ~7x / ~4x "
    "numba speedups are not measured by this benchmark"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in BLAS_THREADS:
        env[var] = "1"
    return env


def spawn(cmd: list[str], env: dict, log: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def measure_setup(env: dict, log: Path, warm_up: bool) -> tuple[list[float], list[float]]:
    """Fresh-interpreter ``import edgelam_sim.cli`` wall times, and the probe before each."""
    cmd = [sys.executable, "-c", "import edgelam_sim.cli"]
    samples, probes = [], []
    for i in range(SETUP_REPEATS + warm_up):
        probe = hostspeed.probe()
        code, wall, _ = spawn(cmd, env, log)
        if code != 0:
            raise BenchError(f"`import edgelam_sim.cli` failed (exit {code}); see {log}")
        if i or not warm_up:
            samples.append(wall)
            probes.append(probe)
    return samples, probes


def run_cli_pass(entries: list[dict], env: dict, log: Path, traced: bool) -> dict:
    """One pass of fresh CLI processes, as a user would type them."""
    times, codes, probes, rss = [], [], [], 0.0
    for e in entries:
        argv = ["run", "--config", e["config"], "--out", e["out"]]
        if traced:
            count = "1" if e["counted"] else "0"
            cmd = [sys.executable, str(BENCH / "worker.py"), "cli", e["spans"], count, *argv]
        else:
            cmd = [sys.executable, "-m", "edgelam_sim.cli", *argv]
        probes.append(hostspeed.probe())
        code, wall, peak = spawn(cmd, env, log)
        times.append(wall)
        codes.append(code)
        rss = max(rss, peak)
    return {"times": times, "codes": codes, "probes": probes, "peak_rss_mb": rss}


def run_warm(passes: list[list[dict]], env: dict, run_dir: Path, tag: str, spans: Path | None) -> dict:
    """All passes in one warm worker process; returns the worker's result."""
    plan_path, result_path = run_dir / f"plan_{tag}.json", run_dir / f"result_{tag}.json"
    counted = [p for p, entries in enumerate(passes) if entries[0].get("counted")]
    with open(plan_path, "w", encoding="utf-8") as f:
        json.dump({"passes": passes, "spans": str(spans) if spans else None,
                   "counted": counted, "stop_after_s": STOP_AFTER_S}, f)
    cmd = [sys.executable, str(BENCH / "worker.py"), "warm", str(plan_path), str(result_path)]
    code, _, _ = spawn(cmd, env, run_dir / "stderr.log")
    if code != 0:
        raise BenchError(f"worker exited {code}; see {run_dir / 'stderr.log'}")
    with open(result_path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def pass_wall(results: list[dict]) -> float:
    """Mean wall time of one pass over the scenario list."""
    return math.fsum(t for r in results for t in r["times"]) / len(results)


def pass_time(results: list[dict]) -> float:
    """Mean time of one pass, in seconds at reference host speed."""
    return pass_wall(results) * hostspeed.scale([p for r in results for p in r["probes"]])


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0  # too few samples for a tail; report the maximum
    return s[n - 11], 100.0 * (n - 10) / n


def _gaps(spans: list[list]) -> list[float]:
    """Local-search gap to the exact cost, paired within each scenario."""
    gaps, exact = [], None
    for name, _, _, _, note in spans:
        if name == "scenarios.run_scenario":
            exact = None
        elif name == "cot_placement.solve_exact" and note:
            exact = note["cost"]
        elif name == "cot_placement.solve_local_search" and note and exact:
            gaps.append((note["cost"] - exact) / exact)
    return gaps


def pass_layers(records: list[tuple], absent: set) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its (spans, counts, base, counted) records.

    A function the program no longer has (``absent``) gives no metric, and
    neither does a note its span stopped recording: a missing metric is not
    a measured zero.  A function the workload never calls reads 0.
    """
    agg: dict[str, dict] = {}
    gaps: list[float] = []
    for spans, counts, base, _ in records:
        for name, a in tr.aggregate(spans, counts, base).items():
            tot = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": {}})
            for key in ("calls", "s", "self_s"):
                tot[key] += a[key]
            for key, values in a["notes"].items():
                tot["notes"].setdefault(key, []).extend(values)
        gaps += _gaps(spans)

    def notes(span: str, key: str) -> float:
        return float(sum(agg.get(span, {}).get("notes", {}).get(key, [])))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    derived = {
        "scenarios.write_csv.rows": notes("scenarios.write_csv", "rows"),
        "cot_placement.solve_exact.placements": notes("cot_placement.solve_exact", "placements"),
        "cot_placement.solve_exact.feasible_ratio": ratio(
            notes("cot_placement.solve_exact", "n_feasible"),
            notes("cot_placement.solve_exact", "placements"),
        ),
        "cot_placement.solve_local_search.gap_mean": statistics.fmean(gaps) if gaps else 0.0,
        "moe_orchestrator.orchestrate.slots_per_s": ratio(
            notes("moe_orchestrator.orchestrate", "slots"),
            agg.get("moe_orchestrator.orchestrate", {}).get("s", 0.0),
        ),
        "accel.assignment_scores.candidates": notes("accel.assignment_scores", "candidates"),
        "unlearn.retained_subspace.kept_ratio": ratio(
            notes("unlearn.retained_subspace", "kept"),
            notes("unlearn.retained_subspace", "given"),
        ),
    }

    def measured(span: str, key: str | None = None) -> bool:
        if span in absent:
            return False
        a = agg.get(span)
        return key is None or a is None or len(a["notes"].get(key, ())) == a["calls"]

    out = {}
    for metric in PER_LAYER:
        if metric in derived:
            if all(measured(span, key) for span, key in DERIVED_FROM[metric]):
                out[metric] = derived[metric]
        elif metric != "trace.overhead_s":
            span, key = metric.rsplit(".", 1)
            if measured(span):
                out[metric] = float(agg.get(span, {}).get(key, 0))
    return out


def read_spans(path: Path, absent: set | None = None) -> list[tuple[list, dict, int, bool]]:
    """Per-pass (spans, counts, base, counted) records of one spans file.

    Functions the program no longer has are added to ``absent``.
    """
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    spans, marks = data["spans"], data["marks"]
    if absent is not None:
        absent.update(data["missing"])
    out = []
    for lo, hi, counted in zip(marks, marks[1:], data["counted"]):
        counts = {k: v - lo["counts"].get(k, 0) for k, v in hi["counts"].items()}
        out.append((spans[lo["spans"]:hi["spans"]], counts, lo["spans"], counted))
    return out


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` directly (no parent search)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(extra: dict) -> dict:
    info = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **extra,
    }
    if info.get("accel_backend") != "numba":
        info["note"] = NUMBA_NOTE
    return info


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def preflight() -> None:
    if not (SRC / "edgelam_sim" / "cli.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if not (ROOT / "scenarios").is_dir():
        raise BenchError(f"shipped scenarios not found under {ROOT / 'scenarios'}")


def materialize(scenarios: list[wl.Scenario], run_dir: Path) -> list[dict]:
    """Write generated configs; returns per-scenario {name, kind, config path, cfg}."""
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True)
    out = []
    for sc in scenarios:
        if sc.config is None:
            path = ROOT / "scenarios" / f"{sc.name}.json"
            with open(path, encoding="utf-8") as f:
                cfg = json.load(f)
        else:
            cfg = sc.config
            path = cfg_dir / f"{sc.name}.json"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(cfg, f, indent=1)
        out.append({"scenario": sc, "kind": cfg["kind"], "path": str(path), "cfg": cfg})
    return out


def plan_pass(items: list[dict], run_dir: Path, index: int, traced: bool, counted: bool) -> list[dict]:
    entries = []
    for it in items:
        name = it["scenario"].name
        e = {"config": it["path"], "out": str(run_dir / "out" / f"p{index}" / name)}
        if traced:
            e["spans"] = str(run_dir / "spans" / f"p{index}_{name}.json")
            e["counted"] = counted
        entries.append(e)
    return entries


def reference_key(scale: str, sc: wl.Scenario) -> str:
    return f"shipped/{sc.name}" if sc.config is None else f"{scale}/{sc.name}"


def verify(items: list[dict], pass_dirs: list[Path], codes: list[list[int]],
           references: dict, scale: str) -> tuple[int, list[str]]:
    """Check every scenario run; returns (failed runs, messages).

    The first run that exited 0 goes through the reference and oracle
    checks; every other run must have written byte-identical files.
    """
    failed, messages = 0, []
    for i, it in enumerate(items):
        sc = it["scenario"]
        runs = [(p, d / sc.name, c[i]) for p, (d, c) in enumerate(zip(pass_dirs, codes))]
        errors = [f"pass {p}: exit code {code}" for p, _, code in runs if code != 0]
        bad = {p for p, _, code in runs if code != 0}
        good = [(p, d) for p, d, code in runs if code == 0]
        if good:
            try:
                out = checks.load_outputs(it["kind"], good[0][1])
                found = checks.check(it["kind"], it["cfg"], out, sc.expect)
                if sc.pinned:
                    ref = references.get(reference_key(scale, sc))
                    found += checks.compare(ref, checks.fields(it["kind"], out)) if ref else [
                        "no recorded reference"]
            except (OSError, LookupError, ValueError, TypeError) as exc:
                found = [f"unreadable output: {exc!r}"]
            if found:
                errors += found
                bad.update(p for p, _ in good)
            else:
                first = checks.digest_files(good[0][1])
                for p, d in good[1:]:
                    if checks.digest_files(d) != first:
                        errors.append(f"pass {p} wrote different bytes than pass {good[0][0]}")
                        bad.add(p)
        failed += len(bad)
        messages += [f"{sc.name}: {e}" for e in errors]
    return failed, messages


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    preflight()
    workload = wl.WORKLOADS[name]
    run_dir = WORK / f"{name}-seed{seed}-trace{int(trace)}-{scale}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "spans").mkdir()
    log = run_dir / "stderr.log"
    env = child_env()
    items = materialize(workload.build(seed, scale), run_dir)
    n_passes = wl.passes_for(workload, seconds)
    if trace:
        n_passes = max(n_passes, 4)  # one counted and at least one timed traced pass
    traced_flags = [trace and p % 2 == 1 for p in range(n_passes)]
    counted_pass = 1 if trace else None
    with open(REFERENCES, encoding="utf-8") as f:
        references = json.load(f)

    # set-up is sampled before and after the passes: the host's speed drifts
    # over tens of seconds, and one burst of samples would catch one moment
    setup, setup_probes = ([], []) if trace else measure_setup(env, log, warm_up=True)
    plans = [plan_pass(items, run_dir, p, t, p == counted_pass) for p, t in enumerate(traced_flags)]
    results: list[dict] = []  # per pass: times, codes, traced, peak_rss_mb
    started = time.perf_counter()
    if workload.warm:
        extra = {}
        for traced in sorted(set(traced_flags)):
            idx = [p for p, t in enumerate(traced_flags) if t == traced]
            spans = run_dir / "spans" / "warm.json" if traced else None
            res = run_warm([plans[p] for p in idx], env, run_dir, f"t{int(traced)}", spans)
            extra = {"numpy": res["numpy"], "accel_backend": res["accel_backend"]}
            n = len(items)
            for j, p in enumerate(idx[:len(res["times"]) // n]):
                results.append({
                    "pass": p, "traced": traced,
                    "times": res["times"][j * n:(j + 1) * n], "codes": res["codes"][j * n:(j + 1) * n],
                    "probes": res["probes"][j * n:(j + 1) * n],
                    "peak_rss_mb": res["peak_rss_mb"],
                })
        peak_rss = max(r["peak_rss_mb"] for r in results if not r["traced"])
    else:
        for p, plan in enumerate(plans):
            if time.perf_counter() - started > STOP_AFTER_S:
                break
            res = run_cli_pass(plan, env, log, traced_flags[p])
            results.append({"pass": p, "traced": traced_flags[p], **res})
        peak_rss = max(r["peak_rss_mb"] for r in results if not r["traced"])
        out = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "provenance"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        extra = json.loads(out.stdout)
    results.sort(key=lambda r: r["pass"])
    if not trace:
        samples, probes = measure_setup(env, log, warm_up=False)
        setup += samples
        setup_probes += probes

    pass_dirs = [run_dir / "out" / f"p{r['pass']}" for r in results]
    failed, messages = verify(items, pass_dirs, [r["codes"] for r in results], references, scale)
    attempted = len(items) * len(results)

    # the first pass of each kind warms up; with --trace 1 the first traced
    # pass is also the one that ran with call counters
    first = {}
    for r in results:
        first.setdefault(r["traced"], r["pass"])
    timed = [r for r in results if r["pass"] != first[r["traced"]]]
    untraced = [r for r in timed if not r["traced"]]
    if not untraced:
        raise BenchError("the run ended before an untimed warm-up pass and a timed pass")
    scen = [t for r in untraced for t in r["times"]]
    tail_value, tail_pct = tail(scen)
    report = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "passes": len(results),
        "scenarios_per_pass": len(items),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "messages": messages,
        "provenance": provenance(extra),
        "generator": {"sizes": wl.SIZES[scale] if workload.warm else "shipped scenarios/",
                      "reference_seed": wl.REFERENCE_SEED},
    }
    if trace:
        absent: set = set()
        if workload.warm:
            per_pass = [[rec] for rec in read_spans(run_dir / "spans" / "warm.json", absent)]
        else:
            per_pass = [
                [rec for e in plans[r["pass"]] for rec in read_spans(Path(e["spans"]), absent)]
                for r in results if r["traced"]
            ]
        counted = [pass_layers(recs, absent) for recs in per_pass if recs and recs[0][3]]
        uncounted = [pass_layers(recs, absent) for recs in per_pass if recs and not recs[0][3]]
        if not counted or not uncounted:
            raise BenchError("the run ended before a counted and a timed traced pass")
        metrics = {}
        for m in PER_LAYER:
            source = counted if m in COUNTED_METRICS else uncounted
            if all(m in pm for pm in source):
                metrics[m] = statistics.median(pm[m] for pm in source)
        metrics["trace.overhead_s"] = pass_time([r for r in timed if r["traced"]]) - pass_time(untraced)
        report["absent"] = sorted(absent)
        report["not_measured"] = [m for m in PER_LAYER if m not in metrics]
        report["metrics"] = {m: {"value": v, "unit": PER_LAYER[m]} for m, v in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setup) * hostspeed.scale(setup_probes),
            "pass_s": pass_time(untraced),
            "peak_rss_mb": peak_rss,
        }
        report["metrics"] = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
        report["samples"] = {
            "setup_s": f"median of {len(setup)}, scaled by {hostspeed.scale(setup_probes):.4f}",
            "pass_s": f"mean of {len(untraced)} passes, scaled by "
                      f"{hostspeed.scale([p for r in untraced for p in r['probes']]):.4f}",
            "peak_rss_mb": "max over " + ("the worker" if workload.warm else f"{len(scen)} CLI processes"),
        }
        report["unbounded"] = {
            "setup_wall_s": (statistics.median(setup), f"{len(setup)} samples, unscaled"),
            "pass_wall_s": (pass_wall(untraced), f"{len(untraced)} passes, unscaled"),
            "scenario_s.p50": (statistics.median(scen), f"{len(scen)} samples"),
            "scenario_s.tail": (tail_value, f"{len(scen)} samples, p{tail_pct:.1f}"),
        }
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  scale {report['scale']}  "
          f"passes {report['passes']} x {report['scenarios_per_pass']} scenarios")
    samples = report.get("samples", {})
    for m, v in report["metrics"].items():
        n = samples.get(m)
        print(f"  {m:48s} {v['value']:.6g} {v['unit']}" + (f"  (n={n})" if n is not None else ""))
    for m, (value, n) in report.get("unbounded", {}).items():
        print(f"  {m:48s} {value:.6g} s  (n={n}; unbounded)")
    print(f"  {'error_rate':48s} {report['error_rate']:.6g}  "
          f"({report['failed']} of {report['attempted']} scenario runs failed)")
    if report.get("absent"):
        print(f"  not in this version of the program: {', '.join(report['absent'])}")
    if report.get("not_measured"):
        print(f"  not measured, so not reported: {', '.join(report['not_measured'])}")
    for msg in report["messages"][:20]:
        print(f"  FAIL {msg}")
    print(json.dumps({"provenance": report["provenance"], "generator": report["generator"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print_report(report)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": reports[-1]["metrics"] if len(reports) == 1 else {
            f"{r['workload']}.{m}": v for r in reports for m, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
