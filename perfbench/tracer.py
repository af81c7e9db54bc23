"""Span recording for the traced benchmark run.

The program itself has no trace hooks, so the traced run wraps the public
functions of each module from outside.  A function imported by name into
another module (``shannon_rate``, ``assignment_scores``, ``gram_schmidt``,
``stream``, ...) is a second reference to the same object, so every module
attribute that *is* the original function is replaced, not just the one in
the defining module.

Spans are kept in memory as ``[name, start, end, parent, note]`` and written
out once, at the end of the process.  Two hot helpers are counted only
(``COUNTED``), because a span per call would cost more than the call.  Even
the counter costs about as much as ``shannon_rate`` itself, and that cost
would land in the self time of the span that calls it, so counters are
installed for one pass and removed again (``count_calls``); timings come
from the passes that run without them.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable

PACKAGE = "edgelam_sim"
MODULES = (
    "cli", "scenarios", "fedft", "cot_placement", "_accel", "moe_orchestrator",
    "unlearn", "numerics", "netsim", "rng", "casestudy",
)


def _rows(args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    return {"rows": len(rows)}


def _exact(args, kwargs, result):
    chain, devices = args[0], args[1]
    note = {"placements": len(devices) ** len(chain), "cost": result.cost}
    n_feasible = getattr(result, "n_feasible", None)
    if n_feasible is not None:
        note["n_feasible"] = n_feasible
    return note


def _local_search(args, kwargs, result):
    return {"cost": result.cost}


def _slots(args, kwargs, result):
    return {"slots": kwargs["n_slots"] if "n_slots" in kwargs else args[2]}


def _candidates(args, kwargs, result):
    return {"candidates": len(args[0])}


def _subspace(args, kwargs, result):
    return {"given": len(args[0]), "kept": result.n_basis}


# (module, function, note) for every span; the metric prefix drops the
# leading underscore of ``_accel`` because metric names start with a letter
SPANNED = (
    ("scenarios", "load_scenario", None),
    ("scenarios", "run_scenario", None),
    ("scenarios", "write_csv", _rows),
    ("scenarios", "write_json", None),
    ("fedft", "select_devices_and_bandwidth", None),
    ("fedft", "fedft_round", None),
    ("cot_placement", "solve_exact", _exact),
    ("cot_placement", "solve_local_search", _local_search),
    ("_accel", "placement_scan", None),
    ("moe_orchestrator", "orchestrate", _slots),
    ("moe_orchestrator", "gate_select", None),
    ("_accel", "assignment_scores", _candidates),
    ("unlearn", "pretrain", None),
    ("unlearn", "unlearning_round", None),
    ("unlearn", "bce_dataset_grad", None),
    ("unlearn", "retained_subspace", _subspace),
    ("unlearn", "orthogonal_project", None),
    ("unlearn", "add_dp_noise", None),
    ("numerics", "gram_schmidt", None),
    ("casestudy", "calibrate_casestudy", None),
)
COUNTED = (("netsim", "shannon_rate"), ("rng", "stream"))


def metric_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


class Tracer:
    """Spans and call counts of one process, in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def span(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                try:
                    rec[4] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # signature changed: keep the span, drop the note
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def mark(self) -> dict:
        """Position to split the record per pass."""
        return {"spans": len(self.spans), "counts": dict(self.counts)}


def _modules() -> dict:
    """The program's modules that exist in this version, by short name."""
    out = {}
    for m in MODULES:
        try:
            out[m] = importlib.import_module(f"{PACKAGE}.{m}")
        except ModuleNotFoundError:
            pass
    return out


def _swap(modules, old, new) -> None:
    """Point every module attribute that is ``old`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def install(tracer: Tracer) -> list[str]:
    """Wrap every spanned function wherever it is referenced; returns what is absent.

    A module or function a later version of the program removed is skipped,
    and its metrics are not reported.
    """
    by_name = _modules()
    missing = []
    for module, function, note in SPANNED:
        name = metric_name(module, function)
        original = getattr(by_name.get(module), function, None)
        if original is None:
            missing.append(name)
            continue
        _swap(by_name.values(), original, tracer.span(name, original, note))
    return missing


def count_calls(tracer: Tracer) -> tuple[list[str], Callable[[], None]]:
    """Install the call counters; returns (absent names, a function removing them)."""
    by_name = _modules()
    missing, swapped = [], []
    for module, function in COUNTED:
        name = metric_name(module, function)
        original = getattr(by_name.get(module), function, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.counter(name, original)
        _swap(by_name.values(), original, wrapper)
        swapped.append((original, wrapper))

    def remove() -> None:
        for original, wrapper in swapped:
            _swap(by_name.values(), wrapper, original)

    return missing, remove


def aggregate(spans: list[list], counts: dict[str, int], base: int = 0) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and collected notes.

    ``spans`` is a slice of a process's record starting at index ``base``
    (parents are absolute indices).  Self time is a span's duration minus the
    durations of its direct children; calls in one thread nest, so children
    never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= base:
            child_time[parent - base] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, note) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": {}})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time[i]
        for key, value in (note or {}).items():
            agg["notes"].setdefault(key, []).append(value)
    for name, n in counts.items():
        out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": {}})["calls"] = n
    return out
