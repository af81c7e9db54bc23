"""The functions the benchmark's traced run wraps by name still exist.

``perfbench/tracer.py`` wraps program functions by module and name
(``SPANNED``, ``COUNTED``) and reads some of their arguments for its notes.
A function that is renamed or removed, or an argument whose shape changes,
silently drops a metric from the traced run; these tests fail instead.
The tracer is loaded from its file, since ``perfbench`` is not a package.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from edgelam_sim.scenarios import run_scenario

from test_scenarios import shipped_cfg, write_cfg

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def installed(tracer):
    """The tracer's spans installed on every program module, and removed after."""
    modules = [importlib.import_module(f"{tracer.PACKAGE}.{m}") for m in tracer.MODULES]
    saved = [(m, dict(vars(m))) for m in modules]
    rec = tracer.Tracer()
    assert tracer.install(rec) == []
    try:
        yield rec
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)


def test_every_traced_function_exists(tracer):
    for module, function in [(m, f) for m, f, _ in tracer.SPANNED] + list(tracer.COUNTED):
        mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_moe_run_gives_every_note(installed, tracer, tmp_path):
    cfg = shipped_cfg("moe_tradeoff")
    cfg["moe"]["slots"] = 7
    path = write_cfg(tmp_path, cfg)
    assert run_scenario(path, tmp_path / "out") == 0
    spans = tracer.aggregate(installed.spans, {})
    runs = 1 + len(set(cfg["moe"]["v_sweep"]) - {cfg["moe"]["v"]})
    orchestrate = spans["moe_orchestrator.orchestrate"]
    assert orchestrate["calls"] == runs
    assert orchestrate["notes"]["slots"] == [7] * runs
    scores = spans["accel.assignment_scores"]
    calls_per_slot = cfg["moe"]["top_k"] * cfg["moe"]["layers_per_task"]
    assert scores["notes"]["candidates"] == [calls_per_slot] * scores["calls"]
    assert scores["calls"] == 7 * runs  # every slot of moe_tradeoff has a task
    assert spans["scenarios.write_csv"]["notes"]["rows"] == [7]
    assert spans["moe_orchestrator.gate_select"]["calls"] >= runs
    summary = json.loads((tmp_path / "out" / "moe_summary.json").read_text())
    assert len(summary["v_sweep"]) == len(cfg["moe"]["v_sweep"])


def test_unlearn_run_gives_every_span(installed, tracer, tmp_path):
    cfg = shipped_cfg("unlearn_optout")
    rounds, opt_out = 3, ["d1", "d3"]
    cfg["unlearn"].update(opt_out=opt_out, pretrain_rounds=4, unlearn_rounds=rounds)
    path = write_cfg(tmp_path, cfg)
    assert run_scenario(path, tmp_path / "out") == 0
    spans = tracer.aggregate(installed.spans, {})
    for name in ("unlearn.pretrain", "unlearn.unlearning_round", "unlearn.bce_dataset_grad",
                 "unlearn.orthogonal_project", "numerics.gram_schmidt"):
        assert name in spans, name
    # one subspace per opt-out model per round, over the retained devices' gradients
    subspace = spans["unlearn.retained_subspace"]
    n_spans = len(opt_out) * rounds
    retained = len(cfg["devices"]) - len(opt_out)
    assert subspace["calls"] == n_spans
    assert subspace["notes"]["given"] == [retained] * n_spans
    kept = subspace["notes"]["kept"]
    assert len(kept) == n_spans and all(1 <= k <= retained for k in kept)
