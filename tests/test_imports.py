"""Import graph: the CLI, ``validate`` and a config error load no solver
module and no numpy, and a run only its own kind's modules, all before its
overflow guard.

Each check runs in a fresh interpreter, since this test process has already
imported every module.  The checks compare module names, not timings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgelam_sim

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# every run loads these, as does a bare ``import edgelam_sim.cli``
CLI = {"edgelam_sim", "edgelam_sim.cli", "edgelam_sim.errors", "edgelam_sim.scenarios"}

PROBE = """
import json, sys
from edgelam_sim import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(json.dumps([code, sorted(
    m for m in sys.modules if m.split(".")[0] == "edgelam_sim" or m == "numpy"
)]))
"""

# wraps numpy.errstate to note the modules loaded when the first one, the
# run's overflow guard, is entered; prints those loaded after that
GUARD_PROBE = """
import json, sys
import numpy
at_entry = []

class errstate(numpy.errstate):
    def __enter__(self):
        if not at_entry:
            at_entry.append(set(sys.modules))
        return super().__enter__()

numpy.errstate = errstate
from edgelam_sim import cli
code = cli.main(sys.argv[1:])
late = set(sys.modules) - at_entry[0]
print(json.dumps([code, sorted(m for m in late if m.split(".")[0] in ("numpy", "edgelam_sim"))]))
"""


def probe(script: str, argv: list[str], code: int = 0) -> list[str]:
    """The module list ``script`` prints after ``cli.main(argv)`` returned
    ``code`` in a fresh interpreter."""
    src = str(Path(edgelam_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got, modules = json.loads(proc.stdout.splitlines()[-1])
    assert got == code
    return modules


def loaded_after(argv: list[str], code: int = 0) -> set[str]:
    """The ``edgelam_sim`` modules, and ``numpy`` if loaded, that a fresh
    interpreter holds after ``cli.main(argv)``."""
    return set(probe(PROBE, argv, code))


def test_cli_import_loads_no_solver_module():
    assert loaded_after([]) == CLI


@pytest.mark.parametrize("name,kind_modules", [
    ("fedft_hetero", {"netsim"}),
    ("unlearn_optout", {"netsim"}),
    ("moe_schedule", {"netsim"}),
    ("moe_tradeoff", {"netsim"}),
    ("cot_place", {"netsim"}),
    ("casestudy_tokens", set()),
])
def test_validate_loads_no_solver_module(name, kind_modules):
    # the parsers build their value types from netsim, which is numpy-free
    argv = ["validate", "--config", str(SCENARIOS / f"{name}.json")]
    assert loaded_after(argv) == CLI | {f"edgelam_sim.{m}" for m in kind_modules}


@pytest.mark.parametrize("name,edit,kind_modules", [
    ("moe_tradeoff", {"kind": "mo"}, set()),
    ("moe_tradeoff", {"seed": -1}, set()),
    ("cot_place", {"cot": {"steps": []}}, {"netsim"}),
    ("moe_tradeoff", {"moe": {"failed_devices": ["d0", "d0"]}}, {"netsim"}),
], ids=["unknown-kind", "negative-seed", "cot-no-steps", "failed-repeated"])
def test_run_config_error_loads_no_numpy(tmp_path, name, edit, kind_modules):
    cfg = json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    for key, value in edit.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert loaded_after(argv, code=2) == CLI | {f"edgelam_sim.{m}" for m in kind_modules}


@pytest.mark.parametrize("name,solvers", [
    ("fedft_hetero", {"fedft", "netsim", "rng"}),
    ("unlearn_optout", {"unlearn", "numerics", "netsim", "rng"}),
    ("moe_schedule", {"moe_orchestrator", "_accel", "netsim", "rng"}),
    ("moe_tradeoff", {"moe_orchestrator", "_accel", "netsim", "rng"}),
    ("cot_place", {"cot_placement", "_accel", "netsim", "rng"}),
    ("casestudy_tokens", {"casestudy"}),
])
def test_run_loads_only_its_kinds_modules(tmp_path, name, solvers):
    argv = ["run", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)]
    assert loaded_after(argv) == CLI | {f"edgelam_sim.{m}" for m in solvers} | {"numpy"}


@pytest.mark.parametrize("name", [
    "fedft_hetero", "unlearn_optout", "moe_schedule", "moe_tradeoff", "cot_place",
    "casestudy_tokens",
])
def test_run_loads_every_module_before_its_guard(tmp_path, name):
    # a module body that runs under the raising errstate could fail on a
    # floating-point operation no run makes; numpy.random is the lazy one
    argv = ["run", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)]
    assert probe(GUARD_PROBE, argv) == []


def test_casestudy_subcommand_loads_only_casestudy():
    assert loaded_after(["casestudy", "--budgets", "64,128"]) == (
        CLI | {"edgelam_sim.casestudy", "numpy"}
    )
