"""Import graph: the CLI loads no solver module, and a run only its own kind's.

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
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "edgelam_sim")]))
"""


def loaded_after(argv: list[str]) -> set[str]:
    """The ``edgelam_sim`` modules a fresh interpreter holds after ``cli.main(argv)``."""
    src = str(Path(edgelam_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return set(modules)


def test_cli_import_loads_no_solver_module():
    assert loaded_after([]) == CLI


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
    assert loaded_after(argv) == CLI | {f"edgelam_sim.{m}" for m in solvers}


def test_casestudy_subcommand_loads_only_casestudy():
    assert loaded_after(["casestudy", "--budgets", "64,128"]) == CLI | {"edgelam_sim.casestudy"}
