"""Python-version leg of the byte contract, for the numpy-free ``netsim``.

``pyproject.toml`` allows any CPython from 3.10, and output bytes depend on
the version wherever a builtin float operation changes (3.12's compensated
``sum`` is one such case).  ``netsim`` imports nothing outside the standard
library, so it runs under every CPython 3.1x that pyenv has installed, with
numpy or without.  Each one must give the running interpreter's digest of
seeded ``shannon_rate`` and ``MinBandwidth.for_rate`` results.  Under those
without numpy, a run of a kind that needs it exits 3 with one line, and
``validate`` still passes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgelam_sim

INTERPRETERS = sorted(Path.home().glob(".pyenv/versions/3.1*/bin/python3"))
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# stdlib only: the float.hex of 1,000 rates and 1,000 least bandwidths, over
# log-uniform links wide enough to reach the overflowed-SNR branch (down to
# subnormal noise densities), and required rates up to 25% above the capped
# rate, so that about a fifth of the bandwidths are inf
PROBE = """
import hashlib, random
from edgelam_sim.netsim import MinBandwidth, shannon_rate

rng = random.Random(20251020)
out = []
for _ in range(1000):
    b = 10.0 ** rng.uniform(-6.0, 9.0)
    g = 10.0 ** rng.uniform(-15.0, 3.0)
    p = 10.0 ** rng.uniform(-4.0, 2.0)
    n0 = 10.0 ** rng.uniform(-320.0, -3.0)
    rate = shannon_rate(b, g, p, n0)
    need = rate * rng.uniform(0.0, 1.25)
    out += [rate.hex(), MinBandwidth(b, g, p, n0).for_rate(need).hex()]
print(hashlib.sha256(" ".join(out).encode()).hexdigest())
"""


def run_under(python, *argv) -> subprocess.CompletedProcess:
    """``python *argv`` with this checkout's ``src`` on the path."""
    src = str(Path(edgelam_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [str(python), *argv], capture_output=True, text=True, env=env, timeout=120,
    )


def digest(python) -> str:
    """The probe's sha256 under interpreter ``python``, importing this checkout's ``src``."""
    proc = run_under(python, "-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def running_digest() -> str:
    return digest(sys.executable)


@pytest.mark.parametrize("python", INTERPRETERS, ids=lambda p: p.parents[1].name)
def test_netsim_digest_matches_running_interpreter(python, running_digest):
    # with no interpreter found the parameter set is empty and pytest skips
    assert digest(python) == running_digest


@pytest.mark.parametrize("kind, config", [("cot", "cot_place"), ("fedft", "fedft_hetero")])
@pytest.mark.parametrize("python", INTERPRETERS, ids=lambda p: p.parents[1].name)
def test_run_without_numpy_exits_3_in_one_line(python, kind, config, tmp_path):
    if run_under(python, "-c", "import numpy").returncode == 0:
        pytest.skip("numpy is installed")
    path = str(SCENARIOS / f"{config}.json")
    validate = run_under(python, "-m", "edgelam_sim.cli", "validate", "--config", path)
    assert validate.returncode == 0, validate.stderr
    out = tmp_path / "out"
    proc = run_under(python, "-m", "edgelam_sim.cli", "run", "--config", path, "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, f"missing dependency: a {kind} run needs numpy, which is not installed\n", "")
    assert list(out.glob("*")) == []
