"""Python-version leg of the byte contract, for the numpy-free ``netsim``.

``pyproject.toml`` allows any CPython from 3.10, and output bytes depend on
the version wherever a builtin float operation changes (3.12's compensated
``sum`` is one such case).  ``netsim`` imports nothing outside the standard
library, so it runs under every CPython 3.1x that pyenv has installed, with
numpy or without.  Each one must give the running interpreter's digest of
seeded ``shannon_rate`` and ``MinBandwidth.for_rate`` results.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgelam_sim

INTERPRETERS = sorted(Path.home().glob(".pyenv/versions/3.1*/bin/python3"))

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


def digest(python) -> str:
    """The probe's sha256 under interpreter ``python``, importing this checkout's ``src``."""
    src = str(Path(edgelam_sim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [str(python), "-c", PROBE], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.fixture(scope="module")
def running_digest() -> str:
    return digest(sys.executable)


@pytest.mark.parametrize("python", INTERPRETERS, ids=lambda p: p.parents[1].name)
def test_netsim_digest_matches_running_interpreter(python, running_digest):
    # with no interpreter found the parameter set is empty and pytest skips
    assert digest(python) == running_digest
