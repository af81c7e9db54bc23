"""Byte contract: scenario outputs match recorded sha256 digests.

Covers the six shipped scenarios plus the seeded stress configs of
``tests/corpus.py``, for paths the shipped set misses: MoE with several
calls per slot, fading and random arrivals, unlearning with DP noise, a CoT
chain whose memory capacities bind, fedft on a band that carries only four
of its six devices, MoE uplinks whose SNR is below 1, and a CoT chain whose
step memories span 1 to 1e16 bytes, so that a device's load depends on the
order in which its steps are summed.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (SkylakeX
core).  fedft and unlearn outputs change with the BLAS kernel and with
numpy's SIMD dispatch, so on another host a mismatch can be a platform
difference rather than a code change; the failure message prints the
fingerprint that tells the two apart.
"""

import ctypes
import glob
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from edgelam_sim.scenarios import run_scenario

from corpus import STRESS
from test_scenarios import write_cfg

SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"


DIGESTS = {
    "casestudy_tokens/casestudy_summary.json":
        "fa76f85f119486ada693fa03fb3273addcc6e1ceb5e9c90e96764d88481862d1",
    "casestudy_tokens/casestudy_sweep.csv":
        "0a91d0e9be22eee1113db1ed6e425ca081ad27e325debd8a8222b6460b8facf2",
    "cot_place/cot_result.json":
        "5db853afb983568a4809ea96c21dad6e7c3f5e7973ba87de2dd2bd4c15f10edd",
    "fedft_hetero/fedft_rounds.csv":
        "2cb99045d669847cd45247bd9e8c434e92dc943525fc37fcccce967d3cdf4eba",
    "fedft_hetero/fedft_summary.json":
        "a9f9aeaa6a4df292345c33e3c7581f4bf3aed24110df828ae85916bf7af64680",
    "moe_schedule/moe_summary.json":
        "09fedc95e6bcb37e681f79ed7a1efecab72982c8583beeeb015a1c19acad30ff",
    "moe_schedule/moe_trace.csv":
        "7cb9f447b73b8b2ee7e42910b05f87b3d16994682415c168a630c1bcf552a27c",
    "moe_tradeoff/moe_summary.json":
        "1f0b112e56de8f07f5b2b76e5c7be51033a7897e896d02401a2d2933c55e126a",
    "moe_tradeoff/moe_trace.csv":
        "fa07b80bdfa1fd33d1723a772c78bc31c051e73442a53de0654724a241082495",
    "unlearn_optout/unlearn_rounds.csv":
        "12494f2eb4090c646cc84188f715e889d773548fb696888e29ac9cf3740cedce",
    "unlearn_optout/unlearn_summary.json":
        "d3d99713bf7a3cb7dbdfa3f23e0a80052a421969f4232267ae8609ff7769d8f2",
    "moe_stress/moe_summary.json":
        "d94a35f061ab74f76be1848f9df14a5a8da3b04931ca1d5b0b0b98c4d386d860",
    "moe_stress/moe_trace.csv":
        "0d42b999b81d0406ae2c176a533a25ec949b8a20e9bde7bded9735c580f8eef7",
    "unlearn_stress/unlearn_rounds.csv":
        "2d64628fcf7464e3e81fa90c0891e5598209c22089476a28624d4bcbf4bc9c0c",
    "unlearn_stress/unlearn_summary.json":
        "294e9e645dbc0053c784dc81131d17ada6ce5d37f91bde1adcab122fa06f9e57",
    "cot_stress/cot_result.json":
        "326bd7aca1c1bb13ddb12fc8841a1f54b4f586872228c33684e0f566cb976a17",
    "fedft_stress/fedft_rounds.csv":
        "65415943a6ccb575300ca31cb45f4cb904a0501eb48c365e89480b2e13de5e1a",
    "fedft_stress/fedft_summary.json":
        "deabcdca3f34bfd1d01ac64cdaf2b39fe2db0580c17bebc4453fb39db2580dd6",
    "moe_low_snr/moe_summary.json":
        "d298e0168d30da03e1d715547be556438c5859d21d9ddc3ccadba8a27da2fe0f",
    "moe_low_snr/moe_trace.csv":
        "5aca9806dacdc9b5ec7ad6ab73ce22cdfa80924c89bc8c25d8f96ce632e15d4f",
    "cot_mixed_scale/cot_result.json":
        "52ccd133da7f1eecd0815a877661b19d8d075e9394757c7f6d09d0a1b4646311",
}


def _blas_core() -> str:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def fingerprint() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    features = " ".join(sorted(k for k, on in __cpu_features__.items() if on))
    return f"numpy {np.__version__}, BLAS core {_blas_core()}, cpu features: {features}"


def run_digests(tmp_path) -> dict[str, str]:
    """sha256 of every output file, keyed ``scenario/file``."""
    configs = {p.stem: p for p in sorted(SHIPPED.glob("*.json"))}
    for name, cfg in STRESS.items():
        configs[name] = write_cfg(tmp_path, cfg, name=f"{name}.json")
    out = {}
    for name, path in configs.items():
        out_dir = tmp_path / name
        assert run_scenario(path, out_dir) == 0, name
        for f in sorted(out_dir.iterdir()):
            out[f"{name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def test_outputs_match_recorded_digests(tmp_path):
    got = run_digests(tmp_path)
    differ = sorted(k for k in DIGESTS.keys() | got.keys() if DIGESTS.get(k) != got.get(k))
    if differ:
        pytest.fail(f"outputs differ from the recorded digests: {', '.join(differ)}\n"
                    f"environment: {fingerprint()}")
