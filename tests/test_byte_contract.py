"""Byte contract: scenario outputs match recorded sha256 digests.

Covers the six shipped scenarios plus seeded stress configs for paths the
shipped set misses: MoE on the exhaustive path with several calls per slot,
fading and random arrivals, and unlearning with DP noise.

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

from test_scenarios import write_cfg

SHIPPED = Path(__file__).resolve().parents[1] / "scenarios"


def _device(dev_id, gain, rate=1.0):
    return {"id": dev_id, "compute_rate": rate, "memory_capacity": 1e9,
            "channel_gain": gain, "tx_power": 0.5}


STRESS = {
    "moe_stress": {
        "kind": "moe", "seed": 17,
        "devices": [_device("d0", 2.0), _device("d1", 1.0), _device("d2", 0.5),
                    _device("d3", 0.3)],
        "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9},
        "moe": {
            "experts": [
                {"id": "e0", "workload": 0.5, "output_size": 1e5,
                 "replicas": ["d0", "d1", "d2"]},
                {"id": "e1", "workload": 0.3, "output_size": 2e5,
                 "replicas": ["d1", "d2", "d3"]},
                {"id": "e2", "workload": 0.4, "output_size": 1.5e5,
                 "replicas": ["d0", "d2", "d3"]},
                {"id": "e3", "workload": 0.6, "output_size": 5e4,
                 "replicas": ["d0", "d1", "d3"]},
                {"id": "e4", "workload": 0.2, "output_size": 3e5,
                 "replicas": ["d0", "d1", "d2", "d3"]},
            ],
            "top_k": 2, "layers_per_task": 2, "slots": 400, "v": 2.0,
            "load_jitter": 0.3, "w_energy": 0.5, "fading_sigma": 0.3,
            "arrival_prob": 0.7, "v_sweep": [0.0, 20.0],
        },
    },
    "unlearn_stress": {
        "kind": "unlearn", "seed": 23,
        "devices": [_device(f"u{i}", 1.0, rate=1e9) for i in range(6)],
        "unlearn": {
            "classes": 3, "feature_dim": 7, "samples_per_device": 25,
            "opt_out": ["u2", "u5"], "pretrain_rounds": 60, "unlearn_rounds": 20,
            "lr": 0.4, "delta": 0.05, "dp": {"clip_norm": 0.5, "sigma": 0.2},
        },
    },
}

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
