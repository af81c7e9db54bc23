"""Config parsing, CLI dispatch, exit codes, and output determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgelam_sim
from edgelam_sim.cli import main
from edgelam_sim.errors import ConfigError
from edgelam_sim.scenarios import parse_scenario, run_scenario

DEVICES = [
    {"id": "a", "compute_rate": 1e9, "memory_capacity": 1e9,
     "channel_gain": 1.0, "tx_power": 0.5, "local_rank": 1},
    {"id": "b", "compute_rate": 2e9, "memory_capacity": 1e9,
     "channel_gain": 0.8, "tx_power": 0.4, "local_rank": 2},
]
CHANNEL = {"total_bandwidth": 1e6, "noise_density": 1e-9, "link_bandwidth": 1e6}


def fedft_cfg():
    return {
        "kind": "fedft", "seed": 5, "devices": DEVICES, "channel": CHANNEL,
        "fedft": {"rounds": 3, "lr": 0.05, "feature_dim": 6, "output_dim": 4,
                  "true_rank": 1, "samples_per_device": 12, "noise_std": 0.01,
                  "deadline_s": 30.0},
    }


def unlearn_cfg():
    return {
        "kind": "unlearn", "seed": 5,
        "devices": DEVICES + [
            {"id": "c", "compute_rate": 1e9, "memory_capacity": 1e9,
             "channel_gain": 1.0, "tx_power": 0.5},
            {"id": "d", "compute_rate": 1e9, "memory_capacity": 1e9,
             "channel_gain": 1.0, "tx_power": 0.5},
        ],
        "unlearn": {"classes": 2, "feature_dim": 6, "samples_per_device": 20,
                    "opt_out": ["d"], "pretrain_rounds": 50, "unlearn_rounds": 5,
                    "lr": 0.5, "delta": 0.05},
    }


def moe_cfg():
    return {
        "kind": "moe", "seed": 5, "devices": DEVICES, "channel": CHANNEL,
        "moe": {
            "experts": [
                {"id": "e0", "workload": 0.8, "output_size": 1e5, "replicas": ["a", "b"]},
                {"id": "e1", "workload": 0.6, "output_size": 2e5, "replicas": ["a", "b"]},
            ],
            "top_k": 1, "slots": 20, "v": 1.0, "layers_per_task": 1,
            "load_jitter": 0.2, "v_sweep": [0.5, 5.0],
        },
    }


def cot_cfg():
    return {
        "kind": "cot", "seed": 5, "devices": DEVICES, "channel": CHANNEL,
        "cot": {
            "steps": [
                {"workload": 1e9, "handoff_size": 1e5},
                {"workload": 2e9, "handoff_size": 1e5},
                {"workload": 1e9, "handoff_size": 0.0},
            ],
            "shard_bytes": 1e3, "solver": "both", "iters": 5,
        },
    }


def casestudy_cfg():
    return {
        "kind": "casestudy", "seed": 5,
        "casestudy": {"budgets": [64, 128, 256], "calibrate": True,
                      "targets": [0.708, 0.596]},
    }


ALL_CONFIGS = {
    "fedft": fedft_cfg,
    "unlearn": unlearn_cfg,
    "moe": moe_cfg,
    "cot": cot_cfg,
    "casestudy": casestudy_cfg,
}


def write_cfg(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestRunScenario:
    def test_minimal_fedft_run(self, tmp_path):
        path = write_cfg(tmp_path, fedft_cfg())
        out = tmp_path / "out"
        assert run_scenario(path, out) == 0
        csv_text = (out / "fedft_rounds.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("round,global_loss")
        assert len(lines) >= 2
        summary = json.loads((out / "fedft_summary.json").read_text())
        assert summary["final_loss"] < summary["initial_loss"]

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json", encoding="utf-8")
        assert run_scenario(path, tmp_path / "out") == 2

    def test_missing_field_is_config_error(self, tmp_path):
        cfg = fedft_cfg()
        del cfg["fedft"]["lr"]
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 2

    def test_unknown_kind(self, tmp_path):
        path = write_cfg(tmp_path, {"kind": "nope", "seed": 1})
        assert run_scenario(path, tmp_path / "out") == 2

    def test_missing_file(self, tmp_path):
        assert run_scenario(tmp_path / "absent.json", tmp_path / "out") == 2

    def test_infeasible_fedft_deadline(self, tmp_path):
        cfg = fedft_cfg()
        cfg["fedft"]["deadline_s"] = 1e-9
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 3

    def test_infeasible_cot_capacity(self, tmp_path):
        cfg = cot_cfg()
        cfg["devices"] = [dict(d, memory_capacity=1.0) for d in cfg["devices"]]
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 3

    def test_casestudy_device_limit_infeasible(self, tmp_path):
        cfg = casestudy_cfg()
        cfg["casestudy"] = {
            "budgets": [64], "calibrate": False,
            "model": {"n_total": 2048, "t_budget": 128, "alpha_mem": 2.0,
                      "beta_comp": 2.0, "gamma_handoff": 0.0, "base_mem": 0.0},
        }
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 3

    @pytest.mark.parametrize("kind", sorted(ALL_CONFIGS))
    def test_byte_identical_reruns(self, tmp_path, kind):
        cfg = ALL_CONFIGS[kind]()
        path = write_cfg(tmp_path, cfg)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert run_scenario(path, out1) == 0
        assert run_scenario(path, out2) == 0
        assert read_outputs(out1) == read_outputs(out2)

    def test_seed_override_changes_outputs(self, tmp_path):
        path = write_cfg(tmp_path, fedft_cfg())
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert run_scenario(path, out1) == 0
        assert run_scenario(path, out2, seed=99) == 0
        assert read_outputs(out1) != read_outputs(out2)

    def test_cot_reports_gap(self, tmp_path):
        path = write_cfg(tmp_path, cot_cfg())
        out = tmp_path / "out"
        assert run_scenario(path, out) == 0
        payload = json.loads((out / "cot_result.json").read_text())
        assert payload["exact"]["cost_s"] <= payload["local_search"]["cost_s"] + 1e-12
        assert payload["local_search"]["gap_to_exact"] >= -1e-12

    def test_moe_fading_config(self, tmp_path):
        cfg = moe_cfg()
        cfg["moe"]["fading_sigma"] = 0.3
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 0
        cfg["moe"]["fading_sigma"] = -0.3
        path = write_cfg(tmp_path, cfg, name="bad.json")
        assert run_scenario(path, tmp_path / "out2") == 2

    def test_moe_outputs(self, tmp_path):
        path = write_cfg(tmp_path, moe_cfg())
        out = tmp_path / "out"
        assert run_scenario(path, out) == 0
        lines = (out / "moe_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "slot,assignment,slot_cost,backlog_a,backlog_b"
        assert len(lines) == 21
        summary = json.loads((out / "moe_summary.json").read_text())
        assert summary["time_avg_cost"] >= 0.0
        assert [entry["v"] for entry in summary["v_sweep"]] == [0.5, 5.0]
        for entry in summary["v_sweep"]:
            assert entry["time_avg_backlog"] >= 0.0


class TestParseDiagnostics:
    def test_json_error_carries_position(self):
        with pytest.raises(ConfigError, match="line"):
            parse_scenario("{\n  broken\n}")

    def test_field_error_carries_path(self):
        cfg = fedft_cfg()
        cfg["fedft"]["rounds"] = "many"
        with pytest.raises(ConfigError, match="fedft.rounds"):
            parse_scenario(json.dumps(cfg))

    def test_device_error_carries_index(self):
        cfg = fedft_cfg()
        cfg["devices"] = [dict(cfg["devices"][0], compute_rate=-1.0)]
        with pytest.raises(ConfigError, match=r"devices\[0\]"):
            parse_scenario(json.dumps(cfg))


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_cfg(tmp_path, moe_cfg())
        assert main(["validate", "--config", str(path)]) == 0
        assert "kind=moe" in capsys.readouterr().out

    def test_validate_bad(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2

    def test_run_subcommand(self, tmp_path):
        path = write_cfg(tmp_path, casestudy_cfg())
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "casestudy_sweep.csv").exists()

    def test_casestudy_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cs"
        assert main([
            "casestudy", "--budgets", "64,128,256", "--calibrate",
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "calibrated" in printed
        assert (out / "casestudy_sweep.csv").exists()

    def test_casestudy_bad_budgets(self, capsys):
        assert main(["casestudy", "--budgets", "abc"]) == 2

    def test_diverging_fedft_exits_3_without_traceback(self, tmp_path):
        shipped = Path(__file__).resolve().parents[1] / "scenarios" / "fedft_hetero.json"
        cfg = json.loads(shipped.read_text(encoding="utf-8"))
        cfg["fedft"].update(feature_dim=32, output_dim=16, lr=0.05)
        path = write_cfg(tmp_path, cfg)
        src = str(Path(edgelam_sim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "edgelam_sim.cli", "run",
             "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 3
        assert "diverged in round" in proc.stdout and "lower fedft.lr" in proc.stdout
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr
