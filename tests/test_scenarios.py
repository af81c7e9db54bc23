"""Config parsing, CLI dispatch, exit codes, and output determinism."""

import copy
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import edgelam_sim
from edgelam_sim import casestudy, fedft, scenarios
from edgelam_sim.cli import main
from edgelam_sim.errors import ConfigError
from edgelam_sim.scenarios import (
    NonFiniteOutput,
    parse_scenario,
    run_scenario,
    write_csv,
    write_json,
)

from corpus import CHANNEL, DEVICES, MAXIMAL_CONFIGS, STRESS, structural_mutant


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
        "kind": "cot", "seed": 5, "devices": DEVICES,
        "channel": dict(CHANNEL, link_bandwidth=1e6),
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


CASESTUDY_MODEL = {"n_total": 2048, "t_budget": 128, "alpha_mem": 2.0, "beta_comp": 2.0,
                   "gamma_handoff": 0.0, "base_mem": 0.0}

SHIPPED_NAMES = sorted(
    p.stem for p in (Path(__file__).resolve().parents[1] / "scenarios").glob("*.json")
)
# the fuzz bases: the shipped configs set only some optional fields
BASE_NAMES = SHIPPED_NAMES + sorted(MAXIMAL_CONFIGS)


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

    def test_infeasible_fedft_deadline(self, tmp_path, monkeypatch, capsys):
        # the selection is solved once, before the first round: an
        # infeasible one exits 3 without running any round
        rounds = []
        real_round = fedft.fedft_round

        def counted_round(*args, **kwargs):
            rounds.append(1)
            return real_round(*args, **kwargs)

        monkeypatch.setattr(fedft, "fedft_round", counted_round)
        cfg = fedft_cfg()
        cfg["fedft"]["deadline_s"] = 1e-9
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 3
        assert "no device subset meets the deadline" in capsys.readouterr().out
        assert rounds == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_infeasible_cot_capacity(self, tmp_path):
        cfg = cot_cfg()
        cfg["devices"] = [dict(d, memory_capacity=1.0) for d in cfg["devices"]]
        path = write_cfg(tmp_path, cfg)
        assert run_scenario(path, tmp_path / "out") == 3

    def test_casestudy_device_limit_infeasible(self, tmp_path):
        cfg = casestudy_cfg()
        cfg["casestudy"] = {"budgets": [64], "calibrate": False, "model": CASESTUDY_MODEL}
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


README = Path(__file__).resolve().parents[1] / "README.md"


def reference_fields(kind):
    """The field paths README's config reference lists for ``kind``: its
    own table, the every-kind table, and the device table if it lists
    ``devices``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Config reference\n")[1].split("\n## ")[0]
    tables = {}
    for part in section.split("\n### ")[1:]:
        heading, _, body = part.partition("\n")
        tables[heading.strip("`")] = set(re.findall(r"^\| `([^`]+)` \|", body, re.M))
    fields = tables["Every kind"] | tables[kind]
    if "devices" in fields:
        fields |= tables["Devices"]
    return fields


def key_paths(node, prefix=""):
    """``(path, is_leaf)`` for every key of a config, list indices as ``[]``;
    an object, or a list holding one, is not a leaf."""
    if isinstance(node, list):
        for item in node:
            yield from key_paths(item, prefix + "[]")
    elif isinstance(node, dict):
        for key, value in dict.items(node):
            path = f"{prefix}.{key}" if prefix else key
            objects = value if isinstance(value, list) else [value]
            yield path, not any(isinstance(v, dict) for v in objects)
            yield from key_paths(value, path)


def looked_up(node, prefix=""):
    """The path of every key the parser looked up in a decoded config."""
    if isinstance(node, list):
        for item in node:
            yield from looked_up(item, prefix + "[]")
    elif isinstance(node, dict):
        for key in node.read:
            yield f"{prefix}.{key}" if prefix else key
        for key, value in dict.items(node):
            yield from looked_up(value, f"{prefix}.{key}" if prefix else key)


class TestConfigReference:
    """README's config reference lists every field a parser reads."""

    @pytest.mark.parametrize("kind", sorted(ALL_CONFIGS))
    def test_maximal_configs_set_exactly_the_listed_fields(self, kind):
        fields = reference_fields(kind)
        paths = dict(p for cfg in MAXIMAL_CONFIGS.values() if cfg["kind"] == kind
                     for p in key_paths(cfg))
        assert {path for path, leaf in paths.items() if leaf} <= fields
        assert fields <= paths.keys()

    @pytest.mark.parametrize("name", BASE_NAMES)
    def test_parser_looks_up_only_listed_fields(self, monkeypatch, name):
        roots = []
        real = scenarios._check_all_read

        def capture(node, where=""):
            roots.append(node)
            real(node, where)

        monkeypatch.setattr(scenarios, "_check_all_read", capture)
        cfg = base_cfg(name)
        parse_scenario(json.dumps(cfg))
        fields = reference_fields(cfg["kind"])
        # the objects and lists that hold a listed field
        holders = {
            ".".join(parts[:i]).removesuffix("[]")
            for parts in (f.split(".") for f in fields) for i in range(1, len(parts))
        }
        assert set(looked_up(roots[0])) <= fields | holders

    @pytest.mark.parametrize("name", sorted(MAXIMAL_CONFIGS))
    def test_maximal_config_runs(self, tmp_path, name):
        path = write_cfg(tmp_path, MAXIMAL_CONFIGS[name])
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


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

    def test_runs_around_an_argparse_error_write_the_same_bytes(self, tmp_path, capsys):
        # the parser is built once per process and reused by every call
        path = write_cfg(tmp_path, unlearn_cfg())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(path), "--seed", "x"])
        assert exc.value.code == 2
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        assert read_outputs(tmp_path / "a") == read_outputs(tmp_path / "b")

    def test_casestudy_subcommand(self, tmp_path, capsys):
        # the subcommand writes what `run` writes for the same calibration
        out = tmp_path / "cs"
        assert main([
            "casestudy", "--budgets", "64,128,256", "--calibrate",
            "--out", str(out),
        ]) == 0
        printed = capsys.readouterr().out
        assert "calibrated" in printed
        assert sorted(p.name for p in out.iterdir()) == [
            "casestudy_summary.json", "casestudy_sweep.csv"
        ]
        path = write_cfg(tmp_path, casestudy_cfg())
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        sweep = (tmp_path / "run" / "casestudy_sweep.csv").read_bytes()
        assert (out / "casestudy_sweep.csv").read_bytes() == sweep

    @pytest.mark.parametrize("calibrate", [False, True], ids=["model", "calibrate"])
    def test_casestudy_subcommand_writes_what_run_of_its_config_writes(self, tmp_path, capsys,
                                                                       calibrate):
        if calibrate:
            block = {"budgets": [64, 128, 256], "calibrate": True, "targets": [0.708, 0.596]}
        else:
            block = {"budgets": [64, 128, 256], "model": {
                "n_total": 608, "t_budget": 64, "alpha_mem": casestudy.DEFAULT_ALPHA_MEM,
                "beta_comp": casestudy.DEFAULT_BETA_COMP, "gamma_handoff": 0.03,
                "base_mem": 1e4}}
        path = write_cfg(tmp_path, {"kind": "casestudy", "seed": 0, "casestudy": block})
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
        flags = ["--calibrate"] if calibrate else []
        assert main(["casestudy", *flags, "--out", str(tmp_path / "cs")]) == 0
        assert read_outputs(tmp_path / "cs") == read_outputs(tmp_path / "run")

    def test_casestudy_exit_3_empties_out(self, tmp_path, capsys):
        # the failing run also removes what an earlier run left in --out
        out = tmp_path / "cs"
        assert main(["casestudy", "--out", str(out)]) == 0
        assert main(["casestudy", "--budgets", "1", "--out", str(out)]) == 3
        assert "needs more than 10 devices" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_casestudy_bad_budgets(self, capsys):
        assert main(["casestudy", "--budgets", "abc"]) == 2
        assert "--budgets" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,code,where", [
        (["--budgets", "1000"], 2, "--budgets"),
        (["--budgets", "0"], 2, "--budgets"),
        (["--budgets", "-5"], 2, "--budgets"),
        (["--budgets", "64,1000"], 2, "--budgets"),
        (["--budgets", "1"], 3, "needs more than 10 devices"),
        (["--calibrate", "--targets", "0.5,2"], 2, "--targets"),
        (["--calibrate", "--targets", "nan,0.5"], 2, "--targets"),
        (["--calibrate", "--targets", "0.5"], 2, "--targets"),
        (["--targets", "x,0.5"], 2, "--targets"),
    ], ids=["above-n-total", "zero", "negative", "one-above-n-total", "device-limit",
            "target-above-one", "target-nan", "one-target", "target-not-a-number"])
    def test_casestudy_out_of_range_exits_2_or_3(self, capsys, argv, code, where):
        # same conventions as run: an argument out of range exits 2 and names
        # it, the device limit exits 3
        assert main(["casestudy", *argv]) == code
        assert where in capsys.readouterr().err

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


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64("inf")],
                         ids=["inf", "-inf", "nan", "numpy-inf"])
def test_writers_refuse_non_finite_values(tmp_path, value):
    """The error names the file; the JSON is checked before it is opened."""
    csv_path, json_path = tmp_path / "t.csv", tmp_path / "s.json"
    with pytest.raises(NonFiniteOutput, match="t.csv"):
        write_csv(csv_path, ["a", "b"], [[1, 2.0], ["x", value]])
    with pytest.raises(NonFiniteOutput, match="s.json"):
        write_json(json_path, {"a": [1.0, {"b": value}]})
    assert not json_path.exists()


def test_csv_writes_a_numpy_float_as_its_plain_repr(tmp_path):
    rows = [[1, np.float64(0.1)], ["x", 2.5], [np.float64(-3e-310), 7]]
    write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert (tmp_path / "t.csv").read_text() == "a,b\n1,0.1\nx,2.5\n-3e-310,7\n"
    assert [type(v) for row in rows for v in row] == [int, np.float64, str, float, np.float64, int]


def test_csv_with_a_non_finite_cell_leaves_no_file(tmp_path):
    rows = [[float(i), "x"] for i in range(1000)] + [[math.nan, "y"]]
    with pytest.raises(NonFiniteOutput, match="a cell is nan"):
        write_csv(tmp_path / "t.csv", ["a", "b"], rows)
    assert not (tmp_path / "t.csv").exists()


def shipped_cfg(name):
    path = Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def base_cfg(name):
    """A shipped config, or a copy of a stress or maximal one, by name."""
    if name in STRESS or name in MAXIMAL_CONFIGS:
        return copy.deepcopy({**STRESS, **MAXIMAL_CONFIGS}[name])
    return shipped_cfg(name)


# JSON numbers that parse but have no finite float value
NON_FINITE = [float("nan"), float("inf"), 10**400]
NON_FINITE_IDS = ["nan", "inf", "huge-int"]


class TestCliExitCodes:
    """Every input ends in exit 0, 2 with a field path, or 3; never a traceback."""

    def run_cli(self, tmp_path, cfg):
        path = write_cfg(tmp_path, cfg)
        return main(["run", "--config", str(path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    @pytest.mark.parametrize("field", [
        ("fedft", "fedft", "lr"),
        ("fedft", "fedft", "noise_std"),
        ("fedft", "fedft", "bits_per_param"),
        ("moe", "moe", "v"),
        ("moe", "moe", "arrival_prob"),
        ("unlearn", "unlearn", "lr"),
    ], ids=lambda f: f"{f[1]}.{f[2]}")
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, field, value):
        kind, block, key = field
        cfg = ALL_CONFIGS[kind]()
        cfg[block][key] = value
        assert self.run_cli(tmp_path, cfg) == 2
        assert f"{block}.{key}" in capsys.readouterr().out

    @pytest.mark.parametrize("value", NON_FINITE, ids=NON_FINITE_IDS)
    def test_non_finite_v_sweep_entry_is_config_error(self, tmp_path, capsys, value):
        cfg = moe_cfg()
        cfg["moe"]["v_sweep"] = [1.0, value]
        assert self.run_cli(tmp_path, cfg) == 2
        assert "moe.v_sweep" in capsys.readouterr().out

    def test_non_finite_casestudy_target_is_config_error(self, tmp_path, capsys):
        cfg = casestudy_cfg()
        cfg["casestudy"]["targets"] = [float("nan"), 0.5]
        assert self.run_cli(tmp_path, cfg) == 2
        assert "casestudy.targets" in capsys.readouterr().out

    @pytest.mark.parametrize("gain", [-1.0, float("nan"), "x"])
    def test_bad_cot_gain_is_config_error(self, tmp_path, capsys, gain):
        cfg = cot_cfg()
        cfg["cot"]["gains"] = [[0.0, gain], [1.0, 0.0]]
        assert self.run_cli(tmp_path, cfg) == 2
        assert "cot.gains[0][1]" in capsys.readouterr().out

    def test_overflowing_fedft_task_exits_3(self, tmp_path, capsys):
        cfg = shipped_cfg("fedft_hetero")
        cfg["fedft"]["noise_std"] = 1e308
        assert self.run_cli(tmp_path, cfg) == 3
        out = capsys.readouterr().out
        assert "overflow" in out and "lower fedft.noise_std" in out

    def test_overflowing_initial_loss_exits_3(self, tmp_path, capsys):
        cfg = shipped_cfg("fedft_hetero")
        cfg["fedft"]["noise_std"] = 1e200  # samples stay finite, their squares do not
        assert self.run_cli(tmp_path, cfg) == 3
        assert "lower fedft.noise_std" in capsys.readouterr().out

    def test_moe_all_replicas_failed_exits_3(self, tmp_path, capsys):
        cfg = shipped_cfg("moe_tradeoff")
        cfg["moe"]["failed_devices"] = ["d0", "d1", "d2"]
        assert self.run_cli(tmp_path, cfg) == 3
        assert "no live replicas" in capsys.readouterr().out

    @pytest.mark.parametrize("dead", [
        {"channel_gain": 0.0}, {"tx_power": 0.0},
    ])
    def test_moe_dead_uplink_replica_is_never_used_at_v_zero(self, tmp_path, dead):
        cfg = shipped_cfg("moe_tradeoff")
        cfg["devices"][0].update(dead)
        cfg["moe"]["v"] = 0.0
        assert self.run_cli(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "out" / "moe_summary.json").read_text())
        assert math.isfinite(summary["time_avg_cost"])
        trace = (tmp_path / "out" / "moe_trace.csv").read_text()
        assert "=d0" not in trace

    @pytest.mark.parametrize("v", [0.0, 1.0])
    def test_moe_dead_uplink_equals_failed_device(self, tmp_path, v):
        # a replica that cannot upload is dropped exactly like a failed one;
        # for v > 0 it would score inf and never win, so only v = 0 needs the drop
        dead = shipped_cfg("moe_tradeoff")
        dead["devices"][0]["channel_gain"] = 0.0
        failed = shipped_cfg("moe_tradeoff")
        failed["moe"]["failed_devices"] = ["d0"]
        for cfg in (dead, failed):
            cfg["moe"]["v"] = v
            del cfg["moe"]["v_sweep"]
        assert main(["run", "--config", str(write_cfg(tmp_path, dead, "dead.json")),
                     "--out", str(tmp_path / "dead")]) == 0
        assert main(["run", "--config", str(write_cfg(tmp_path, failed, "failed.json")),
                     "--out", str(tmp_path / "failed")]) == 0
        assert read_outputs(tmp_path / "dead") == read_outputs(tmp_path / "failed")

    def test_moe_expert_without_live_uplink_exits_3(self, tmp_path, capsys):
        cfg = shipped_cfg("moe_tradeoff")
        for dev in cfg["devices"]:
            dev["channel_gain"] = 0.0
        assert self.run_cli(tmp_path, cfg) == 3
        assert "no replica with a live uplink" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("name,path,value,where", [
        ("moe_tradeoff", ("moe", "experts", 0, "replicas"), [["d0"]],
         "moe.experts[0].replicas[0]"),
        ("moe_tradeoff", ("moe", "failed_devices"), [["d0"]], "moe.failed_devices[0]"),
        ("unlearn_optout", ("unlearn", "opt_out"), [["d3"]], "unlearn.opt_out[0]"),
        ("moe_tradeoff", ("moe", "experts", 0, "id"), ["x"], "moe.experts[0].id"),
        ("moe_tradeoff", ("moe", "experts", 0, "id"), "", "moe.experts[0].id"),
        ("moe_tradeoff", ("moe", "experts", 1, "id"), "e0", "moe.experts"),
        ("moe_tradeoff", ("seed",), 2**64, "$.seed"),
        ("unlearn_optout", ("unlearn", "feature_dim"), 2, "unlearn.feature_dim"),
        ("casestudy_tokens", ("casestudy",),
         {"budgets": [64, 700], "model": dict(CASESTUDY_MODEL, n_total=640)},
         "casestudy.budgets[1]"),
        ("casestudy_tokens", ("casestudy",),
         {"budgets": [64], "model": dict(CASESTUDY_MODEL, n_total=640, t_budget=700)},
         "casestudy.model.t_budget"),
        ("moe_schedule", ("moe", "load_jitter"), 3.0, "moe.load_jitter"),
        ("moe_schedule", ("moe", "load_jitter"), 1, "moe.load_jitter"),
        ("fedft_hetero", ("devices", 2, "local_rank"), 99, "devices[2].local_rank"),
        ("casestudy_tokens", ("casestudy", "budgets"), [64, 0], "casestudy.budgets[1]"),
        ("moe_tradeoff", ("moe", "v_sweep"), [0.1, -1.0], "moe.v_sweep[1]"),
        ("unlearn_optout", ("unlearn", "opt_out"), [], "unlearn.opt_out"),
        ("moe_tradeoff", ("moe", "experts", 0, "replicas"), ["d0", "d1", "d0"],
         "moe.experts[0].replicas[2]"),
        ("moe_tradeoff", ("moe", "failed_devices"), ["d0", "d0"], "moe.failed_devices[1]"),
        ("unlearn_optout", ("unlearn", "opt_out"), ["d3", "d3"], "unlearn.opt_out[1]"),
        ("moe_schedule", ("moe", "arrival_prob"), 7.5, "moe.arrival_prob"),
        ("fedft_hetero", ("devices", 1, "id"), "d0", "devices"),
        ("fedft_hetero", ("fedft", "true_rank"), 7, "fedft.true_rank"),
        ("unlearn_optout", ("unlearn", "delta"), 2.0, "unlearn.delta"),
        ("moe_tradeoff", ("moe", "top_k"), 5, "moe.top_k"),
        ("cot_place", ("cot", "steps", 0), 1e9, "cot.steps[0]"),
        ("cot_place", ("cot", "solver"), "greedy", "cot.solver"),
        ("moe_tradeoff", ("moe", "experts", 1, "replicas"), [], "moe.experts[1]"),
        ("casestudy_tokens", ("casestudy",),
         {"budgets": [64], "model": dict(CASESTUDY_MODEL, compute_rate=0)},
         "casestudy.model.compute_rate"),
        # a key no parser reads: misplaced, misspelled, or unused by the config
        ("cot_place", ("cot", "link_bandwidth"), 1e100, "cot.link_bandwidth"),
        ("fedft_hetero", ("devices", 0, "memry"), 1e9, "devices[0].memry"),
        ("moe_tradeoff", ("moe", "experts", 1, "x"), 1, "moe.experts[1].x"),
        ("unlearn_optout", ("channel",), CHANNEL, "$.channel"),
        ("fedft_hetero", ("channel", "link_bandwidth"), 1e100, "channel.link_bandwidth"),
        ("moe_schedule", ("channel", "link_bandwidth"), 1e100, "channel.link_bandwidth"),
        ("casestudy_tokens", ("casestudy", "model"), CASESTUDY_MODEL, "casestudy.model"),
        ("casestudy_tokens", ("casestudy",),
         {"budgets": [64], "model": CASESTUDY_MODEL, "targets": [0.7, 0.6]},
         "casestudy.targets"),
    ], ids=["replica-list", "failed-list", "opt-out-list", "expert-id-list",
            "expert-id-empty", "expert-id-repeated", "seed-2^64", "unlearn-feature-dim-2",
            "budget-above-n-total", "t-budget-above-n-total", "load-jitter-3",
            "load-jitter-1", "local-rank-above-dims", "budget-not-positive",
            "v-sweep-negative", "opt-out-empty", "replica-repeated", "failed-repeated",
            "opt-out-repeated", "arrival-prob-7.5", "device-id-repeated",
            "true-rank-above-dims", "delta-2", "top-k-above-experts", "step-not-object",
            "cot-solver-unknown", "replicas-empty", "compute-rate-0",
            "unread-cot-link-bandwidth", "unread-device-key", "unread-expert-key",
            "unread-top-level-key", "unread-fedft-link-bandwidth",
            "unread-moe-link-bandwidth", "unread-model-when-calibrating",
            "unread-targets-without-calibrate"])
    def test_config_error_names_field(self, tmp_path, capsys, command, name, path, value,
                                      where):
        # validate and run read a config with the same parser, so both exit 2
        cfg = shipped_cfg(name)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        argv = [command, "--config", str(write_cfg(tmp_path, cfg))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{where}:" in captured.out + captured.err

    def test_empty_replica_set_is_named_after_the_expert_fields(self, tmp_path, capsys):
        # the expert's own fields are checked first, then its replica set
        cfg = shipped_cfg("moe_tradeoff")
        cfg["moe"]["experts"][1]["replicas"] = []
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().out == (
            "config error: moe.experts[1]: expert e1: replica set must be nonempty\n"
        )
        cfg["moe"]["experts"][1]["workload"] = 0
        assert self.run_cli(tmp_path, cfg) == 2
        assert capsys.readouterr().out == (
            "config error: moe.experts[1].workload: must be > 0, got 0.0\n"
        )

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_run_seed_out_of_range_is_config_error(self, tmp_path, capsys, seed):
        path = write_cfg(tmp_path, shipped_cfg("moe_tradeoff"))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out"), "--seed", str(seed)]
        assert main(argv) == 2
        assert "--seed:" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("given,repeated,where", [
        ('"seed": 3,', '"seed": 999, "seed": 3,', "$.seed"),
        ('"iters": 10', '"iters": 99, "iters": 10', "cot.iters"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_is_config_error(self, tmp_path, capsys, command, given, repeated,
                                          where):
        # decoding keeps the last value, so the first would be dropped unread;
        # json.dumps cannot repeat a key, so the shipped text is edited
        path = Path(__file__).resolve().parents[1] / "scenarios" / "cot_place.json"
        text = path.read_text(encoding="utf-8")
        assert text.count(given) == 1
        cfg = tmp_path / "scenario.json"
        cfg.write_text(text.replace(given, repeated), encoding="utf-8")
        argv = [command, "--config", str(cfg)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {where}: field given twice" in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("raw,where", [
        (b'\xff\xfe{"kind": "moe", "seed": 1}', "byte 0"),
        (b"[" * 200000 + b"]" * 200000, "$"),
        (b'{"kind": "moe", "seed": ' + b"9" * 5000 + b"}", "$"),
    ], ids=["not-utf8", "nested-past-recursion-limit", "integer-past-digit-limit"])
    def test_config_bytes_that_do_not_parse_are_config_errors(self, tmp_path, capsys, command,
                                                              raw, where):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"config error: {where}:" in captured.out + captured.err

    @pytest.mark.parametrize("under_file", [False, True], ids=["a-file", "under-a-file"])
    @pytest.mark.parametrize("command", ["run", "casestudy"])
    def test_out_blocked_by_a_file_is_config_error(self, tmp_path, capsys, command, under_file):
        blocker = tmp_path / "afile"
        blocker.touch()
        out = blocker / "sub" if under_file else blocker
        argv = ["casestudy", "--out", str(out)]
        if command == "run":
            argv = ["run", "--config", str(write_cfg(tmp_path, shipped_cfg("casestudy_tokens"))),
                    "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "config error: --out:" in captured.out + captured.err

    @pytest.mark.parametrize("tokens", [10**154, 10**400], ids=["1e154", "1e400"])
    def test_casestudy_model_beyond_float_range_exits_3(self, tmp_path, capsys, tokens):
        # 10**154 squared overflows to inf; 10**400 does not convert to a float
        cfg = shipped_cfg("casestudy_tokens")
        model = dict(CASESTUDY_MODEL, n_total=tokens, t_budget=tokens)
        cfg["casestudy"] = {"budgets": [tokens], "model": model}
        assert self.run_cli(tmp_path, cfg) == 3
        assert "float range" in capsys.readouterr().out
        assert not (tmp_path / "out" / "casestudy_sweep.csv").exists()

    def test_moe_band_too_narrow_for_the_snr_stays_finite(self, tmp_path):
        # N0*B underflows, so the SNR overflows; every upload then takes
        # about 1e303 s instead of the 0 s an infinite rate implies
        cfg = shipped_cfg("moe_tradeoff")
        cfg["channel"]["total_bandwidth"] = 1e-300
        assert self.run_cli(tmp_path, cfg) == 0
        summary = json.loads((tmp_path / "out" / "moe_summary.json").read_text())
        assert 1e300 < summary["time_avg_cost"] < math.inf

    def test_cot_link_snr_overflow_stays_finite(self, tmp_path):
        # gain times power overflows on link d0->d1; shannon_rate then takes
        # the rate in logs, as it does for an MoE band, and the run exits 0
        cfg = shipped_cfg("cot_place")
        cfg["cot"]["gains"][0][1] = 1e300
        cfg["devices"][0]["tx_power"] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 0
        result = json.loads((tmp_path / "out" / "cot_result.json").read_text())
        assert math.isfinite(result["exact"]["cost_s"])

    @pytest.mark.parametrize("name, key", [
        ("fedft_hetero", "total_bandwidth"),
        ("moe_tradeoff", "total_bandwidth"),
        ("cot_place", "link_bandwidth"),
    ])
    def test_very_wide_band_keeps_its_rate(self, tmp_path, name, key):
        # at 1e100 Hz every SNR is below 2^-53, where 1 + snr rounds to 1;
        # the rate stays near g*p/(N0 ln 2) instead of falling to 0: fedft
        # meets its deadline, MoE's costs stay finite, and no CoT link is
        # dead, so the local search's greedy start finds room
        cfg = shipped_cfg(name)
        cfg["channel"][key] = 1e100
        assert self.run_cli(tmp_path, cfg) == 0

    @pytest.mark.parametrize("v", [1.0, 0.0])
    def test_moe_band_starving_every_upload_exits_3(self, tmp_path, capsys, v):
        # the rate stays finite (about 3e-303 bit/s), but a 1e6-bit upload
        # takes inf s, so every slot cost is inf; at v = 0 the scores were
        # 0 * inf = nan.  Neither the CSV nor strict JSON carries inf or nan.
        cfg = shipped_cfg("moe_tradeoff")
        cfg["channel"]["total_bandwidth"] = 1e-305
        cfg["moe"]["v"] = v
        assert self.run_cli(tmp_path, cfg) == 3
        assert "moe_trace.csv" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_moe_slot_costs_finite_but_their_sum_overflows_exits_3(self, tmp_path, capsys):
        # each upload takes about 1.5e306 s, so every slot cost, every score
        # up to V = 100 and the trace are finite, but the 200-slot sum is inf.
        # The trace is written before the summary fails; it is removed, and
        # so are the outputs an earlier run left in the same directory.
        cfg = shipped_cfg("moe_tradeoff")
        assert self.run_cli(tmp_path, cfg) == 0
        cfg["channel"]["total_bandwidth"] = 2e-303
        assert self.run_cli(tmp_path, cfg) == 3
        assert "moe_summary.json" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_moe_v_times_call_cost_overflow_exits_3(self, tmp_path, capsys):
        # each upload takes about 2.9e306 s: the costs and their 3-slot sum
        # are finite, but V = 100 times a cost is not.  Every replica would
        # score inf and the argmin would take the first whatever the backlogs.
        cfg = shipped_cfg("moe_tradeoff")
        cfg["channel"]["total_bandwidth"] = 1e-303
        cfg["moe"].update(slots=3, v=100.0)
        del cfg["moe"]["v_sweep"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 3
        assert "moe.v" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []
        cfg["moe"]["v"] = 10.0  # 2.9e307 still fits
        assert self.run_cli(tmp_path, cfg) == 0

    def test_moe_backlog_times_load_overflow_exits_3(self, tmp_path, capsys):
        # every call adds 1e300 FLOPs: after the first slot every backlog
        # times a load overflows, which no check before the loop can see
        cfg = shipped_cfg("moe_tradeoff")
        for expert in cfg["moe"]["experts"]:
            expert["workload"] = 1e300
        cfg["moe"]["slots"] = 3
        del cfg["moe"]["v_sweep"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 3
        assert "numeric overflow" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_moe_backlog_update_overflow_exits_3(self, tmp_path, capsys):
        # one live device takes both calls of the only slot: the scores are
        # finite (empty queues), but 1e308 + 1e308 FLOPs overflow its backlog
        cfg = shipped_cfg("moe_tradeoff")
        for expert in cfg["moe"]["experts"]:
            expert["workload"] = 1e308
        cfg["moe"].update(slots=1, top_k=2, load_jitter=0.0, failed_devices=["d1", "d2"])
        del cfg["moe"]["v_sweep"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 3
        assert "numeric overflow" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_cot_memory_overflow_is_infeasible_not_numeric(self, tmp_path, capsys):
        # summed step memories overflow to inf, which no capacity admits
        cfg = shipped_cfg("cot_place")
        cfg["cot"]["shard_bytes"] = 1e308
        assert self.run_cli(tmp_path, cfg) == 3
        assert "no capacity-feasible placement exists" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_cot_every_placement_costing_inf_blames_cost_not_memory(self, tmp_path, capsys):
        # every step's compute time overflows to inf on every device: 1008
        # placements fit in memory, none has a finite cost
        cfg = shipped_cfg("cot_place")
        for device in cfg["devices"]:
            device["compute_rate"] = 1e-300
        assert self.run_cli(tmp_path, cfg) == 3
        assert (
            "infeasible scenario: all 1008 capacity-feasible placements cost inf "
            "(an overflowing compute time or a dead link)"
        ) in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("solver", ["both", "local_search", "exact"])
    def test_cot_memory_overflow_skips_the_device_in_every_solver(self, tmp_path, solver):
        # each device holds one 1e308-byte step; a second would overflow its
        # load to inf, which both solvers read as over capacity
        cfg = shipped_cfg("cot_place")
        cfg["cot"].update(steps=cfg["cot"]["steps"][:4], shard_bytes=1e308, solver=solver)
        for device in cfg["devices"]:
            device["memory_capacity"] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 0
        result = json.loads((tmp_path / "out" / "cot_result.json").read_text())
        for placement in [r["placement"] for r in result.values() if isinstance(r, dict)]:
            assert sorted(placement) == [0, 1, 2, 3]
        if solver != "local_search":
            assert result["exact"]["n_feasible"] == 24

    @pytest.mark.parametrize("solver", ["both", "local_search", "exact"])
    def test_cot_cost_overflow_never_moves_a_step(self, tmp_path, solver):
        # all three steps on d0 cost 3e307 s; moving any one to d1 overflows
        # the placement's cost to inf, which every solver reads as worse
        cfg = shipped_cfg("cot_place")
        cfg["devices"] = cfg["devices"][:2]
        cfg["devices"][0]["compute_rate"] = 1e-7
        cfg["devices"][1]["compute_rate"] = 6.25e-9
        cfg["cot"].update(steps=[{"workload": 1e300, "handoff_size": 0.0}] * 3,
                          gains=[[0.0, 0.8], [0.8, 0.0]], solver=solver)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.run_cli(tmp_path, cfg) == 0
        result = json.loads((tmp_path / "out" / "cot_result.json").read_text())
        solved = [r for r in result.values() if isinstance(r, dict)]
        assert len(solved) == (2 if solver == "both" else 1)
        step_s = 1e300 / 1e-7
        for r in solved:
            assert r["placement"] == [0, 0, 0]
            assert r["cost_s"] == step_s + step_s + step_s

    @pytest.mark.parametrize("name, block, key, value, error", [
        pytest.param("unlearn_optout", "unlearn", "classes", 10**12, "Unable to allocate",
                     id="classes-1000000000000"),
        pytest.param("unlearn_optout", "unlearn", "feature_dim", 10**12, "Unable to allocate",
                     id="feature_dim-1000000000000"),
        pytest.param("unlearn_optout", "unlearn", "samples_per_device", 10**13,
                     "Unable to allocate", id="samples_per_device-10000000000000"),
        pytest.param("unlearn_optout", "unlearn", "feature_dim", 10**30,
                     "Maximum allowed dimension exceeded", id="feature_dim-10**30"),
        pytest.param("unlearn_optout", "unlearn", "samples_per_device", 10**30,
                     "Maximum allowed dimension exceeded", id="samples_per_device-10**30"),
        pytest.param("fedft_hetero", "fedft", "feature_dim", 10**30,
                     "Maximum allowed dimension exceeded", id="fedft-feature_dim-10**30"),
        pytest.param("moe_schedule", "moe", "slots", 2**61, "array is too big",
                     id="moe-slots-2**61"),
    ])
    def test_unallocatable_unlearn_task_exits_3(self, tmp_path, capsys, name, block, key,
                                                value, error):
        # each first array needs at least a TiB, which numpy refuses outright:
        # with a MemoryError, or with a ValueError once the size overflows
        cfg = shipped_cfg(name)
        cfg[block][key] = value
        assert self.run_cli(tmp_path, cfg) == 3
        assert f"infeasible scenario: out of memory ({error}" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_cot_local_search_dead_end_exits_3(self, tmp_path, capsys):
        # the greedy start fills the fast device d0 with steps 0 and 1, and
        # then step 2 fits nowhere, though steps 0 and 1 on d1 and d2 and
        # step 2 on d0 would fit
        cfg = cot_cfg()
        cfg["devices"] = [dict(DEVICES[0], id="d0", compute_rate=1e12, memory_capacity=2.0)] + [
            dict(DEVICES[0], id=f"d{i}", memory_capacity=1.0) for i in (1, 2)
        ]
        cfg["cot"] = {
            "steps": [{"workload": 1e9, "handoff_size": bits} for bits in (8.0, 8.0, 16.0)],
            "solver": "local_search",
        }
        assert self.run_cli(tmp_path, cfg) == 3
        assert (
            "infeasible scenario: local search found no feasible start: step 2 fits on no device"
        ) in capsys.readouterr().out
        assert not (tmp_path / "out" / "cot_result.json").exists()
        cfg["cot"]["solver"] = "exact"
        assert self.run_cli(tmp_path, cfg) == 0
        result = json.loads((tmp_path / "out" / "cot_result.json").read_text())
        assert result["exact"]["placement"] == [1, 2, 0]

    def test_cot_local_search_dead_link_exits_3(self, tmp_path, capsys):
        # every link is dead: the greedy start puts steps 0-2 on the fastest
        # device d3, which has no room for step 3, and every device with
        # room lies behind a dead link from d3; the whole chain fits on d0
        cfg = shipped_cfg("cot_place")
        cfg["cot"]["gains"] = [[0.0] * 4 for _ in range(4)]
        cfg["cot"]["solver"] = "local_search"
        assert self.run_cli(tmp_path, cfg) == 3
        assert (
            "infeasible scenario: local search found no feasible start: "
            "step 3 fits only behind a dead link"
        ) in capsys.readouterr().out
        assert not (tmp_path / "out" / "cot_result.json").exists()
        cfg["cot"]["solver"] = "exact"
        assert self.run_cli(tmp_path, cfg) == 0
        exact = json.loads((tmp_path / "out" / "cot_result.json").read_text())["exact"]
        assert (exact["placement"], exact["cost_s"], exact["n_feasible"]) == ([0] * 5, 5.0, 1008)

    def test_cot_beyond_exact_guard_exits_3(self, tmp_path, capsys):
        cfg = cot_cfg()
        cfg["devices"] = [dict(DEVICES[0], id=f"d{i}") for i in range(6)]
        cfg["cot"]["steps"] = [{"workload": 1e9, "handoff_size": 1e5}] * 8  # 6^8 > 10^6
        assert self.run_cli(tmp_path, cfg) == 3
        assert "use solve_local_search" in capsys.readouterr().out
        assert list((tmp_path / "out").iterdir()) == []

    def test_casestudy_budget_beyond_calibrated_chain_exits_3(self, tmp_path, capsys):
        cfg = shipped_cfg("casestudy_tokens")
        cfg["casestudy"]["budgets"] = [128, 700]  # the default targets calibrate n_total 640
        assert self.run_cli(tmp_path, cfg) == 3
        assert "budget 700" in capsys.readouterr().out


class TestParseProperty:
    def test_mutated_shipped_config_parses_or_is_config_error(self):
        rng = random.Random(0)
        for _ in range(300):
            cfg = structural_mutant(base_cfg(rng.choice(BASE_NAMES)), rng)
            try:
                parse_scenario(json.dumps(cfg))
            except ConfigError:
                pass


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_outputs_finite(out: Path):
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=reject_constant)
            continue
        for row in text.splitlines()[1:]:
            for cell in row.split(","):
                for token in cell.replace("=", ";").split(";"):
                    try:
                        number = float(token)
                    except ValueError:
                        continue
                    assert math.isfinite(number), f"{path.name}: {row}"


class TestRunProperty:
    def test_mutated_small_config_exits_cleanly(self, bytediff, tmp_path):
        """Every run of bytediff's corpus (each config it writes, at the
        default seeds, and each casestudy flag list) ends in exit 0 with
        finite outputs, 2, or 3 with none; no exception and no warning.  Of
        the configs, only the numeric mutants may exit 2 or 3."""
        paths = bytediff.build_corpus(tmp_path / "corpus")
        assert sum(p.stem.startswith("mutant") for p in paths) == bytediff.MUTATIONS >= 200
        runs = {p.stem: ["run", "--config", str(p)] for p in paths}
        runs.update((name, ["casestudy", *argv]) for name, argv in bytediff.CASESTUDY_ARGV.items())
        for name, argv in runs.items():
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, "--out", str(out)])
            assert code in (0, 2, 3), name
            if code == 0:
                assert_outputs_finite(out)
            else:
                assert name.startswith(("mutant", "casestudy_cli_")), name
                assert not out.exists() or list(out.iterdir()) == [], name
