"""Scenario configs: parse, validate, dispatch, and write outputs.

A scenario is a JSON file with a top-level ``kind`` discriminator
(``fedft | unlearn | moe | cot | casestudy``), a mandatory ``seed``, and a
kind-specific parameter block.  Every run is a pure function of the config
bytes and the seed: outputs (UTF-8 CSV with a header row, pretty-printed
JSON with sorted keys) are byte-identical across re-runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import casestudy as cs
from . import cot_placement as cot
from . import fedft
from . import moe_orchestrator as moe
from . import unlearn
from .errors import ConfigError, PlacementError, SizeLimitError
from .netsim import DeviceProfile

KINDS = ("fedft", "unlearn", "moe", "cot", "casestudy")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class InfeasibleScenario(Exception):
    """Raised when a validated scenario has no feasible solution."""


# ---------------------------------------------------------------------------
# field helpers
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError("missing required field", f"{where}.{key}")
    return cfg[key]


def _number(cfg: dict, key: str, where: str, default=None, minimum=None, positive=False):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError("missing required field", f"{where}.{key}")
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {type(v).__name__}", f"{where}.{key}")
    v = float(v)
    if positive and v <= 0:
        raise ConfigError(f"must be > 0, got {v}", f"{where}.{key}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"must be >= {minimum}, got {v}", f"{where}.{key}")
    return v


def _integer(cfg: dict, key: str, where: str, default=None, minimum=None):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError("missing required field", f"{where}.{key}")
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"expected an integer, got {type(v).__name__}", f"{where}.{key}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"must be >= {minimum}, got {v}", f"{where}.{key}")
    return v


def parse_devices(cfg: dict, where: str = "devices") -> list[DeviceProfile]:
    entries = cfg.get("devices")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("expected a nonempty device list", where)
    out = []
    for i, entry in enumerate(entries):
        w = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("device entry must be an object", w)
        dev_id = _require(entry, "id", w)
        if not isinstance(dev_id, str) or not dev_id:
            raise ConfigError("device id must be a nonempty string", f"{w}.id")
        try:
            out.append(
                DeviceProfile(
                    id=dev_id,
                    compute_rate=_number(entry, "compute_rate", w, positive=True),
                    memory_capacity=_number(entry, "memory_capacity", w, positive=True),
                    channel_gain=_number(entry, "channel_gain", w, minimum=0.0),
                    tx_power=_number(entry, "tx_power", w, minimum=0.0),
                    local_rank=_integer(entry, "local_rank", w, default=1, minimum=1),
                )
            )
        except ValueError as exc:
            raise ConfigError(str(exc), w) from exc
    ids = [d.id for d in out]
    if len(set(ids)) != len(ids):
        raise ConfigError("device ids must be unique", where)
    return out


def _channel(cfg: dict, where: str = "channel") -> dict:
    ch = cfg.get("channel")
    if not isinstance(ch, dict):
        raise ConfigError("expected a channel object", where)
    return {
        "total_bandwidth": _number(ch, "total_bandwidth", where, positive=True),
        "noise_density": _number(ch, "noise_density", where, positive=True),
        "link_bandwidth": _number(ch, "link_bandwidth", where, default=1e6, positive=True),
    }


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    config: dict


def parse_scenario(text: str) -> Scenario:
    """Parse and validate config text; raises ConfigError with diagnostics."""
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be an object", "$")
    kind = _require(cfg, "kind", "$")
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}, expected one of {KINDS}", "$.kind")
    seed = _integer(cfg, "seed", "$", minimum=0)
    validator = _VALIDATORS[kind]
    validator(cfg)
    return Scenario(kind, seed, cfg)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_scenario(text)


# ---------------------------------------------------------------------------
# per-kind validation
# ---------------------------------------------------------------------------

def _validate_fedft(cfg: dict) -> None:
    devices = parse_devices(cfg)
    _channel(cfg)
    block = cfg.get("fedft")
    if not isinstance(block, dict):
        raise ConfigError("expected a fedft parameter object", "fedft")
    _integer(block, "rounds", "fedft", minimum=1)
    _number(block, "lr", "fedft", positive=True)
    fd = _integer(block, "feature_dim", "fedft", minimum=1)
    od = _integer(block, "output_dim", "fedft", minimum=1)
    tr = _integer(block, "true_rank", "fedft", minimum=1)
    if tr > min(fd, od):
        raise ConfigError(f"true_rank {tr} exceeds min(dims) {min(fd, od)}", "fedft.true_rank")
    _integer(block, "samples_per_device", "fedft", minimum=1)
    _number(block, "noise_std", "fedft", default=0.0, minimum=0.0)
    _number(block, "deadline_s", "fedft", positive=True)
    for d in devices:
        if d.local_rank > min(fd, od):
            raise ConfigError(
                f"device {d.id} local_rank {d.local_rank} exceeds min(dims)",
                "devices",
            )


def _validate_unlearn(cfg: dict) -> None:
    devices = parse_devices(cfg)
    block = cfg.get("unlearn")
    if not isinstance(block, dict):
        raise ConfigError("expected an unlearn parameter object", "unlearn")
    _integer(block, "classes", "unlearn", minimum=2)
    _integer(block, "feature_dim", "unlearn", minimum=1)
    _integer(block, "samples_per_device", "unlearn", minimum=1)
    _integer(block, "pretrain_rounds", "unlearn", minimum=0)
    _integer(block, "unlearn_rounds", "unlearn", minimum=1)
    _number(block, "lr", "unlearn", positive=True)
    delta = _number(block, "delta", "unlearn", positive=True)
    if delta > 1:
        raise ConfigError("delta must be in (0, 1]", "unlearn.delta")
    opt_out = _require(block, "opt_out", "unlearn")
    ids = {d.id for d in devices}
    if not isinstance(opt_out, list) or not opt_out:
        raise ConfigError("opt_out must be a nonempty list of device ids", "unlearn.opt_out")
    for dev in opt_out:
        if dev not in ids:
            raise ConfigError(f"opt_out id {dev!r} is not a device", "unlearn.opt_out")
    dp = block.get("dp")
    if dp is not None:
        if not isinstance(dp, dict):
            raise ConfigError("dp must be an object", "unlearn.dp")
        _number(dp, "clip_norm", "unlearn.dp", positive=True)
        _number(dp, "sigma", "unlearn.dp", minimum=0.0)


def _validate_moe(cfg: dict) -> None:
    devices = parse_devices(cfg)
    _channel(cfg)
    block = cfg.get("moe")
    if not isinstance(block, dict):
        raise ConfigError("expected a moe parameter object", "moe")
    experts = block.get("experts")
    if not isinstance(experts, list) or not experts:
        raise ConfigError("expected a nonempty expert list", "moe.experts")
    ids = {d.id for d in devices}
    n_experts = len(experts)
    for i, entry in enumerate(experts):
        w = f"moe.experts[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("expert entry must be an object", w)
        _require(entry, "id", w)
        _number(entry, "workload", w, positive=True)
        _number(entry, "output_size", w, minimum=0.0)
        replicas = _require(entry, "replicas", w)
        if not isinstance(replicas, list) or not replicas:
            raise ConfigError("replicas must be a nonempty list", f"{w}.replicas")
        for r in replicas:
            if r not in ids:
                raise ConfigError(f"replica {r!r} is not a device", f"{w}.replicas")
    k = _integer(block, "top_k", "moe", minimum=1)
    if k > n_experts:
        raise ConfigError(f"top_k {k} exceeds expert count {n_experts}", "moe.top_k")
    _integer(block, "slots", "moe", minimum=1)
    _number(block, "v", "moe", minimum=0.0)
    _integer(block, "layers_per_task", "moe", default=1, minimum=1)
    _number(block, "load_jitter", "moe", default=0.0, minimum=0.0)
    _number(block, "w_lat", "moe", default=1.0, minimum=0.0)
    _number(block, "w_energy", "moe", default=0.0, minimum=0.0)
    if block.get("fading_sigma") is not None:
        _number(block, "fading_sigma", "moe", minimum=0.0)
    failed = block.get("failed_devices", [])
    if not isinstance(failed, list):
        raise ConfigError("failed_devices must be a list", "moe.failed_devices")
    for f in failed:
        if f not in ids:
            raise ConfigError(f"failed device {f!r} is not a device", "moe.failed_devices")
    sweep = block.get("v_sweep")
    if sweep is not None:
        if not isinstance(sweep, list) or not sweep:
            raise ConfigError("v_sweep must be a nonempty list", "moe.v_sweep")
        for v in sweep:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                raise ConfigError("v_sweep entries must be numbers >= 0", "moe.v_sweep")


def _validate_cot(cfg: dict) -> None:
    devices = parse_devices(cfg)
    _channel(cfg)
    block = cfg.get("cot")
    if not isinstance(block, dict):
        raise ConfigError("expected a cot parameter object", "cot")
    steps = block.get("steps")
    if not isinstance(steps, list) or not steps:
        raise ConfigError("expected a nonempty step list", "cot.steps")
    for i, entry in enumerate(steps):
        w = f"cot.steps[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("step entry must be an object", w)
        _number(entry, "workload", w, positive=True)
        _number(entry, "handoff_size", w, minimum=0.0)
    gains = block.get("gains")
    n = len(devices)
    if gains is not None:
        if (
            not isinstance(gains, list)
            or len(gains) != n
            or any(not isinstance(row, list) or len(row) != n for row in gains)
        ):
            raise ConfigError(f"gains must be a {n}x{n} matrix", "cot.gains")
    _number(block, "shard_bytes", "cot", default=0.0, minimum=0.0)
    solver = block.get("solver", "both")
    if solver not in ("exact", "local_search", "both"):
        raise ConfigError(f"unknown solver {solver!r}", "cot.solver")
    _integer(block, "iters", "cot", default=10, minimum=1)


def _validate_casestudy(cfg: dict) -> None:
    block = cfg.get("casestudy")
    if not isinstance(block, dict):
        raise ConfigError("expected a casestudy parameter object", "casestudy")
    budgets = block.get("budgets")
    if not isinstance(budgets, list) or not budgets:
        raise ConfigError("expected a nonempty budget list", "casestudy.budgets")
    for b in budgets:
        if isinstance(b, bool) or not isinstance(b, int) or b < 1:
            raise ConfigError("budgets must be positive integers", "casestudy.budgets")
    calibrate = block.get("calibrate", False)
    if not isinstance(calibrate, bool):
        raise ConfigError("calibrate must be a boolean", "casestudy.calibrate")
    if calibrate:
        targets = block.get("targets", [0.708, 0.596])
        if (
            not isinstance(targets, list)
            or len(targets) != 2
            or any(not isinstance(t, (int, float)) or not 0 < t < 1 for t in targets)
        ):
            raise ConfigError("targets must be two fractions in (0,1)", "casestudy.targets")
    else:
        model = block.get("model")
        if not isinstance(model, dict):
            raise ConfigError("need a model object when calibrate is false", "casestudy.model")
        _integer(model, "n_total", "casestudy.model", minimum=1)
        _integer(model, "t_budget", "casestudy.model", minimum=1)
        _number(model, "alpha_mem", "casestudy.model", positive=True)
        _number(model, "beta_comp", "casestudy.model", positive=True)
        _number(model, "gamma_handoff", "casestudy.model", minimum=0.0)
        _number(model, "base_mem", "casestudy.model", minimum=0.0)
        _number(model, "compute_rate", "casestudy.model", default=cs.DEFAULT_COMPUTE_RATE, positive=True)


_VALIDATORS = {
    "fedft": _validate_fedft,
    "unlearn": _validate_unlearn,
    "moe": _validate_moe,
    "cot": _validate_cot,
    "casestudy": _validate_casestudy,
}


# ---------------------------------------------------------------------------
# deterministic output writers
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """Shortest round-trip decimal text for a cell (stable across runs)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _run_fedft(scenario: Scenario, out_dir: Path) -> None:
    cfg = scenario.config
    devices = parse_devices(cfg)
    ch = _channel(cfg)
    block = cfg["fedft"]
    samples = {d.id: int(block["samples_per_device"]) for d in devices}
    state = fedft.make_synthetic_task(
        scenario.seed,
        devices,
        feature_dim=int(block["feature_dim"]),
        output_dim=int(block["output_dim"]),
        true_rank=int(block["true_rank"]),
        samples_per_device=samples,
        noise_std=float(block.get("noise_std", 0.0)),
    )
    initial = fedft.global_loss(state)
    lr = float(block["lr"])
    try:
        # an overflow is the first sign of divergence: raise it before a
        # non-finite adapter or loss exists
        with np.errstate(over="raise", invalid="raise"):
            records = fedft.run_fedft(
                state,
                devices,
                ch["total_bandwidth"],
                float(block["deadline_s"]),
                lr,
                ch["noise_density"],
                rounds=int(block["rounds"]),
                bits_per_param=float(block.get("bits_per_param", 64.0)),
            )
    except FloatingPointError as exc:
        raise InfeasibleScenario(
            f"training diverged in round {state.round_index + 1} ({exc}); "
            f"lower fedft.lr (now {lr:g})"
        ) from None
    if records and not math.isfinite(records[0].round_latency):
        raise InfeasibleScenario(
            "no device subset meets the deadline; raise deadline_s or bandwidth"
        )
    rows = [
        [
            r.round_index,
            r.global_loss,
            r.round_latency,
            ";".join(r.selected),
            ";".join(f"{dev}={fmt(b)}" for dev, b in sorted(r.bandwidth.items())),
        ]
        for r in records
    ]
    write_csv(
        out_dir / "fedft_rounds.csv",
        ["round", "global_loss", "round_latency_s", "selected_devices", "bandwidth_hz"],
        rows,
    )
    write_json(
        out_dir / "fedft_summary.json",
        {
            "kind": "fedft",
            "seed": scenario.seed,
            "rounds": len(records),
            "initial_loss": initial,
            "final_loss": records[-1].global_loss if records else initial,
            "round_latency_s": records[-1].round_latency if records else None,
            "selected_devices": list(records[-1].selected) if records else [],
        },
    )


def _run_unlearn(scenario: Scenario, out_dir: Path) -> None:
    cfg = scenario.config
    devices = parse_devices(cfg)
    block = cfg["unlearn"]
    opt_out = frozenset(block["opt_out"])
    state = unlearn.make_classification_task(
        scenario.seed,
        [d.id for d in devices],
        set(opt_out),
        n_classes=int(block["classes"]),
        feature_dim=int(block["feature_dim"]),
        samples_per_device=int(block["samples_per_device"]),
    )
    delta = float(block["delta"])
    unlearn.pretrain(state, float(block["lr"]), int(block["pretrain_rounds"]), delta)
    request = unlearn.UnlearnRequest(opt_out)
    dp_cfg = None
    if block.get("dp") is not None:
        dp_cfg = unlearn.DpConfig(
            clip_norm=float(block["dp"]["clip_norm"]),
            sigma=float(block["dp"]["sigma"]),
            seed=scenario.seed,
        )
    pre_forget = unlearn.forget_loss(state, request, delta)
    pre_retained = unlearn.retained_loss(state, request, delta)
    records = unlearn.run_unlearning(
        state, request, float(block["lr"]), delta,
        rounds=int(block["unlearn_rounds"]), dp=dp_cfg,
    )
    rows = [
        [r.round_index, r.forget_loss, r.retained_loss, r.projection_residual_norm, r.sigma]
        for r in records
    ]
    write_csv(
        out_dir / "unlearn_rounds.csv",
        ["round", "forget_loss", "retained_loss", "projection_residual_norm", "sigma"],
        rows,
    )
    write_json(
        out_dir / "unlearn_summary.json",
        {
            "kind": "unlearn",
            "seed": scenario.seed,
            "opt_out": sorted(opt_out),
            "pre_unlearning_forget_loss": pre_forget,
            "pre_unlearning_retained_loss": pre_retained,
            "final_forget_loss": records[-1].forget_loss,
            "final_retained_loss": records[-1].retained_loss,
            "rounds": len(records),
        },
    )


def _moe_bandwidth(devices, ch) -> dict[str, float]:
    share = ch["total_bandwidth"] / len(devices)
    return {d.id: share for d in devices}


def _run_moe(scenario: Scenario, out_dir: Path) -> None:
    cfg = scenario.config
    devices = parse_devices(cfg)
    ch = _channel(cfg)
    block = cfg["moe"]
    experts = [
        moe.ExpertMicroservice(
            id=str(e["id"]),
            workload_per_call=float(e["workload"]),
            output_size=float(e["output_size"]),
            replicas=tuple(e["replicas"]),
        )
        for e in block["experts"]
    ]
    kwargs = dict(
        devices=devices,
        experts=experts,
        n_slots=int(block["slots"]),
        top_k=int(block["top_k"]),
        seed=scenario.seed,
        bandwidth=_moe_bandwidth(devices, ch),
        noise_density=ch["noise_density"],
        layers_per_task=int(block.get("layers_per_task", 1)),
        load_jitter=float(block.get("load_jitter", 0.0)),
        w_lat=float(block.get("w_lat", 1.0)),
        w_energy=float(block.get("w_energy", 0.0)),
        failed_devices=frozenset(block.get("failed_devices", [])),
        arrival_prob=float(block.get("arrival_prob", 1.0)),
        fading_sigma=(
            float(block["fading_sigma"])
            if block.get("fading_sigma") is not None
            else None
        ),
    )
    result = moe.orchestrate(v=float(block["v"]), **kwargs)
    dev_ids = sorted(d.id for d in devices)
    rows = [
        [
            r.slot,
            ";".join(f"{e}={d}" for e, d in r.assignment),
            r.slot_cost,
            *[r.backlogs[dev] for dev in dev_ids],
        ]
        for r in result.records
    ]
    write_csv(
        out_dir / "moe_trace.csv",
        ["slot", "assignment", "slot_cost", *[f"backlog_{dev}" for dev in dev_ids]],
        rows,
    )
    summary = {
        "kind": "moe",
        "seed": scenario.seed,
        "v": float(block["v"]),
        "time_avg_cost": result.time_avg_cost,
        "time_avg_backlog": result.time_avg_backlog,
        "max_backlog": result.max_backlog,
    }
    sweep = block.get("v_sweep")
    if sweep:
        entries = []
        for v in sweep:
            res = moe.orchestrate(v=float(v), **kwargs)
            entries.append(
                {
                    "v": float(v),
                    "time_avg_cost": res.time_avg_cost,
                    "time_avg_backlog": res.time_avg_backlog,
                    "max_backlog": res.max_backlog,
                }
            )
        summary["v_sweep"] = entries
    write_json(out_dir / "moe_summary.json", summary)


def _run_cot(scenario: Scenario, out_dir: Path) -> None:
    cfg = scenario.config
    devices = parse_devices(cfg)
    ch = _channel(cfg)
    block = cfg["cot"]
    chain = cot.CotChain(
        tuple(
            cot.CotStep(float(s["workload"]), float(s["handoff_size"]))
            for s in block["steps"]
        )
    )
    n = len(devices)
    gains = block.get("gains")
    if gains is None:
        gains = [[1.0] * n for _ in range(n)]
    link_rates = cot.link_rates_from_gains(
        devices, gains, ch["link_bandwidth"], ch["noise_density"]
    )
    shard_bytes = float(block.get("shard_bytes", 0.0))
    solver = block.get("solver", "both")
    iters = int(block.get("iters", 10))

    payload: dict = {
        "kind": "cot",
        "seed": scenario.seed,
        "n_steps": len(chain),
        "devices": [d.id for d in devices],
    }
    exact_res = None
    if solver in ("exact", "both"):
        exact_res = cot.solve_exact(chain, devices, link_rates, shard_bytes)
        if not exact_res.feasible:
            raise InfeasibleScenario("no capacity-feasible placement exists")
        payload["exact"] = {
            "placement": list(exact_res.placement.assignment),
            "cost_s": exact_res.cost,
            "solver": "exact",
            "n_feasible": exact_res.n_feasible,
        }
    if solver in ("local_search", "both"):
        ls_res = cot.solve_local_search(
            chain, devices, link_rates, scenario.seed, iters, shard_bytes
        )
        if not ls_res.feasible:
            raise InfeasibleScenario("local search found no feasible start")
        entry = {
            "placement": list(ls_res.placement.assignment),
            "cost_s": ls_res.cost,
            "solver": "local_search",
        }
        if exact_res is not None:
            entry["gap_to_exact"] = (
                (ls_res.cost - exact_res.cost) / exact_res.cost
                if exact_res.cost > 0
                else 0.0
            )
        payload["local_search"] = entry
    write_json(out_dir / "cot_result.json", payload)


def _run_casestudy(scenario: Scenario, out_dir: Path) -> None:
    block = scenario.config["casestudy"]
    budgets = [int(b) for b in block["budgets"]]
    summary: dict = {"kind": "casestudy", "seed": scenario.seed, "budgets": budgets}
    if block.get("calibrate", False):
        targets = block.get("targets", [0.708, 0.596])
        result = cs.calibrate_casestudy((float(targets[0]), float(targets[1])))
        if result.model is None:
            raise InfeasibleScenario(f"calibration failed: {result.message}")
        model = result.model
        summary["calibration"] = {
            "targets": {"mem_reduction": targets[0], "lat_reduction": targets[1]},
            "achieved": {
                "mem_reduction": result.achieved_mem_reduction,
                "lat_reduction": result.achieved_lat_reduction,
            },
            "residuals": {"mem": result.residual_mem, "lat": result.residual_lat},
            "success": result.success,
            "message": result.message,
        }
    else:
        m = block["model"]
        model = cs.TokenBudgetModel(
            n_total=int(m["n_total"]),
            t_budget=int(m["t_budget"]),
            alpha_mem=float(m["alpha_mem"]),
            beta_comp=float(m["beta_comp"]),
            gamma_handoff=float(m["gamma_handoff"]),
            base_mem=float(m["base_mem"]),
            compute_rate=float(m.get("compute_rate", cs.DEFAULT_COMPUTE_RATE)),
        )
    try:
        rows = cs.casestudy_sweep(model, budgets)
    except SizeLimitError as exc:
        raise InfeasibleScenario(str(exc)) from exc
    write_csv(
        out_dir / "casestudy_sweep.csv",
        [
            "max_tokens",
            "device_count",
            "total_memory_bytes",
            "monolithic_memory_bytes",
            "total_latency_s",
            "monolithic_latency_s",
            "mem_reduction",
            "lat_reduction",
            "combined_normalized_cost",
        ],
        [
            [
                r.t_budget,
                r.device_count,
                r.total_memory,
                r.monolithic_memory,
                r.total_latency,
                r.monolithic_latency,
                r.mem_reduction,
                r.lat_reduction,
                r.combined_normalized_cost,
            ]
            for r in rows
        ],
    )
    summary["model"] = {
        "n_total": model.n_total,
        "t_budget": model.t_budget,
        "alpha_mem": model.alpha_mem,
        "beta_comp": model.beta_comp,
        "gamma_handoff": model.gamma_handoff,
        "base_mem": model.base_mem,
        "compute_rate": model.compute_rate,
    }
    best = min(rows, key=lambda r: r.combined_normalized_cost)
    summary["best_budget"] = best.t_budget
    write_json(out_dir / "casestudy_summary.json", summary)


_RUNNERS = {
    "fedft": _run_fedft,
    "unlearn": _run_unlearn,
    "moe": _run_moe,
    "cot": _run_cot,
    "casestudy": _run_casestudy,
}


def run_scenario(path: str | Path, out_dir: str | Path, seed: int | None = None) -> int:
    """Run one scenario file; returns the process exit status (0/2/3)."""
    try:
        scenario = load_scenario(path)
        if seed is not None:
            scenario = Scenario(scenario.kind, seed, dict(scenario.config, seed=seed))
    except ConfigError as exc:
        print(f"config error: {exc}")
        return EXIT_CONFIG
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _RUNNERS[scenario.kind](scenario, out)
    except InfeasibleScenario as exc:
        print(f"infeasible scenario: {exc}")
        return EXIT_INFEASIBLE
    except (PlacementError, SizeLimitError) as exc:
        print(f"infeasible scenario: {exc}")
        return EXIT_INFEASIBLE
    return EXIT_OK
