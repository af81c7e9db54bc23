"""Correctness gate for every scenario a benchmark run executes.

Three kinds of check, none of which calls the program:

* reference fields: shipped and pinned scenarios are compared field by field
  with ``references.json``, recorded at the seed commit.  Only result fields
  are compared (placement and cost, selected devices and latency, per-round
  losses, per-slot assignments and backlogs, calibration), so an output that
  gains or drops a diagnostic field such as ``n_feasible`` still passes.
  Long float columns are compared through checksums (count, sum, index-
  weighted sum, min, max), discrete columns through a digest.
* oracles: small CoT chains are solved again by brute force here; for
  larger ones the exact placement must be feasible, cost what it claims and
  admit no improving single-step move.
* invariants that follow from the config alone: fedft picks exactly the
  devices that can meet the deadline, or as many as the band carries, MoE
  assignments respect replicas and queue dynamics, summaries agree with
  their CSVs.

Each check returns a list of failure messages; empty means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from pathlib import Path

REL_TOL = 1e-9
DEADLINE_TOL = 1e-9

OUTPUTS = {
    "cot": (None, "cot_result.json"),
    "fedft": ("fedft_rounds.csv", "fedft_summary.json"),
    "moe": ("moe_trace.csv", "moe_summary.json"),
    "unlearn": ("unlearn_rounds.csv", "unlearn_summary.json"),
    "casestudy": ("casestudy_sweep.csv", "casestudy_summary.json"),
}


def load_outputs(kind: str, out_dir: Path) -> dict:
    """The run's CSV rows (dicts) and JSON summary; raises OSError if missing."""
    csv_name, json_name = OUTPUTS[kind]
    rows = []
    if csv_name:
        with open(out_dir / csv_name, encoding="utf-8", newline="") as f:
            rows = list(csv.DictReader(f))
    with open(out_dir / json_name, encoding="utf-8") as f:
        summary = json.load(f)
    return {"rows": rows, "summary": summary}


def digest_files(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# reference fields
# ---------------------------------------------------------------------------

def _checksum(values: list[float]) -> dict:
    n = len(values)
    return {
        "checksum": {
            "n": n,
            "sum": math.fsum(values),
            "wsum": math.fsum((i + 1) * v / n for i, v in enumerate(values)),
            "abs": math.fsum(abs(v) for v in values),
            "min": min(values, default=0.0),
            "max": max(values, default=0.0),
        }
    }


def _digest(values: list[str]) -> dict:
    return {"digest": hashlib.sha256("\n".join(values).encode()).hexdigest(), "n": len(values)}


def _column(rows: list[dict], name: str) -> list[float]:
    return [float(r[name]) for r in rows]


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}" if prefix else key, value, out)
    else:
        out[prefix] = obj


def fields(kind: str, out: dict) -> dict:
    """Flat ``field -> value`` map of the result fields a reference pins."""
    s, rows = out["summary"], out["rows"]
    f: dict = {}
    if kind == "cot":
        for solver in ("exact", "local_search"):
            for key in ("placement", "cost_s", "gap_to_exact"):
                if key in s.get(solver, {}):
                    f[f"{solver}.{key}"] = s[solver][key]
    elif kind == "fedft":
        for key in ("selected_devices", "round_latency_s", "initial_loss", "final_loss", "rounds"):
            f[key] = s[key]
        f["rows.global_loss"] = _checksum(_column(rows, "global_loss"))
        f["rows.round_latency_s"] = _checksum(_column(rows, "round_latency_s"))
        f["rows.selected_devices"] = _digest([r["selected_devices"] for r in rows])
    elif kind == "moe":
        for key in ("v", "time_avg_cost", "time_avg_backlog", "max_backlog"):
            f[key] = s[key]
        for i, entry in enumerate(s.get("v_sweep", [])):
            _flatten(f"v_sweep[{i}]", entry, f)
        f["rows.assignment"] = _digest([r["assignment"] for r in rows])
        for name in rows[0] if rows else ():
            if name == "slot_cost" or name.startswith("backlog_"):
                f[f"rows.{name}"] = _checksum(_column(rows, name))
    elif kind == "unlearn":
        for key in ("opt_out", "rounds", "pre_unlearning_forget_loss",
                    "pre_unlearning_retained_loss", "final_forget_loss", "final_retained_loss"):
            f[key] = s[key]
        for name in ("forget_loss", "retained_loss", "projection_residual_norm", "sigma"):
            f[f"rows.{name}"] = _checksum(_column(rows, name))
    elif kind == "casestudy":
        for key in ("budgets", "best_budget", "model", "calibration"):
            if key in s:
                _flatten(key, s[key], f)
        for name in rows[0] if rows else ():
            f[f"rows.{name}"] = _checksum(_column(rows, name))
    return f


def _close(a: float, b: float, scale: float = 0.0) -> bool:
    if a == b:
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def _same(ref, got) -> bool:
    if isinstance(ref, dict) and "checksum" in ref:
        if not (isinstance(got, dict) and "checksum" in got):
            return False
        r, g = ref["checksum"], got["checksum"]
        scale = max(r["abs"], g["abs"])
        return r["n"] == g["n"] and all(
            _close(r[k], g[k], scale if k in ("sum", "wsum") else 0.0)
            for k in ("sum", "wsum", "abs", "min", "max")
        )
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    if isinstance(ref, float) or isinstance(got, float):
        return isinstance(got, (int, float)) and isinstance(ref, (int, float)) and _close(ref, got)
    if isinstance(ref, list):
        return isinstance(got, list) and len(ref) == len(got) and all(map(_same, ref, got))
    return ref == got


def compare(ref: dict, got: dict) -> list[str]:
    errors = []
    for key, value in ref.items():
        if key not in got:
            errors.append(f"field {key} missing")
        elif not _same(value, got[key]):
            errors.append(f"field {key}: expected {value!r}, got {got[key]!r}")
    return errors


# ---------------------------------------------------------------------------
# CoT: independent cost model and brute force
# ---------------------------------------------------------------------------

def shannon(bandwidth: float, gain: float, power: float, noise_density: float) -> float:
    if bandwidth == 0.0 or gain * power == 0.0:
        return 0.0
    return bandwidth * math.log2(1.0 + gain * power / (noise_density * bandwidth))


class CotModel:
    """Placement cost and capacity check of a cot config, rebuilt from the config."""

    def __init__(self, cfg: dict):
        devs, ch, block = cfg["devices"], cfg["channel"], cfg["cot"]
        n = len(devs)
        gains = block.get("gains") or [[1.0] * n for _ in range(n)]
        bw, n0 = ch.get("link_bandwidth", 1e6), ch["noise_density"]
        shard = block.get("shard_bytes", 0.0)
        self.steps = block["steps"]
        self.n_devices = n
        self.rate = [
            [shannon(bw, gains[a][b], devs[a]["tx_power"], n0) if a != b else 0.0 for b in range(n)]
            for a in range(n)
        ]
        self.comp = [[s["workload"] / d["compute_rate"] for d in devs] for s in self.steps]
        self.mem = [s["handoff_size"] / 8.0 + shard for s in self.steps]
        self.cap = [d["memory_capacity"] for d in devs]

    def cost(self, placement) -> float:
        total = 0.0
        for s, d in enumerate(placement):
            prev = placement[s - 1] if s else d
            bits = self.steps[s - 1]["handoff_size"] if s else 0.0
            if prev != d and bits > 0:
                rate = self.rate[prev][d]
                total += bits / rate if rate > 0 else math.inf
            total += self.comp[s][d]
        return total

    def feasible(self, placement) -> bool:
        load = [0.0] * self.n_devices
        for s, d in enumerate(placement):
            load[d] += self.mem[s]
        return all(load[d] <= self.cap[d] for d in range(self.n_devices))

    def brute_force(self) -> tuple[tuple[int, ...] | None, float]:
        """Lexicographically first cheapest feasible placement, by full enumeration."""
        best, best_cost = None, math.inf
        for p in itertools.product(range(self.n_devices), repeat=len(self.steps)):
            if self.feasible(p):
                c = self.cost(p)
                if c < best_cost:
                    best, best_cost = p, c
        return best, best_cost


def _check_cot(cfg: dict, out: dict, expect: dict) -> list[str]:
    s = out["summary"]
    model = CotModel(cfg)
    errors = []
    exact = s.get("exact")
    if exact is not None:
        p = tuple(exact["placement"])
        if not model.feasible(p):
            errors.append("exact placement exceeds a device's memory")
        if not _close(model.cost(p), exact["cost_s"]):
            errors.append(f"exact cost {exact['cost_s']} != recomputed {model.cost(p)}")
        for step, d in itertools.product(range(len(p)), range(model.n_devices)):
            q = p[:step] + (d,) + p[step + 1:]
            if model.feasible(q) and model.cost(q) < exact["cost_s"] * (1 - REL_TOL):
                errors.append(f"exact placement improved by moving step {step} to device {d}")
                break
        if expect.get("brute_force"):
            bp, bc = model.brute_force()
            if bp != p or not _close(bc, exact["cost_s"]):
                errors.append(f"brute force gives {bp} at {bc}, exact gave {p} at {exact['cost_s']}")
    ls = s.get("local_search")
    if ls is not None:
        p = tuple(ls["placement"])
        if not model.feasible(p):
            errors.append("local-search placement exceeds a device's memory")
        if not _close(model.cost(p), ls["cost_s"]):
            errors.append(f"local-search cost {ls['cost_s']} != recomputed {model.cost(p)}")
        if exact is not None:
            if ls["cost_s"] < exact["cost_s"] * (1 - REL_TOL):
                errors.append("local search beat the exact solver")
            gap = (ls["cost_s"] - exact["cost_s"]) / exact["cost_s"]
            if not _close(gap, ls.get("gap_to_exact", math.nan), 1e-6):
                errors.append(f"gap_to_exact {ls.get('gap_to_exact')} != {gap}")
    return errors


# ---------------------------------------------------------------------------
# per-kind invariants
# ---------------------------------------------------------------------------

def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_fedft(cfg: dict, out: dict, expect: dict) -> list[str]:
    s, rows = out["summary"], out["rows"]
    block, ch = cfg["fedft"], cfg["channel"]
    devs = {d["id"]: d for d in cfg["devices"]}
    errors = []
    if [int(r["round"]) for r in rows] != list(range(1, block["rounds"] + 1)):
        errors.append("round column is not 1..rounds")
    losses = _column(rows, "global_loss")
    if not _finite(losses) or not s["final_loss"] < s["initial_loss"]:
        errors.append(f"loss did not fall: {s['initial_loss']} -> {s['final_loss']}")
    if "selected" in expect:
        want = ";".join(expect["selected"])
        if s["selected_devices"] != expect["selected"] or any(r["selected_devices"] != want for r in rows):
            errors.append(f"selected {s['selected_devices']}, the deadline admits exactly {expect['selected']}")
    if "n_selected" in expect and len(s["selected_devices"]) != expect["n_selected"]:
        errors.append(f"selected {len(s['selected_devices'])} devices, the band carries {expect['n_selected']}")
    if not rows:
        return errors
    # the first round's allocation must fit the band and meet the deadline
    alloc = dict(item.split("=") for item in rows[0]["bandwidth_hz"].split(";") if item)
    alloc = {dev: float(b) for dev, b in alloc.items()}
    if math.fsum(alloc.values()) > ch["total_bandwidth"] * (1 + DEADLINE_TOL):
        errors.append("bandwidth allocation exceeds the band")
    fd, od, m = block["feature_dim"], block["output_dim"], block["samples_per_device"]
    bits_per_param = block.get("bits_per_param", 64.0)
    for dev, b in alloc.items():
        d = devs[dev]
        r = d.get("local_rank", 1)
        flops = m * (6.0 * (od * r + r * fd) + 2.0 * od * fd)
        rate = shannon(b, d["channel_gain"], d["tx_power"], ch["noise_density"])
        latency = flops / d["compute_rate"] + (bits_per_param * r * (fd + od) / rate if rate > 0 else math.inf)
        if latency > block["deadline_s"] * (1 + DEADLINE_TOL):
            errors.append(f"device {dev} needs {latency}s, deadline {block['deadline_s']}s")
    return errors


def _check_moe(cfg: dict, out: dict, expect: dict) -> list[str]:
    s, rows = out["summary"], out["rows"]
    block, ch = cfg["moe"], cfg["channel"]
    devs = sorted(cfg["devices"], key=lambda d: d["id"])
    experts = {e["id"]: e for e in block["experts"]}
    failed = set(block.get("failed_devices", []))
    k, layers = block["top_k"], block.get("layers_per_task", 1)
    errors = []
    if [int(r["slot"]) for r in rows] != list(range(block["slots"])):
        return ["slot column is not 0..slots-1"]
    static = block.get("fading_sigma") is None
    share = ch["total_bandwidth"] / len(devs)
    call_cost = {}
    if static:
        w_lat, w_energy = block.get("w_lat", 1.0), block.get("w_energy", 0.0)
        for d in devs:
            rate = shannon(share, d["channel_gain"], d["tx_power"], ch["noise_density"])
            for e in experts.values():
                lat = e["output_size"] / rate if rate > 0 else math.inf
                call_cost[e["id"], d["id"]] = (
                    math.inf if math.isinf(lat) else w_lat * lat + w_energy * d["tx_power"] * lat
                )
    prev = [0.0] * len(devs)
    cost_sum, backlog_sum, peak = [], [], 0.0
    for r in rows:
        calls = [tuple(item.split("=")) for item in r["assignment"].split(";") if item]
        slot = r["slot"]
        if block.get("arrival_prob", 1.0) >= 1.0 and len(calls) != k * layers:
            errors.append(f"slot {slot}: {len(calls)} calls, expected {k * layers}")
        for e, d in calls:
            if e not in experts or d not in experts[e]["replicas"] or d in failed:
                errors.append(f"slot {slot}: expert {e} placed on {d}, not a live replica")
        for i in range(0, len(calls), k):
            layer = [e for e, _ in calls[i:i + k]]
            if len(set(layer)) != len(layer):
                errors.append(f"slot {slot}: an expert repeats within one layer")
        slot_cost = float(r["slot_cost"])
        if static and not _close(math.fsum(call_cost[c] for c in calls), slot_cost):
            errors.append(f"slot {slot}: cost {slot_cost} disagrees with its assignment")
        backlog = [float(r[f"backlog_{d['id']}"]) for d in devs]
        for j, d in enumerate(devs):
            # Lindley: Q(t+1) = max(Q(t) + a - b, 0) >= Q(t) - b
            if backlog[j] < 0 or backlog[j] < prev[j] - d["compute_rate"] * (1 + REL_TOL):
                errors.append(f"slot {slot}: backlog of {d['id']} breaks the queue update")
        prev = backlog
        cost_sum.append(slot_cost)
        backlog_sum.append(math.fsum(backlog))
        peak = max(peak, *backlog)
        if len(errors) > 5:
            return errors
    n = len(rows)
    if not _close(math.fsum(cost_sum) / n, s["time_avg_cost"], 1e-12):
        errors.append("time_avg_cost is not the mean slot cost")
    if not _close(math.fsum(backlog_sum) / n, s["time_avg_backlog"], 1e-12):
        errors.append("time_avg_backlog is not the mean total backlog")
    if not _close(peak, s["max_backlog"]):
        errors.append("max_backlog is not the largest backlog")
    if len(s.get("v_sweep", [])) != len(block.get("v_sweep") or []):
        errors.append("v_sweep has the wrong number of entries")
    return errors


def _check_unlearn(cfg: dict, out: dict, expect: dict) -> list[str]:
    s, rows = out["summary"], out["rows"]
    block = cfg["unlearn"]
    errors = []
    if len(rows) != block["unlearn_rounds"] or s["rounds"] != block["unlearn_rounds"]:
        errors.append("wrong number of unlearning rounds")
    if s["opt_out"] != sorted(block["opt_out"]):
        errors.append("opt_out set changed")
    cols = {n: _column(rows, n) for n in ("forget_loss", "retained_loss", "projection_residual_norm", "sigma")}
    if not all(_finite(v) for v in cols.values()) or min(cols["projection_residual_norm"], default=0) < 0:
        errors.append("non-finite or negative per-round values")
    sigma = block["dp"]["sigma"] if block.get("dp") else 0.0
    if any(v != sigma for v in cols["sigma"]):
        errors.append("sigma column differs from the configured noise")
    if rows and (cols["forget_loss"][-1] != s["final_forget_loss"]
                 or cols["retained_loss"][-1] != s["final_retained_loss"]):
        errors.append("summary disagrees with the last round")
    if not s["final_forget_loss"] > s["pre_unlearning_forget_loss"]:
        errors.append("unlearning did not raise the forget loss")
    return errors


def _check_casestudy(cfg: dict, out: dict, expect: dict) -> list[str]:
    s, rows = out["summary"], out["rows"]
    block = cfg["casestudy"]
    errors = []
    if [int(r["max_tokens"]) for r in rows] != block["budgets"]:
        errors.append("sweep rows do not follow the budgets")
    if block.get("calibrate"):
        cal = s["calibration"]
        targets = block.get("targets", [0.708, 0.596])
        got = (cal["achieved"]["mem_reduction"], cal["achieved"]["lat_reduction"])
        if not cal["success"] or any(abs(g - t) > 0.02 for g, t in zip(got, targets)):
            errors.append(f"calibration missed the targets: {got} vs {targets}")
        if s["best_budget"] != 128:
            errors.append(f"calibrated model prefers budget {s['best_budget']}, not 128")
    return errors


CHECKS = {
    "cot": _check_cot,
    "fedft": _check_fedft,
    "moe": _check_moe,
    "unlearn": _check_unlearn,
    "casestudy": _check_casestudy,
}


def check(kind: str, cfg: dict, out: dict, expect: dict) -> list[str]:
    return CHECKS[kind](cfg, out, expect)
