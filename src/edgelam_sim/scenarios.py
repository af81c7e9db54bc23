"""Scenario configs: parse, run, and write outputs.

A scenario is a JSON file with a top-level ``kind`` discriminator
(``fedft | unlearn | moe | cot | casestudy``), a mandatory ``seed``, and a
kind-specific parameter block.  ``parse_scenario`` reads the JSON once: the
parser of each kind checks every field and builds the typed inputs its
runner needs (the scenario's ``spec``), so a config passes validation
exactly when a run can build it.  Every run is a pure function of the
config bytes and the seed: outputs (UTF-8 CSV with a header row,
pretty-printed JSON with sorted keys) are byte-identical across re-runs.

A runner writes nothing: it returns the CSV's ``(header, rows)`` (``None``
for CoT) and the JSON summary without ``kind`` and ``seed``; ``run_guarded``
adds those two keys and writes both files, each named once in ``_KINDS``.

The parsers use the standard library and ``netsim``'s value types only, so
``validate`` and every config error load no solver module and no numpy.
``run_guarded`` imports the kind's solver module (named in ``_KINDS``), and
then numpy, after the parse and before it enters its raising
``np.errstate``; a run loads only its own kind's modules.  Every module the
run uses has then been imported, ``numpy.random`` too (``rng`` imports it
by name, since numpy loads it on first use otherwise), so no module body
executes under that guard.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigError, PlacementError, SchedulingError, SizeLimitError

if TYPE_CHECKING:
    from collections.abc import Callable

    from .netsim import DeviceProfile

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


class InfeasibleScenario(Exception):
    """Raised when a validated scenario has no feasible solution."""


class NonFiniteOutput(Exception):
    """An output value is inf or nan, which strict JSON and the CSVs exclude."""


# ---------------------------------------------------------------------------
# field helpers
# ---------------------------------------------------------------------------

def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError("missing required field", f"{where}.{key}")
    return cfg[key]


def _finite(v) -> bool:
    """True for a number that converts to a finite float (JSON allows NaN/Infinity)."""
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _nonnegative(v) -> bool:
    """True for a finite number >= 0 that is not a bool."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and _finite(v) and v >= 0


def _number(cfg: dict, key: str, where: str, default=None, minimum=None, positive=False):
    if key not in cfg:
        if default is not None:
            return default
        raise ConfigError("missing required field", f"{where}.{key}")
    v = cfg[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"expected a number, got {type(v).__name__}", f"{where}.{key}")
    if not _finite(v):
        raise ConfigError(f"must be a finite number, got {v}", f"{where}.{key}")
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


def _string(cfg: dict, key: str, where: str) -> str:
    v = _require(cfg, key, where)
    if not isinstance(v, str) or not v:
        raise ConfigError("expected a nonempty string", f"{where}.{key}")
    return v


def _object(cfg: dict, key: str, where: str) -> dict:
    v = cfg.get(key)
    if not isinstance(v, dict):
        raise ConfigError("expected an object", where)
    return v


def _list(cfg: dict, key: str, where: str) -> list:
    v = cfg.get(key)
    if not isinstance(v, list) or not v:
        raise ConfigError("expected a nonempty list", where)
    return v


def _device_ids(ids, known: set[str], where: str) -> list[str]:
    """``ids`` as a list of distinct configured device ids; strings are
    checked before membership."""
    if not isinstance(ids, list):
        raise ConfigError("expected a list of device ids", where)
    seen = set()
    for j, dev in enumerate(ids):
        if not isinstance(dev, str) or dev not in known:
            raise ConfigError(f"{dev!r} is not a device id", f"{where}[{j}]")
        if dev in seen:
            raise ConfigError(f"{dev!r} is listed twice", f"{where}[{j}]")
        seen.add(dev)
    return ids


def _check_seed(seed: int, where: str) -> int:
    if not 0 <= seed < 2**64:  # ``rng.stream`` takes u64 seeds
        raise ConfigError(f"must be in [0, 2**64), got {seed}", where)
    return seed


def _build(cls, where: str, **fields):
    """``cls(**fields)``, with a ValueError from its own checks as a ConfigError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc), where) from exc


def parse_devices(cfg: dict, where: str = "devices") -> list[DeviceProfile]:
    from .netsim import DeviceProfile

    out = []
    for i, entry in enumerate(_list(cfg, "devices", where)):
        w = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("device entry must be an object", w)
        out.append(
            _build(
                DeviceProfile,
                w,
                id=_string(entry, "id", w),
                compute_rate=_number(entry, "compute_rate", w, positive=True),
                memory_capacity=_number(entry, "memory_capacity", w, positive=True),
                channel_gain=_number(entry, "channel_gain", w, minimum=0.0),
                tx_power=_number(entry, "tx_power", w, minimum=0.0),
                local_rank=_integer(entry, "local_rank", w, default=1, minimum=1),
            )
        )
    if len({d.id for d in out}) != len(out):
        raise ConfigError("device ids must be unique", where)
    return out


def _channel(cfg: dict, where: str = "channel") -> dict:
    ch = _object(cfg, "channel", where)
    return {
        "total_bandwidth": _number(ch, "total_bandwidth", where, positive=True),
        "noise_density": _number(ch, "noise_density", where, positive=True),
    }


class _Fields(dict):
    """A config object that records the keys looked up with ``[]`` or ``get``,
    and the first key its text gives twice (decoding keeps only the last)."""

    __slots__ = ("read", "repeated")

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read = set()
        self.repeated = None
        if len(self) < len(pairs):
            seen = set()
            self.repeated = next(k for k, _ in pairs if k in seen or seen.add(k))

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _check_all_read(node, where: str = "") -> None:
    """Raise ConfigError at the first key, in document order, that no parser
    read: a misplaced or misspelled field would otherwise run with its
    default.  An object that gives a key twice raises at that key first,
    since only its last value was read.  Paths name the top level ``$.key``
    and deeper levels ``block.key`` and ``list[i].key``, as the parsers do."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            _check_all_read(item, f"{where}[{i}]")
    elif isinstance(node, _Fields):
        def named(key):
            return f"{where}.{key}" if where else f"$.{key}"

        if node.repeated is not None:
            raise ConfigError("field given twice", named(node.repeated))
        for key, value in node.items():
            if key not in node.read:
                raise ConfigError("unexpected field: the run does not read it", named(key))
            _check_all_read(value, f"{where}.{key}" if where else key)


@dataclass(frozen=True)
class Scenario:
    kind: str
    seed: int
    spec: dict  # the runner's typed inputs, built by the kind's parser


def parse_scenario(text: str) -> Scenario:
    """Parse and validate config text; raises ConfigError with diagnostics,
    also for a key that the kind's parser does not read."""
    try:
        cfg = json.loads(text, object_pairs_hook=_Fields)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer too long
        raise ConfigError(f"invalid JSON: {exc}", "$") from None
    if not isinstance(cfg, dict):
        raise ConfigError("top level must be an object", "$")
    kind = _require(cfg, "kind", "$")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ConfigError(f"unknown kind {kind!r}, expected one of {tuple(_KINDS)}", "$.kind")
    seed = _check_seed(_integer(cfg, "seed", "$"), "$.seed")
    spec = _KINDS[kind][0](cfg)
    _check_all_read(cfg)
    return Scenario(kind, seed, spec)


def load_scenario(path: str | Path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc.reason}", f"byte {exc.start}") from exc
    return parse_scenario(text)


def make_out_dir(out_dir: str | Path) -> Path:
    """``out_dir``, created with its parents if absent; a file in the way is a
    ConfigError naming ``--out``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}", "--out") from exc
    return out


# ---------------------------------------------------------------------------
# per-kind parsers: config dict -> runner spec
# ---------------------------------------------------------------------------

def _parse_fedft(cfg: dict) -> dict:
    devices = parse_devices(cfg)
    ch = _channel(cfg)
    block = _object(cfg, "fedft", "fedft")
    fd = _integer(block, "feature_dim", "fedft", minimum=1)
    od = _integer(block, "output_dim", "fedft", minimum=1)
    tr = _integer(block, "true_rank", "fedft", minimum=1)
    if tr > min(fd, od):
        raise ConfigError(f"true_rank {tr} exceeds min(dims) {min(fd, od)}", "fedft.true_rank")
    for i, d in enumerate(devices):
        if d.local_rank > min(fd, od):
            raise ConfigError(
                f"device {d.id} local_rank {d.local_rank} exceeds min(dims)",
                f"devices[{i}].local_rank",
            )
    samples = _integer(block, "samples_per_device", "fedft", minimum=1)
    return {
        "devices": devices,
        "task": dict(
            feature_dim=fd,
            output_dim=od,
            true_rank=tr,
            samples_per_device={d.id: samples for d in devices},
            noise_std=_number(block, "noise_std", "fedft", default=0.0, minimum=0.0),
        ),
        "train": dict(
            total_bandwidth=ch["total_bandwidth"],
            deadline=_number(block, "deadline_s", "fedft", positive=True),
            lr=_number(block, "lr", "fedft", positive=True),
            noise_density=ch["noise_density"],
            rounds=_integer(block, "rounds", "fedft", minimum=1),
            bits_per_param=_number(block, "bits_per_param", "fedft", default=64.0, positive=True),
        ),
    }


def _parse_unlearn(cfg: dict) -> dict:
    devices = parse_devices(cfg)
    block = _object(cfg, "unlearn", "unlearn")
    delta = _number(block, "delta", "unlearn", positive=True)
    if delta > 1:
        raise ConfigError("delta must be in (0, 1]", "unlearn.delta")
    opt_out = _device_ids(block.get("opt_out"), {d.id for d in devices}, "unlearn.opt_out")
    if not opt_out:
        raise ConfigError("opt-out set must be nonempty", "unlearn.opt_out")
    dp = None
    if block.get("dp") is not None:
        dp_block = _object(block, "dp", "unlearn.dp")
        dp = dict(
            clip_norm=_number(dp_block, "clip_norm", "unlearn.dp", positive=True),
            sigma=_number(dp_block, "sigma", "unlearn.dp", minimum=0.0),
        )
    return {
        "device_ids": [d.id for d in devices],
        "opt_out": opt_out,
        "task": dict(
            n_classes=_integer(block, "classes", "unlearn", minimum=2),
            # two feature coordinates are reserved for the opt-out signature
            feature_dim=_integer(block, "feature_dim", "unlearn", minimum=3),
            samples_per_device=_integer(block, "samples_per_device", "unlearn", minimum=1),
        ),
        "lr": _number(block, "lr", "unlearn", positive=True),
        "delta": delta,
        "pretrain_rounds": _integer(block, "pretrain_rounds", "unlearn", minimum=0),
        "unlearn_rounds": _integer(block, "unlearn_rounds", "unlearn", minimum=1),
        "dp": dp,
    }


def _parse_moe(cfg: dict) -> dict:
    from .netsim import ExpertMicroservice

    devices = parse_devices(cfg)
    ch = _channel(cfg)
    block = _object(cfg, "moe", "moe")
    known = {d.id for d in devices}
    experts = []
    for i, entry in enumerate(_list(block, "experts", "moe.experts")):
        w = f"moe.experts[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("expert entry must be an object", w)
        replicas = _device_ids(_require(entry, "replicas", w), known, f"{w}.replicas")
        experts.append(
            _build(
                ExpertMicroservice,
                w,
                id=_string(entry, "id", w),
                workload_per_call=_number(entry, "workload", w, positive=True),
                output_size=_number(entry, "output_size", w, minimum=0.0),
                replicas=tuple(replicas),
            )
        )
    if len({e.id for e in experts}) != len(experts):
        raise ConfigError("expert ids must be unique", "moe.experts")
    k = _integer(block, "top_k", "moe", minimum=1)
    if k > len(experts):
        raise ConfigError(f"top_k {k} exceeds expert count {len(experts)}", "moe.top_k")
    failed = _device_ids(block.get("failed_devices", []), known, "moe.failed_devices")
    sweep = [] if block.get("v_sweep") is None else _list(block, "v_sweep", "moe.v_sweep")
    for j, v in enumerate(sweep):
        if not _nonnegative(v):
            raise ConfigError("v_sweep entries must be finite numbers >= 0", f"moe.v_sweep[{j}]")
    jitter = _number(block, "load_jitter", "moe", default=0.0, minimum=0.0)
    if jitter >= 1.0:  # a call's FLOPs scale by 1 + jitter * (2u - 1), u in [0, 1)
        raise ConfigError(f"must be < 1, got {jitter}", "moe.load_jitter")
    arrival_prob = _number(block, "arrival_prob", "moe", default=1.0, minimum=0.0)
    if arrival_prob > 1.0:
        raise ConfigError(f"must be <= 1, got {arrival_prob}", "moe.arrival_prob")
    share = ch["total_bandwidth"] / len(devices)
    return {
        "v": _number(block, "v", "moe", minimum=0.0),
        "v_sweep": [float(v) for v in sweep],
        # the orchestrate keywords shared by the main run and every sweep point
        "orchestrate": dict(
            devices=devices,
            experts=experts,
            n_slots=_integer(block, "slots", "moe", minimum=1),
            top_k=k,
            bandwidth={d.id: share for d in devices},
            noise_density=ch["noise_density"],
            layers_per_task=_integer(block, "layers_per_task", "moe", default=1, minimum=1),
            load_jitter=jitter,
            w_lat=_number(block, "w_lat", "moe", default=1.0, minimum=0.0),
            w_energy=_number(block, "w_energy", "moe", default=0.0, minimum=0.0),
            failed_devices=frozenset(failed),
            arrival_prob=arrival_prob,
            fading_sigma=(
                None
                if block.get("fading_sigma") is None
                else _number(block, "fading_sigma", "moe", minimum=0.0)
            ),
        ),
    }


def _parse_cot(cfg: dict) -> dict:
    from .netsim import CotChain, CotStep

    devices = parse_devices(cfg)
    ch = _channel(cfg)
    # only CoT's device-to-device links read it
    link_bandwidth = _number(cfg["channel"], "link_bandwidth", "channel", default=1e6,
                             positive=True)
    block = _object(cfg, "cot", "cot")
    steps = []
    for i, entry in enumerate(_list(block, "steps", "cot.steps")):
        w = f"cot.steps[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError("step entry must be an object", w)
        steps.append(
            _build(
                CotStep,
                w,
                workload=_number(entry, "workload", w, positive=True),
                handoff_size=_number(entry, "handoff_size", w, minimum=0.0),
            )
        )
    n = len(devices)
    gains = block.get("gains")
    if gains is None:
        gains = [[1.0] * n for _ in range(n)]
    elif (
        not isinstance(gains, list)
        or len(gains) != n
        or any(not isinstance(row, list) or len(row) != n for row in gains)
    ):
        raise ConfigError(f"gains must be a {n}x{n} matrix", "cot.gains")
    for i, row in enumerate(gains):
        for j, g in enumerate(row):
            if not _nonnegative(g):
                raise ConfigError("gains must be finite numbers >= 0", f"cot.gains[{i}][{j}]")
    solver = block.get("solver", "both")
    if solver not in ("exact", "local_search", "both"):
        raise ConfigError(f"unknown solver {solver!r}", "cot.solver")
    return {
        "devices": devices,
        "chain": CotChain(tuple(steps)),
        "gains": gains,
        "link_bandwidth": link_bandwidth,
        "noise_density": ch["noise_density"],
        "shard_bytes": _number(block, "shard_bytes", "cot", default=0.0, minimum=0.0),
        "solver": solver,
        "iters": _integer(block, "iters", "cot", default=10, minimum=1),
    }


def _parse_casestudy(cfg: dict) -> dict:
    block = _object(cfg, "casestudy", "casestudy")
    budgets = _list(block, "budgets", "casestudy.budgets")
    for j, b in enumerate(budgets):
        if isinstance(b, bool) or not isinstance(b, int) or b < 1:
            raise ConfigError("budgets must be positive integers", f"casestudy.budgets[{j}]")
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
        return {"budgets": budgets, "targets": tuple(targets), "model": None}
    where = "casestudy.model"
    model = _object(block, "model", where)
    n_total = _integer(model, "n_total", where, minimum=1)
    for j, b in enumerate(budgets):
        if b > n_total:
            raise ConfigError(f"budget {b} exceeds n_total {n_total}", f"casestudy.budgets[{j}]")
    t_budget = _integer(model, "t_budget", where, minimum=1)
    if t_budget > n_total:
        raise ConfigError(f"exceeds n_total {n_total}", f"{where}.t_budget")
    # the TokenBudgetModel arguments; the run builds the model, whose
    # device-limit check is an infeasible scenario, not a config error
    args = dict(
        n_total=n_total,
        t_budget=t_budget,
        alpha_mem=_number(model, "alpha_mem", where, positive=True),
        beta_comp=_number(model, "beta_comp", where, positive=True),
        gamma_handoff=_number(model, "gamma_handoff", where, minimum=0.0),
        base_mem=_number(model, "base_mem", where, minimum=0.0),
    )
    if "compute_rate" in model:  # else the model's default applies
        args["compute_rate"] = _number(model, "compute_rate", where, positive=True)
    return {"budgets": budgets, "targets": None, "model": args}


# ---------------------------------------------------------------------------
# deterministic output writers
# ---------------------------------------------------------------------------

def fmt(value) -> str:
    """Shortest round-trip decimal text for a float, ``str`` of any other
    value: the text ``write_csv`` gives a cell (stable across runs)."""
    if isinstance(value, float):
        if not math.isfinite(value):
            raise NonFiniteOutput(f"a cell is {float(value)!r}")
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write the header and rows, or nothing when a float cell is inf or nan.

    ``csv`` writes a float cell with ``repr`` and any other cell with
    ``str``, the text ``fmt`` gives.  One scan before the file is opened
    raises at the first non-finite float cell in row order.  A row holding a
    float subclass (``np.float64``, whose ``repr`` names its type) is written
    from a copy with plain floats; ``rows`` is never changed.
    """
    out = rows
    for i, row in enumerate(rows):
        for v in row:
            if isinstance(v, float) and (type(v) is not float or not math.isfinite(v)):
                break
        else:
            continue
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteOutput(f"{path}: a cell is {float(v)!r}")
        if out is rows:
            out = list(rows)
        out[i] = [float(v) if isinstance(v, float) else v for v in row]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(out)


def write_json(path: Path, payload) -> None:
    """Write strict JSON, or nothing when a number is inf or nan."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text + "\n")


# ---------------------------------------------------------------------------
# runners: (spec, seed) -> (table, summary)
# ---------------------------------------------------------------------------

def _run_fedft(spec: dict, seed: int):
    from . import fedft

    devices, task, train = spec["devices"], spec["task"], spec["train"]
    # an overflow is the first sign of an ill-scaled task or of divergence;
    # name the field to lower and, for divergence, the round
    try:
        state = fedft.make_synthetic_task(seed, devices, **task)
        initial = fedft.global_loss(state)
    except FloatingPointError as exc:
        raise InfeasibleScenario(
            f"synthetic task overflows ({exc}); lower fedft.noise_std (now {task['noise_std']:g})"
        ) from None
    try:
        selection, latency, losses = fedft.run_fedft(state, devices, **train)
    except FloatingPointError as exc:
        raise InfeasibleScenario(
            f"training diverged in round {state.round_index + 1} ({exc}); "
            f"lower fedft.lr (now {train['lr']:g})"
        ) from None
    # the selection is fixed for the run: its two cells are the same on every row
    selected = ";".join(selection.selected)
    bandwidth = ";".join(f"{dev}={fmt(b)}" for dev, b in sorted(selection.bandwidth.items()))
    header = ["round", "global_loss", "round_latency_s", "selected_devices", "bandwidth_hz"]
    rows = [[i, loss, latency, selected, bandwidth] for i, loss in enumerate(losses, 1)]
    return (header, rows), {
        "rounds": len(losses),
        "initial_loss": initial,
        "final_loss": losses[-1],
        "round_latency_s": latency,
        "selected_devices": list(selection.selected),
    }


def _run_unlearn(spec: dict, seed: int):
    from . import unlearn

    lr, delta = spec["lr"], spec["delta"]
    state = unlearn.make_classification_task(
        seed, spec["device_ids"], spec["opt_out"], **spec["task"]
    )
    unlearn.pretrain(state, lr, spec["pretrain_rounds"], delta)
    dp_cfg = None if spec["dp"] is None else unlearn.DpConfig(**spec["dp"], seed=seed)
    pre_forget = unlearn.forget_loss(state, delta)
    pre_retained = unlearn.retained_loss(state, delta)
    records = unlearn.run_unlearning(state, lr, delta, rounds=spec["unlearn_rounds"], dp=dp_cfg)
    header = ["round", "forget_loss", "retained_loss", "projection_residual_norm", "sigma"]
    rows = [
        [r.round_index, r.forget_loss, r.retained_loss, r.projection_residual_norm, r.sigma]
        for r in records
    ]
    return (header, rows), {
        "opt_out": list(state.opt_out),
        "pre_unlearning_forget_loss": pre_forget,
        "pre_unlearning_retained_loss": pre_retained,
        "final_forget_loss": records[-1].forget_loss,
        "final_retained_loss": records[-1].retained_loss,
        "rounds": len(records),
    }


def _moe_entry(v: float, result) -> dict:
    return {
        "v": v,
        "time_avg_cost": result.time_avg_cost,
        "time_avg_backlog": result.time_avg_backlog,
        "max_backlog": result.max_backlog,
    }


def _run_moe(spec: dict, seed: int):
    from . import moe_orchestrator as moe

    kwargs = spec["orchestrate"]
    result = moe.orchestrate(v=spec["v"], seed=seed, **kwargs)
    header = ["slot", "assignment", "slot_cost", *[f"backlog_{dev}" for dev in result.device_ids]]
    table = (header, moe.trace_rows(result))
    summary = _moe_entry(spec["v"], result)
    if spec["v_sweep"]:
        runs = {spec["v"]: result}  # one run per distinct V
        for v in spec["v_sweep"]:
            if v not in runs:
                runs[v] = moe.orchestrate(v=v, seed=seed, **kwargs)
        summary["v_sweep"] = [_moe_entry(v, runs[v]) for v in spec["v_sweep"]]
    return table, summary


def _run_cot(spec: dict, seed: int):
    from . import cot_placement as cot

    devices, chain, shard_bytes = spec["devices"], spec["chain"], spec["shard_bytes"]
    link_rates = cot.link_rates_from_gains(
        devices, spec["gains"], spec["link_bandwidth"], spec["noise_density"]
    )
    solver = spec["solver"]
    summary: dict = {"n_steps": len(chain), "devices": [d.id for d in devices]}
    exact_res = None
    if solver in ("exact", "both"):
        exact_res = cot.solve_exact(chain, devices, link_rates, shard_bytes)
        summary["exact"] = {
            "placement": list(exact_res.assignment),
            "cost_s": exact_res.cost,
            "solver": "exact",
            "n_feasible": exact_res.n_feasible,
        }
    if solver in ("local_search", "both"):
        ls_res = cot.solve_local_search(
            chain, devices, link_rates, seed, spec["iters"], shard_bytes
        )
        entry = {
            "placement": list(ls_res.assignment),
            "cost_s": ls_res.cost,
            "solver": "local_search",
        }
        if exact_res is not None:
            entry["gap_to_exact"] = (
                (ls_res.cost - exact_res.cost) / exact_res.cost
                if exact_res.cost > 0
                else 0.0
            )
        summary["local_search"] = entry
    return None, summary


def _run_casestudy(spec: dict, seed: int):
    from . import casestudy as cs

    budgets = spec["budgets"]
    summary: dict = {"budgets": budgets}
    # a budget beyond the calibrated chain and the device limit raise ValueError
    try:
        if spec["model"] is None:
            targets = spec["targets"]
            result = cs.calibrate_casestudy(targets)
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
            model = cs.TokenBudgetModel(**spec["model"])
        rows = cs.casestudy_sweep(model, budgets)
    except ValueError as exc:
        raise InfeasibleScenario(str(exc)) from exc
    header = [
        "max_tokens",
        "device_count",
        "total_memory_bytes",
        "monolithic_memory_bytes",
        "total_latency_s",
        "monolithic_latency_s",
        "mem_reduction",
        "lat_reduction",
        "combined_normalized_cost",
    ]
    summary["model"] = dataclasses.asdict(model)
    summary["best_budget"] = min(rows, key=lambda r: r.combined_normalized_cost).t_budget
    return (header, [[*dataclasses.astuple(r), r.combined_normalized_cost] for r in rows]), summary


# kind -> (parser, solver module, runner, CSV file or None, JSON file)
_KINDS = {
    "fedft": (_parse_fedft, "fedft", _run_fedft, "fedft_rounds.csv", "fedft_summary.json"),
    "unlearn": (
        _parse_unlearn, "unlearn", _run_unlearn, "unlearn_rounds.csv", "unlearn_summary.json"
    ),
    "moe": (_parse_moe, "moe_orchestrator", _run_moe, "moe_trace.csv", "moe_summary.json"),
    "cot": (_parse_cot, "cot_placement", _run_cot, None, "cot_result.json"),
    "casestudy": (
        _parse_casestudy, "casestudy", _run_casestudy, "casestudy_sweep.csv",
        "casestudy_summary.json",
    ),
}


# numpy raises MemoryError for an array the allocator refuses, but ValueError,
# starting with one of these texts, for one whose size overflows its indices
_UNALLOCATABLE = ("array is too big", "Maximum allowed dimension exceeded")


def run_guarded(load: Callable[[], Scenario], out_dir: str | Path) -> tuple[int, str]:
    """Load a scenario, run it and write its outputs into ``out_dir``; return
    the exit status (0/2/3) and the diagnostic line to print ("" on success).

    ``load`` parses the scenario, raising ConfigError, before the run.  The
    kind's solver module and numpy are imported next, and the runner then
    executes with numpy's overflow, divide-by-zero and invalid operations
    raising, so no inf or nan that an operation produces goes unseen: it
    exits 3 as a numeric overflow.  An array too large to allocate exits 3
    as out of memory.  The parser has already rejected
    non-finite config numbers, and the kernels do not check again.  The
    runner returns its table and summary, which are written here, under the
    same guard.  A run that exits 3 removes its kind's output files, so a
    result in ``out_dir`` is never partial (nor left over from an earlier run).
    """
    try:
        scenario = load()
        out = make_out_dir(out_dir)
    except ConfigError as exc:
        return EXIT_CONFIG, f"config error: {exc}"
    _, module, run, csv_name, json_name = _KINDS[scenario.kind]
    # after the parse, which needs neither, and before the raising errstate,
    # so that no module body runs under it
    importlib.import_module(f".{module}", __package__)
    import numpy as np

    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            table, summary = run(scenario.spec, scenario.seed)
            if table is not None:
                write_csv(out / csv_name, *table)
            write_json(out / json_name, {"kind": scenario.kind, "seed": scenario.seed, **summary})
    except (InfeasibleScenario, PlacementError, SchedulingError, SizeLimitError) as exc:
        line = f"infeasible scenario: {exc}"
    except FloatingPointError as exc:
        line = f"infeasible scenario: numeric overflow ({exc})"
    except MemoryError as exc:
        line = f"infeasible scenario: out of memory ({exc})"
    except ValueError as exc:
        if not str(exc).startswith(_UNALLOCATABLE):
            raise
        line = f"infeasible scenario: out of memory ({exc})"
    except NonFiniteOutput as exc:
        line = f"non-finite output: {exc}"
    else:
        return EXIT_OK, ""
    for name in filter(None, (csv_name, json_name)):
        (out / name).unlink(missing_ok=True)
    return EXIT_INFEASIBLE, line


def run_scenario(path: str | Path, out_dir: str | Path, seed: int | None = None) -> int:
    """Run one scenario file under ``run_guarded``; print its diagnostic and
    return the process exit status (0/2/3)."""

    def load() -> Scenario:
        scenario = load_scenario(path)
        if seed is None:
            return scenario
        return dataclasses.replace(scenario, seed=_check_seed(seed, "--seed"))

    code, line = run_guarded(load, out_dir)
    if line:
        print(line)
    return code
