"""Seeded scenario generators and the three benchmark workloads.

Every generated config is a plain dict written as a scenario JSON file and
run through the program's CLI, exactly as a user would.  The generator uses
``random.Random`` only, so it depends on nothing in the program (it does not
call ``make_random_instance``) and the same workload seed always yields the
same configs.

Sizes are fixed per workload; the seed only draws parameters inside ranges
chosen so that the work per scenario (placements scanned, subsets examined,
slots, rounds) does not depend on the seed.  That keeps pass times comparable
across seeds while the inputs themselves differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Scenarios marked ``pinned`` are generated from this fixed seed whatever the
# workload seed is; their outputs were recorded at the seed commit in
# ``references.json`` and are compared field by field on every run.
REFERENCE_SEED = 20250505

SHIPPED = (
    "casestudy_tokens",
    "cot_place",
    "fedft_hetero",
    "moe_schedule",
    "moe_tradeoff",
    "unlearn_optout",
)


@dataclass(frozen=True)
class Scenario:
    """One entry of a workload pass: a config plus what the checks expect."""

    name: str
    config: dict | None  # None: a shipped file under scenarios/
    pinned: bool = False
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# per-kind generators
# ---------------------------------------------------------------------------

def _channel() -> dict:
    return {"total_bandwidth": 1e6, "noise_density": 1e-9, "link_bandwidth": 1e6}


def gen_cot(rng: random.Random, n_devices: int, n_steps: int, tight: bool) -> dict:
    """Chain of ``n_steps`` over a full mesh of ``n_devices``.

    Loose: every device can host the whole chain, so all D^S placements are
    feasible.  Tight: each device holds only ``ceil(S/D) + 1`` of the largest
    steps, so the capacity check prunes most placements but one always fits.
    """
    steps = [
        {
            "workload": rng.uniform(0.5e9, 4e9),
            "handoff_size": rng.uniform(1e5, 2e6),
        }
        for _ in range(n_steps)
    ]
    shard = rng.uniform(1e5, 1e6)
    step_mem = [s["handoff_size"] / 8.0 + shard for s in steps]
    if tight:
        per_device = math.ceil(n_steps / n_devices) + 1
        caps = [per_device * max(step_mem) * rng.uniform(1.0, 1.1) for _ in range(n_devices)]
    else:
        caps = [sum(step_mem) * rng.uniform(1.0, 1.5) for _ in range(n_devices)]
    devices = [
        {
            "id": f"d{i}",
            "compute_rate": rng.uniform(0.5e9, 5e9),
            "memory_capacity": caps[i],
            "channel_gain": 1.0,
            "tx_power": rng.uniform(0.2, 1.0),
        }
        for i in range(n_devices)
    ]
    gains = [
        [0.0 if a == b else rng.uniform(0.05, 1.0) for b in range(n_devices)]
        for a in range(n_devices)
    ]
    return {
        "kind": "cot",
        "seed": rng.randrange(1, 2**31),
        "devices": devices,
        "channel": _channel(),
        "cot": {
            "steps": steps,
            "gains": gains,
            "shard_bytes": shard,
            "solver": "both",
            "iters": 10,
        },
    }


FEDFT_DIMS = {"feature_dim": 8, "output_dim": 6, "true_rank": 2, "samples_per_device": 32}


def _fedft_step_flops(rank: int) -> float:
    # mirrors the program's documented per-step FLOP model (fwd+bwd, LoRA path)
    d, k, m = FEDFT_DIMS["feature_dim"], FEDFT_DIMS["output_dim"], FEDFT_DIMS["samples_per_device"]
    return float(m) * (6.0 * (d * rank + rank * k) + 2.0 * d * k)


def gen_fedft(rng: random.Random, n_devices: int, n_stragglers: int, rounds: int) -> tuple[dict, list[str]]:
    """Federated LoRA config; returns (config, ids the selection must pick).

    Healthy devices need a few milliseconds per round against a 1 s deadline,
    so all of them fit together.  Each straggler's local compute alone takes
    1.5-3x the deadline, so every subset holding one misses it: the exact
    search must walk down from N to N - stragglers participants.
    """
    deadline = 1.0
    devices = []
    slots = rng.sample(range(n_devices), n_stragglers)
    for i in range(n_devices):
        rank = rng.choice((1, 2, 4))
        if i in slots:
            rate = _fedft_step_flops(rank) / (deadline * rng.uniform(1.5, 3.0))
        else:
            rate = rng.uniform(0.8e9, 1.2e9)
        devices.append(
            {
                "id": f"d{i:02d}",
                "compute_rate": rate,
                "memory_capacity": 1e9,
                "channel_gain": rng.uniform(0.5, 2.0),
                "tx_power": rng.uniform(0.3, 0.7),
                "local_rank": rank,
            }
        )
    healthy = sorted(d["id"] for i, d in enumerate(devices) if i not in slots)
    cfg = {
        "kind": "fedft",
        "seed": rng.randrange(1, 2**31),
        "devices": devices,
        "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9},
        "fedft": dict(
            FEDFT_DIMS,
            rounds=rounds,
            lr=0.05,
            noise_std=rng.uniform(0.005, 0.02),
            deadline_s=deadline,
        ),
    }
    return cfg, healthy


def _min_band(bits_per_s: float, gain_power: float, noise_density: float) -> float:
    """Least bandwidth whose Shannon rate reaches ``bits_per_s`` (the rate rises with it)."""
    lo, hi = 0.0, 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.log2(1.0 + gain_power / (noise_density * mid)) >= bits_per_s:
            hi = mid
        else:
            lo = mid
    return hi


def gen_fedft_contended(rng: random.Random, n_devices: int, n_fit: int, rounds: int) -> dict:
    """Federated LoRA config whose shared band carries only ``n_fit`` devices.

    Every device computes in microseconds and meets the 1 ms deadline alone;
    what drops devices is the band.  It is set halfway between the bandwidth
    the ``n_fit`` and the ``n_fit + 1`` cheapest devices need at the deadline,
    so no subset larger than ``n_fit`` fits and the exact search walks down
    through every size from N to ``n_fit``, solving each subset's bisection.
    """
    deadline, noise_density, bits_per_param = 1e-3, 1e-9, 64.0
    fd, od = FEDFT_DIMS["feature_dim"], FEDFT_DIMS["output_dim"]
    devices, need = [], []
    for i in range(n_devices):
        rank = rng.choice((1, 2, 4))
        dev = {
            "id": f"d{i:02d}",
            "compute_rate": rng.uniform(0.8e9, 1.2e9),
            "memory_capacity": 1e9,
            "channel_gain": rng.uniform(0.5, 2.0),
            "tx_power": rng.uniform(0.3, 0.7),
            "local_rank": rank,
        }
        devices.append(dev)
        budget = deadline - _fedft_step_flops(rank) / dev["compute_rate"]
        bits = bits_per_param * rank * (fd + od)
        need.append(_min_band(bits / budget, dev["channel_gain"] * dev["tx_power"], noise_density))
    need.sort()
    band = 0.5 * (sum(need[:n_fit]) + sum(need[:n_fit + 1]))
    return {
        "kind": "fedft",
        "seed": rng.randrange(1, 2**31),
        "devices": devices,
        "channel": {"total_bandwidth": band, "noise_density": noise_density},
        "fedft": dict(
            FEDFT_DIMS,
            rounds=rounds,
            lr=0.05,
            noise_std=rng.uniform(0.005, 0.02),
            deadline_s=deadline,
        ),
    }


def gen_moe(rng: random.Random, slots: int, exhaustive: bool) -> dict:
    """Four devices, eight experts replicated everywhere.

    Per-call path: top-4 over two layers is 8 calls, 4^8 candidates, above
    the exhaustive limit.  Exhaustive path: top-3 over two layers is 6 calls,
    4^6 = 4096 candidates, with per-slot fading so the cost matrix is rebuilt
    every slot.  Offered load stays below service, so backlogs stay bounded.
    """
    devices = [
        {
            "id": f"d{i}",
            "compute_rate": 1.0,
            "memory_capacity": 1e9,
            "channel_gain": rng.uniform(0.25, 4.0),
            "tx_power": 0.5,
        }
        for i in range(4)
    ]
    ids = [d["id"] for d in devices]
    top_k = 3 if exhaustive else 4
    per_call = 0.5 if exhaustive else 0.4
    experts = [
        {
            "id": f"e{j}",
            "workload": per_call * rng.uniform(0.8, 1.2),
            "output_size": rng.uniform(5e4, 2e5),
            "replicas": ids,
        }
        for j in range(8)
    ]
    block = {
        "experts": experts,
        "top_k": top_k,
        "layers_per_task": 2,
        "slots": slots,
        "v": rng.uniform(0.5, 2.0),
        "load_jitter": 0.4,
    }
    if exhaustive:
        block["fading_sigma"] = 0.2
    return {
        "kind": "moe",
        "seed": rng.randrange(1, 2**31),
        "devices": devices,
        "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9},
        "moe": block,
    }


def gen_unlearn(rng: random.Random, n_devices: int, n_opt_out: int, rounds: int) -> dict:
    devices = [
        {
            "id": f"d{i:02d}",
            "compute_rate": 1e9,
            "memory_capacity": 1e9,
            "channel_gain": 1.0,
            "tx_power": 0.5,
        }
        for i in range(n_devices)
    ]
    opt_out = sorted(rng.sample([d["id"] for d in devices], n_opt_out))
    return {
        "kind": "unlearn",
        "seed": rng.randrange(1, 2**31),
        "devices": devices,
        "unlearn": {
            "classes": 3,
            "feature_dim": 10,
            "samples_per_device": 40,
            "opt_out": opt_out,
            "pretrain_rounds": 100,
            "unlearn_rounds": rounds,
            "lr": 0.5,
            "delta": 0.05,
            "dp": {"clip_norm": 1.0, "sigma": rng.uniform(0.05, 0.2)},
        },
    }


def gen_casestudy_calibrated() -> dict:
    return {
        "kind": "casestudy",
        "seed": 1,
        "casestudy": {"budgets": [64, 128, 256], "calibrate": True, "targets": [0.708, 0.596]},
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# (devices, steps) of the scaled CoT chains: 4^9 = 262,144 up to
# 7^7 = 823,543 placements, just under the program's 10^6 enumeration guard.
COT_SIZES = ((4, 9), (6, 7), (5, 8), (9, 6), (3, 12), (7, 7))
# small chains (<= 4^6 placements) that the checks also solve by brute force
COT_SPOT_SIZES = ((4, 6), (5, 5))

SIZES = {
    "full": {
        "cot": COT_SIZES,
        "cot_spot": COT_SPOT_SIZES,
        "fedft_devices": (8, 10),
        "fedft_tight": (10, 2),  # (devices, stragglers)
        "fedft_contended": (8, 5),  # (devices, devices the band carries)
        "fedft_rounds": 20,
        # sized so that about twelve passes fit in a 30 s run on a 2-core
        # host: on a shared host single runs vary by +-30%, and six passes
        # of twice these lengths spread 0.19-0.23 over ten runs
        "moe_slots": 5000,
        "moe_exhaustive_slots": 1500,  # the exhaustive path costs ~3x more per slot
        "unlearn": (32, 4, 25),  # (devices, opt-outs, unlearning rounds)
        "unlearn_pinned": (16, 2, 25),
        "fedft_long": (6, 500),  # (devices, rounds)
    },
    # for the self-test: same scenario mix, a fraction of a second each
    "tiny": {
        "cot": ((3, 5), (4, 4)),
        "cot_spot": ((3, 4),),
        "fedft_devices": (4,),
        "fedft_tight": (5, 1),
        "fedft_contended": (5, 3),
        "fedft_rounds": 3,
        "moe_slots": 60,
        "moe_exhaustive_slots": 40,
        "unlearn": (6, 2, 10),
        "unlearn_pinned": (8, 2, 10),
        "fedft_long": (3, 20),
    },
}


def _scaled(seed: int, scale: str) -> list[Scenario]:
    sz = SIZES[scale]
    rng = random.Random(seed)
    pinned = random.Random(REFERENCE_SEED)
    out = []
    # every shape once, alternately loose and tight: both shapes and both
    # regimes stay covered at half the cost of running each shape twice
    for i, (d, s) in enumerate(sz["cot"]):
        tight = i % 2 == 1
        label = "tight" if tight else "loose"
        out.append(Scenario(f"cot_{d}^{s}_{label}", gen_cot(rng, d, s, tight)))
    for i, (d, s) in enumerate(sz["cot_spot"]):
        out.append(
            Scenario(
                f"cot_spot_{d}^{s}", gen_cot(rng, d, s, tight=i % 2 == 1),
                expect={"brute_force": True},
            )
        )
    d, s = sz["cot"][-1]
    out.append(Scenario(f"cot_{d}^{s}_tight_pinned", gen_cot(pinned, d, s, True), pinned=True))
    rounds = sz["fedft_rounds"]
    for n in sz["fedft_devices"]:
        cfg, healthy = gen_fedft(rng, n, 0, rounds)
        out.append(Scenario(f"fedft_{n}_loose", cfg, expect={"selected": healthy}))
    n, m = sz["fedft_tight"]
    cfg, healthy = gen_fedft(pinned, n, m, rounds)
    out.append(
        Scenario(f"fedft_{n}_tight_pinned", cfg, pinned=True, expect={"selected": healthy})
    )
    n, fit = sz["fedft_contended"]
    out.append(
        Scenario(
            f"fedft_{n}_contended_pinned", gen_fedft_contended(pinned, n, fit, rounds),
            pinned=True, expect={"n_selected": fit},
        )
    )
    out.append(Scenario("casestudy_calibrated", gen_casestudy_calibrated(), pinned=True))
    return out


def _long(seed: int, scale: str) -> list[Scenario]:
    sz = SIZES[scale]
    rng = random.Random(seed)
    pinned = random.Random(REFERENCE_SEED + 1)
    n_fed, fed_rounds = sz["fedft_long"]
    fedft_cfg, healthy = gen_fedft(pinned, n_fed, 0, fed_rounds)
    return [
        Scenario("moe_percall", gen_moe(rng, sz["moe_slots"], exhaustive=False)),
        Scenario(
            "moe_exhaustive_pinned",
            gen_moe(pinned, sz["moe_exhaustive_slots"], exhaustive=True), pinned=True,
        ),
        Scenario("unlearn", gen_unlearn(rng, *sz["unlearn"])),
        Scenario("unlearn_pinned", gen_unlearn(pinned, *sz["unlearn_pinned"]), pinned=True),
        Scenario("fedft_long_pinned", fedft_cfg, pinned=True, expect={"selected": healthy}),
    ]


def _shipped(seed: int, scale: str) -> list[Scenario]:
    # the inputs are the shipped files; the seed only sets the run order
    names = list(SHIPPED)
    random.Random(seed).shuffle(names)
    return [Scenario(n, None, pinned=True) for n in names]


@dataclass(frozen=True)
class Workload:
    name: str
    warm: bool  # one warm process via cli.main, else a fresh CLI process per scenario
    nominal_pass_s: float  # one pass at the seed commit on a 2-core 2.1 GHz Xeon VM
    build: object  # (seed, scale) -> list[Scenario]


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md:
# cli_shipped is start-up bound, solve_scaled exact-solver bound, sim_long loop
# and CSV bound, so a change to one layer has a workload that should not move.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli_shipped", False, 2.1, _shipped),
        Workload("solve_scaled", True, 3.0, _scaled),
        Workload("sim_long", True, 2.5, _long),
    )
}


def passes_for(workload: Workload, seconds: float) -> int:
    """Fixed pass count for a run budget, so both sides of a comparison do equal work.

    At least three passes: the first warms up and is not timed, and every
    scenario's outputs can be compared byte for byte.
    """
    return max(3, round(seconds / workload.nominal_pass_s))
