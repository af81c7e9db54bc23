"""The scenario corpus that the tests and ``tools/bytediff.py`` share.

It holds the stress configs whose outputs ``tests/test_byte_contract.py``
pins, one maximal config per kind (two for casestudy), and the two seeded
mutation rules: ``numeric_mutant``, whose configs bytediff compares and
``TestRunProperty`` runs, and ``structural_mutant``, whose configs
``TestParseProperty`` parses.  It uses the standard library only, so
bytediff loads it by path without the test dependencies.
"""

import copy


def _device(dev_id, gain, rate=1.0, memory=1e9, power=0.5, rank=1):
    return {"id": dev_id, "compute_rate": rate, "memory_capacity": memory,
            "channel_gain": gain, "tx_power": power, "local_rank": rank}


# seeded stress configs for paths the shipped set misses
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
    # 2,555 of the 4^6 placements fit; c0 and c1 hold two steps at most
    "cot_stress": {
        "kind": "cot", "seed": 29,
        "devices": [_device("c0", 1.0, 3e9, 1.3e6, 0.4), _device("c1", 1.0, 2e9, 1.3e6, 0.6),
                    _device("c2", 1.0, 1e9, 1.9e6, 0.5), _device("c3", 1.0, 5e8, 2.5e6, 0.3)],
        "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9, "link_bandwidth": 1e6},
        "cot": {
            "steps": [{"workload": 2e9, "handoff_size": 8e5},
                      {"workload": 3e9, "handoff_size": 6e5},
                      {"workload": 1e9, "handoff_size": 1.2e6},
                      {"workload": 2.5e9, "handoff_size": 4e5},
                      {"workload": 1.5e9, "handoff_size": 9e5},
                      {"workload": 2e9, "handoff_size": 0.0}],
            "gains": [[0.0, 0.7, 0.2, 0.4], [0.7, 0.0, 0.5, 0.3],
                      [0.2, 0.5, 0.0, 0.8], [0.4, 0.3, 0.8, 0.0]],
            "shard_bytes": 5e5, "solver": "both", "iters": 10,
        },
    },
    # the band lies between what the 4 and the 5 cheapest devices need at
    # the deadline, so the selection drops f1 and f5
    "fedft_stress": {
        "kind": "fedft", "seed": 37,
        "devices": [_device("f0", 0.6, 1.0e9, rank=1), _device("f1", 1.9, 0.9e9, power=0.3, rank=4),
                    _device("f2", 1.2, 1.1e9, power=0.6, rank=2),
                    _device("f3", 0.8, 1.2e9, power=0.4, rank=2),
                    _device("f4", 1.5, 0.8e9, power=0.7, rank=1), _device("f5", 1.0, 1.0e9, rank=4)],
        "channel": {"total_bandwidth": 6.2e5, "noise_density": 1e-9},
        "fedft": {"rounds": 30, "lr": 0.05, "feature_dim": 8, "output_dim": 6, "true_rank": 2,
                  "samples_per_device": 32, "noise_std": 0.01, "deadline_s": 1e-3},
    },
    # moe_tradeoff with every gain 1e-4: each uplink's SNR is about 0.06, so
    # every rate takes the Shannon kernel's log1p branch
    "moe_low_snr": {
        "kind": "moe", "seed": 11,
        "devices": [_device(f"d{i}", 1e-4) for i in range(3)],
        "channel": {"total_bandwidth": 9e5, "noise_density": 1e-9},
        "moe": {
            "experts": [{"id": f"e{i}", "workload": 1.6, "output_size": 1e6,
                         "replicas": ["d0", "d1", "d2"]} for i in range(4)],
            "top_k": 1, "layers_per_task": 1, "slots": 200, "v": 1.0, "load_jitter": 0.4,
            "v_sweep": [0.1, 1.0, 10.0, 100.0],
        },
    },
    # the last step takes 1e16 bytes, a whole device's capacity, and the
    # other two 1 byte each: summed in step order, 1 + 1 + 1e16 rounds above
    # 1e16, so no device holds the whole chain, though 1e16 + 1 + 1 is 1e16
    "cot_mixed_scale": {
        "kind": "cot", "seed": 8,
        "devices": [_device(f"d{i}", 1.0, 4e8, 1e16, 1.0) for i in range(2)],
        "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9, "link_bandwidth": 1e6},
        "cot": {"steps": [{"workload": 3e8, "handoff_size": 8.0},
                          {"workload": 1e9, "handoff_size": 8.0},
                          {"workload": 1e8, "handoff_size": 8e16}]},
    },
}

DEVICES = [
    {"id": "a", "compute_rate": 1e9, "memory_capacity": 1e9,
     "channel_gain": 1.0, "tx_power": 0.5, "local_rank": 1},
    {"id": "b", "compute_rate": 2e9, "memory_capacity": 1e9,
     "channel_gain": 0.8, "tx_power": 0.4, "local_rank": 2},
]
# fedft and MoE read the shared channel fields; CoT reads its link bandwidth too
CHANNEL = {"total_bandwidth": 1e6, "noise_density": 1e-9}

# one config per kind, and per casestudy branch, that sets every field of
# README's config reference, small enough to run in milliseconds
MAXIMAL_CONFIGS = {
    "fedft_maximal": {
        "kind": "fedft", "seed": 5, "devices": DEVICES, "channel": CHANNEL,
        "fedft": {"rounds": 3, "lr": 0.05, "feature_dim": 6, "output_dim": 4,
                  "true_rank": 1, "samples_per_device": 12, "noise_std": 0.01,
                  "deadline_s": 30.0, "bits_per_param": 32.0},
    },
    "unlearn_maximal": {
        "kind": "unlearn", "seed": 5, "devices": DEVICES + [dict(DEVICES[0], id="c")],
        "unlearn": {"classes": 3, "feature_dim": 6, "samples_per_device": 20,
                    "opt_out": ["c"], "pretrain_rounds": 20, "unlearn_rounds": 3,
                    "lr": 0.5, "delta": 0.05, "dp": {"clip_norm": 1.0, "sigma": 0.1}},
    },
    "moe_maximal": {
        "kind": "moe", "seed": 5, "devices": DEVICES + [dict(DEVICES[0], id="c")],
        "channel": CHANNEL,
        "moe": {
            "experts": [
                {"id": "e0", "workload": 0.8, "output_size": 1e5, "replicas": ["a", "b", "c"]},
                {"id": "e1", "workload": 0.6, "output_size": 2e5, "replicas": ["a", "b"]},
            ],
            "top_k": 2, "slots": 20, "v": 1.0, "v_sweep": [0.5, 5.0], "layers_per_task": 2,
            "load_jitter": 0.2, "w_lat": 1.0, "w_energy": 0.5, "failed_devices": ["c"],
            "arrival_prob": 0.9, "fading_sigma": 0.2,
        },
    },
    "cot_maximal": {
        "kind": "cot", "seed": 5, "devices": DEVICES,
        "channel": dict(CHANNEL, link_bandwidth=2e6),
        "cot": {
            "steps": [
                {"workload": 1e9, "handoff_size": 1e5},
                {"workload": 2e9, "handoff_size": 0.0},
            ],
            "gains": [[0.0, 0.8], [0.5, 0.0]], "solver": "both", "shard_bytes": 1e3,
            "iters": 5,
        },
    },
    "casestudy_calibrated_maximal": {
        "kind": "casestudy", "seed": 5,
        "casestudy": {"budgets": [64, 128, 256], "calibrate": True, "targets": [0.7, 0.6]},
    },
    "casestudy_model_maximal": {
        "kind": "casestudy", "seed": 5,
        "casestudy": {"budgets": [64, 128, 256], "calibrate": False,
                      "model": {"n_total": 608, "t_budget": 64, "alpha_mem": 2.0,
                                "beta_comp": 2.0, "gamma_handoff": 0.03, "base_mem": 1e4,
                                "compute_rate": 2e6}},
    },
}

# structural replacements: every other JSON type, NaN, an integer beyond u64
# and float precision, and a nested list where an id or a number is expected
MUTANTS = [None, True, "x", {}, [], 0, -1, 1.5, float("nan"), 2**70, [["d0"]]]
# numeric replacements for a float field: zero of either sign, a subnormal,
# the bottom and the top of the normal range (an integer field gets zero or
# one of its two neighbours instead)
EDGE_NUMBERS = [0, -0.0, 1e-320, 1e-305, 1e300]
# a numeric mutant's base is cut to a size that runs in milliseconds
RUN_CAPS = {"slots": 50, "rounds": 5, "pretrain_rounds": 5, "unlearn_rounds": 5}


def json_paths(node, prefix=()):
    """Every key/index path in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


def _value_at(node, path):
    for key in path:
        node = node[key]
    return node


def numeric_mutant(cfg, rng):
    """A copy of ``cfg`` cut to ``RUN_CAPS`` and five CoT steps, with 1-3
    numeric leaves replaced: a float by one of ``EDGE_NUMBERS``, an integer
    by 0 or either neighbour."""
    cfg = copy.deepcopy(cfg)
    block = cfg[cfg["kind"]]
    for key, cap in RUN_CAPS.items():
        if key in block:
            block[key] = min(block[key], cap)
    if "steps" in block:
        block["steps"] = block["steps"][:5]
    numbers = [p for p in json_paths(cfg) if type(_value_at(cfg, p)) in (int, float)]
    for _ in range(rng.randint(1, 3)):
        *parents, last = rng.choice(numbers)
        parent = _value_at(cfg, parents)
        old = parent[last]
        parent[last] = rng.choice([0, old - 1, old + 1] if isinstance(old, int) else EDGE_NUMBERS)
    return cfg


def structural_mutant(cfg, rng):
    """A copy of ``cfg`` with 1-3 values anywhere, the root included,
    deleted (the root never is) or replaced by one of ``MUTANTS``."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(json_paths(cfg)))
        drop = bool(path) and rng.random() < 0.5
        value = None if drop else copy.deepcopy(rng.choice(MUTANTS))
        if not path:
            cfg = value
            continue
        parent = _value_at(cfg, path[:-1])
        if drop:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return cfg
