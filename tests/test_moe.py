"""Gate selection, virtual queues, and drift-plus-penalty scheduling."""

import csv
import itertools
import json
import math
import random

import numpy as np
import pytest

from edgelam_sim.errors import SchedulingError
from edgelam_sim.moe_orchestrator import ExpertMicroservice, gate_select, orchestrate
from edgelam_sim.netsim import DeviceProfile, comm_latency, shannon_rate
from edgelam_sim.scenarios import run_scenario

from oracles import (
    VirtualQueue,
    drift_plus_penalty_decision,
    gate_rule,
    orchestrate_per_slot,
    queue_update,
    slot_records,
)
from test_scenarios import base_cfg, read_outputs, write_cfg


class TestGateSelect:
    def test_top_one(self):
        assert gate_select([0.9, 0.1], 1).tolist() == [0]

    def test_tie_goes_to_lower_index(self):
        assert gate_select([0.5, 0.5], 1).tolist() == [0]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.random(8)
            got = gate_select(scores, 3)
            oracle = sorted(
                sorted(range(8), key=lambda i: (-scores[i], i))[:3]
            )
            assert got.tolist() == oracle

    def test_block_matches_per_row_rule(self):
        rng = np.random.default_rng(3)
        for n_experts in range(1, 10):
            # rounded scores tie often; ties go to the lower index
            block = np.round(rng.random((50, n_experts)), 1)
            for k in range(1, n_experts + 1):
                got = gate_select(block, k)
                assert got.shape == (50, k)
                assert got.tolist() == [list(gate_rule(row, k)) for row in block.tolist()]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            gate_select([1.0, 2.0], 0)
        with pytest.raises(ValueError):
            gate_select([1.0, 2.0], 3)


class TestQueueUpdate:
    def test_balanced(self):
        q = VirtualQueue("a", 5.0)
        assert queue_update(q, 2.0, 2.0).backlog == 5.0

    def test_floor_at_zero(self):
        q = VirtualQueue("a", 0.0)
        assert queue_update(q, 0.0, 5.0).backlog == 0.0

    def test_arithmetic(self):
        q = VirtualQueue("a", 10.0)
        assert queue_update(q, 3.0, 5.0).backlog == 8.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            queue_update(VirtualQueue("a", 1.0), -1.0, 0.0)
        with pytest.raises(ValueError):
            VirtualQueue("a", -0.1)


class TestDecision:
    def test_pure_drift_picks_low_backlog(self):
        queues = {"a": 10.0, "b": 2.0}
        candidates = [("a",), ("b",)]
        out = drift_plus_penalty_decision(queues, candidates, [1.0], 0.0, lambda c: 1.0)
        assert out == ("b",)

    def test_pure_penalty_picks_low_cost(self):
        queues = {"a": 0.0, "b": 1e6}
        costs = {("a",): 2.0, ("b",): 1.0}
        out = drift_plus_penalty_decision(
            queues, [("a",), ("b",)], [1.0], 1e9, lambda c: costs[c]
        )
        assert out == ("b",)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        devices = ["a", "b", "c"]
        for _ in range(50):
            queues = {d: float(rng.uniform(0, 10)) for d in devices}
            loads = [float(rng.uniform(0.1, 2.0)) for _ in range(2)]
            cost_table = {
                combo: float(rng.uniform(0, 5))
                for combo in itertools.product(devices, repeat=2)
            }
            candidates = list(itertools.product(devices, repeat=2))
            v = float(rng.uniform(0, 10))
            got = drift_plus_penalty_decision(
                queues, candidates, loads, v, lambda c: cost_table[c]
            )
            best = min(
                candidates,
                key=lambda c: (
                    sum(queues[d] * w for d, w in zip(c, loads)) + v * cost_table[c],
                    c,
                ),
            )
            assert got == best

    def test_empty_candidates(self):
        with pytest.raises(SchedulingError):
            drift_plus_penalty_decision({"a": 0.0}, [], [], 1.0, lambda c: 0.0)


def simple_setup(n_devices=3, gains=(4.0, 1.0, 0.25), workload=1.6, n_experts=4):
    devices = [
        DeviceProfile(f"d{i}", 1.0, 1e9, gains[i], 0.5, 1) for i in range(n_devices)
    ]
    experts = [
        ExpertMicroservice(f"e{j}", workload, 1e6, tuple(d.id for d in devices))
        for j in range(n_experts)
    ]
    bandwidth = {d.id: 3e5 for d in devices}
    return devices, experts, bandwidth


class TestOrchestrate:
    def test_single_device_backlog_recursion(self):
        dev = DeviceProfile("only", 1.0, 1e9, 1.0, 0.5, 1)
        experts = [ExpertMicroservice("e0", 1.3, 1e5, ("only",))]
        res = orchestrate(
            [dev], experts, 50, v=1.0, top_k=1, seed=5,
            bandwidth={"only": 1e6}, noise_density=1e-9,
        )
        backlog = 0.0
        for record in slot_records(res):
            backlog = max(backlog + 1.3 - 1.0, 0.0)
            assert record.backlogs["only"] == pytest.approx(backlog, abs=1e-12)
            assert record.assignment[0][1] == "only"

    def test_zero_arrivals(self):
        devices, experts, bw = simple_setup()
        res = orchestrate(
            devices, experts, 20, v=1.0, top_k=1, seed=5,
            bandwidth=bw, noise_density=1e-9, arrival_prob=0.0,
        )
        assert res.time_avg_cost == 0.0
        assert res.time_avg_backlog == 0.0
        assert res.max_backlog == 0.0

    @pytest.mark.parametrize("changed, match", [
        (dict(n_slots=0), "at least one slot"),
        (dict(v=math.inf), "V must be finite"),
        (dict(v=-1.0), "V must be finite"),
        (dict(load_jitter=1.0), "load_jitter"),
        (dict(load_jitter=3.0), "load_jitter"),
        (dict(load_jitter=-0.5), "load_jitter"),
        (dict(arrival_prob=7.5), "arrival_prob"),
        (dict(arrival_prob=-0.5), "arrival_prob"),
    ], ids=["no-slots", "v-inf", "v-negative", "jitter-1", "jitter-3", "jitter-negative",
            "arrival-prob-7.5", "arrival-prob-negative"])
    def test_invalid_arguments_raise(self, changed, match):
        # a jitter of 1 or more could give a call negative FLOPs, which
        # would lower its device's backlog
        devices, experts, bw = simple_setup()
        kwargs = dict(n_slots=10, v=1.0, top_k=1, seed=1, bandwidth=bw, noise_density=1e-9)
        with pytest.raises(ValueError, match=match):
            orchestrate(devices, experts, **{**kwargs, **changed})

    def test_queue_nonnegativity(self):
        devices, experts, bw = simple_setup()
        res = orchestrate(
            devices, experts, 300, v=1.0, top_k=2, seed=6,
            bandwidth=bw, noise_density=1e-9, layers_per_task=2, load_jitter=0.4,
        )
        for record in slot_records(res):
            assert all(b >= 0.0 for b in record.backlogs.values())

    def test_deterministic_per_seed(self):
        devices, experts, bw = simple_setup()
        kwargs = dict(
            n_slots=100, v=2.0, top_k=2, bandwidth=bw, noise_density=1e-9,
            layers_per_task=2, load_jitter=0.3,
        )
        a = orchestrate(devices, experts, seed=42, **kwargs)
        b = orchestrate(devices, experts, seed=42, **kwargs)
        assert a.time_avg_cost == b.time_avg_cost
        assert slot_records(a) == slot_records(b)
        c = orchestrate(devices, experts, seed=43, **kwargs)
        assert slot_records(a) != slot_records(c)

    def test_failed_device_excluded(self):
        devices, experts, bw = simple_setup()
        res = orchestrate(
            devices, experts, 100, v=1.0, top_k=2, seed=7,
            bandwidth=bw, noise_density=1e-9, failed_devices=frozenset({"d0"}),
        )
        for record in slot_records(res):
            assert all(dev != "d0" for _, dev in record.assignment)

    def test_no_live_replica_raises(self):
        devices, experts, bw = simple_setup()
        with pytest.raises(SchedulingError):
            orchestrate(
                devices, experts, 10, v=1.0, top_k=1, seed=7,
                bandwidth=bw, noise_density=1e-9,
                failed_devices=frozenset({"d0", "d1", "d2"}),
            )

    def test_underflowing_gain_times_power_is_a_dead_uplink(self):
        # 1e-200 * 1e-200 underflows to 0, where shannon_rate gives 0 bit/s:
        # the uplink is dead just as with a power of 0
        devices, experts, bw = simple_setup()
        kwargs = dict(n_slots=30, v=1.0, top_k=2, seed=7, bandwidth=bw, noise_density=1e-9)

        def with_radio(gain, power, ids):
            return [DeviceProfile(d.id, d.compute_rate, d.memory_capacity, gain, power, 1)
                    if d.id in ids else d for d in devices]

        faint = orchestrate(with_radio(1e-200, 1e-200, {"d0"}), experts, **kwargs)
        silent = orchestrate(with_radio(1.0, 0.0, {"d0"}), experts, **kwargs)
        assert slot_records(faint) == slot_records(silent)
        assert all(dev != "d0" for r in slot_records(faint) for _, dev in r.assignment)
        with pytest.raises(SchedulingError, match="no replica with a live uplink"):
            orchestrate(with_radio(1e-200, 1e-200, {"d0", "d1", "d2"}), experts, **kwargs)

    def test_fading_changes_costs_deterministically(self):
        devices, experts, bw = simple_setup()
        kwargs = dict(
            n_slots=50, v=1.0, top_k=1, seed=12, bandwidth=bw, noise_density=1e-9,
        )
        static = orchestrate(devices, experts, **kwargs)
        faded_a = orchestrate(devices, experts, fading_sigma=0.5, **kwargs)
        faded_b = orchestrate(devices, experts, fading_sigma=0.5, **kwargs)
        assert faded_a.time_avg_cost == faded_b.time_avg_cost
        assert faded_a.time_avg_cost != static.time_avg_cost
        costs = [r.slot_cost for r in slot_records(faded_a) if r.slot_cost > 0]
        assert len(set(round(c, 12) for c in costs)) > 1  # per-slot variation

    def test_energy_weighted_cost_prefers_low_power(self):
        # equal channels, different radios: with pure-energy cost and a huge
        # V the scheduler must stick to the low-power device
        devices = [
            DeviceProfile("hot", 1.0, 1e9, 1.0, 0.9, 1),
            DeviceProfile("cool", 1.0, 1e9, 1.0, 0.1, 1),
        ]
        experts = [ExpertMicroservice("e0", 0.3, 1e5, ("cool", "hot"))]
        res = orchestrate(
            devices, experts, 50, v=1e9, top_k=1, seed=13,
            bandwidth={"hot": 1e5, "cool": 1e5}, noise_density=1e-9,
            w_lat=0.0, w_energy=1.0,
        )
        # cool radiates less joules per bit even though its rate is lower
        assert all(dev == "cool" for r in slot_records(res) for _, dev in r.assignment)

    def test_decision_matches_oracle_along_run(self):
        # replay a short run and check every slot against brute force
        devices, experts, bw = simple_setup(workload=0.5)
        res = orchestrate(
            devices, experts, 80, v=2.0, top_k=2, seed=9,
            bandwidth=bw, noise_density=1e-9, layers_per_task=1, load_jitter=0.0,
        )
        rates = {
            d.id: shannon_rate(bw[d.id], d.channel_gain, d.tx_power, 1e-9)
            for d in devices
        }
        lat = {
            (e.id, d.id): comm_latency(e.output_size, rates[d.id])
            for e in experts
            for d in devices
        }
        queues = {d.id: VirtualQueue(d.id) for d in devices}
        for record in slot_records(res):
            calls = [e for e, _ in record.assignment]
            loads = [0.5] * len(calls)
            candidates = list(
                itertools.product(sorted(d.id for d in devices), repeat=len(calls))
            )
            best = drift_plus_penalty_decision(
                queues, candidates, loads, 2.0,
                lambda c: sum(lat[(e, d)] for e, d in zip(calls, c)),
            )
            assert tuple(d for _, d in record.assignment) == best
            arrivals = {d.id: 0.0 for d in devices}
            for (_, dev), w in zip(record.assignment, loads):
                arrivals[dev] += w
            for d in devices:
                queues[d.id] = queue_update(queues[d.id], arrivals[d.id], 1.0)
                assert record.backlogs[d.id] == pytest.approx(queues[d.id].backlog, abs=1e-12)


def assert_per_call_argmin(res, devices, experts, bandwidth, v, w_energy):
    """Each call sits on a replica minimizing Q[d]*load + V*cost, lowest id on ties.

    Needs a static channel, no jitter and no failed devices, so that a
    call's load is its expert's workload; Q is replayed with ``queue_update``.
    """
    by_id = {e.id: e for e in experts}
    rates = {d.id: shannon_rate(bandwidth[d.id], d.channel_gain, d.tx_power, 1e-9)
             for d in devices}
    power = {d.id: d.tx_power for d in devices}

    def cost(e, dev):
        lat = comm_latency(by_id[e].output_size, rates[dev])
        return lat + w_energy * power[dev] * lat

    queues = {d.id: VirtualQueue(d.id) for d in devices}
    for record in slot_records(res):
        for e, dev in record.assignment:
            load = by_id[e].workload_per_call
            scores = {r: queues[r].backlog * load + v * cost(e, r)
                      for r in sorted(by_id[e].replicas)}
            best = min(scores.values())
            assert dev == next(r for r, s in scores.items() if s == best), (record.slot, e)
        arrivals = {d.id: 0.0 for d in devices}
        for e, dev in record.assignment:
            arrivals[dev] += by_id[e].workload_per_call
        for d in devices:
            queues[d.id] = queue_update(queues[d.id], arrivals[d.id], d.compute_rate)
            assert record.backlogs[d.id] == queues[d.id].backlog


def test_per_call_rule_on_near_tie():
    # Slot 103 starts with backlogs that differ in the last bits: d0 is the
    # fuller one.  With V = 0 every call that d1 can serve belongs on d1, but
    # an enumeration of whole assignments, comparing rounded sums over 12
    # calls, ties them and sends three such calls to d0.  e3 and e5 have one
    # replica each, so a slot's calls have replica lists of unequal length.
    devices = [DeviceProfile("d0", 2.0, 1e9, 0.5, 0.1), DeviceProfile("d1", 2.0, 1e9, 4.0, 0.1)]
    experts = [
        ExpertMicroservice("e0", 1.0, 2e5, ("d0", "d1")),
        ExpertMicroservice("e1", 1.0, 1e5, ("d1", "d0")),
        ExpertMicroservice("e2", 0.4, 0.0, ("d1", "d0")),
        ExpertMicroservice("e3", 1.0, 1e5, ("d1",)),
        ExpertMicroservice("e4", 1.0, 1e5, ("d1", "d0")),
        ExpertMicroservice("e5", 0.4, 2e5, ("d0",)),
    ]
    bw = {"d0": 3e5, "d1": 3e5}
    res = orchestrate(
        devices, experts, n_slots=113, v=0.0, top_k=4, seed=31, bandwidth=bw,
        noise_density=1e-9, layers_per_task=3, w_energy=1.0,
    )
    assert slot_records(res)[102].backlogs == {"d0": 284.80000000000007, "d1": 284.79999999999995}
    assert_per_call_argmin(res, devices, experts, bw, v=0.0, w_energy=1.0)



def random_moe_case(rng: random.Random, n_devices=None, n_calls=None) -> dict:
    """orchestrate keywords for a random small run: dead uplinks, failed
    devices, single-replica experts, zero-output experts, V = 0, jitter, energy
    weight, fading and random arrivals all occur."""
    n_dev = n_devices or rng.randint(1, 6)
    devices = [
        DeviceProfile(
            f"d{i}",
            rng.uniform(0.5, 3.0),
            1e9,
            rng.choice([0.0] + [rng.uniform(0.1, 4.0)] * 9),
            rng.choice([0.0] + [rng.uniform(0.05, 1.0)] * 9),
        )
        for i in range(n_dev)
    ]
    ids = [d.id for d in devices]
    if n_calls is None:
        top_k, layers = rng.randint(1, 4), rng.randint(1, 3)
    else:
        top_k, layers = n_calls // 2, 2
    n_experts = rng.randint(top_k, top_k + 4)
    experts = [
        ExpertMicroservice(
            f"e{j}",
            rng.uniform(0.05, 2.0) / top_k,
            rng.choice([0.0, rng.uniform(1e4, 3e5), rng.uniform(1e4, 3e5)]),
            tuple(rng.sample(ids, rng.randint(1, n_dev))),
        )
        for j in range(n_experts)
    ]
    return dict(
        devices=devices,
        experts=experts,
        n_slots=rng.randint(1, 60),
        v=rng.choice([0.0, rng.uniform(0.0, 5.0), rng.uniform(0.0, 1e3)]),
        top_k=top_k,
        seed=rng.randrange(2**32),
        bandwidth={i: rng.choice([0.0] + [3e5] * 9) for i in ids},
        noise_density=1e-9,
        layers_per_task=layers,
        load_jitter=rng.choice([0.0, rng.uniform(0.0, 0.5)]),
        w_lat=rng.choice([1.0, 1.0, 0.0, rng.uniform(0.0, 2.0)]),
        w_energy=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
        failed_devices=frozenset(rng.sample(ids, rng.choice([0, 0, 0, 1]))),
        arrival_prob=rng.choice([1.0, 1.0, rng.random(), 0.0]),
        fading_sigma=rng.choice([None, None, rng.uniform(0.0, 0.5)]),
    )


def test_orchestrate_matches_per_slot_reference():
    """The scheduler equals the slot-by-slot loop bit for bit: every
    assignment, slot cost and backlog, and the three run averages."""
    rng = random.Random(2024)
    cases = [random_moe_case(rng) for _ in range(200)]
    # 8 and more devices and calls per slot: numpy sums pairwise from 8 terms
    cases += [random_moe_case(rng, n_devices=n, n_calls=n) for n in (8, 9, 12)]
    checked = big = 0
    for kwargs in cases:
        try:
            ref = orchestrate_per_slot(**kwargs)
        except SchedulingError:
            with pytest.raises(SchedulingError):
                orchestrate(**kwargs)
            continue
        res = orchestrate(**kwargs)
        assert slot_records(res) == ref.records
        assert res.time_avg_cost == ref.time_avg_cost
        assert res.time_avg_backlog == ref.time_avg_backlog
        assert res.max_backlog == ref.max_backlog
        checked += 1
        big += len(res.device_ids) >= 8 and res.calls.shape[1] >= 8
    assert checked >= 150 and big >= 1


@pytest.mark.parametrize("name", ["moe_schedule", "moe_tradeoff", "moe_maximal", "moe_stress"])
def test_device_list_order_leaves_every_output_byte(tmp_path, name):
    """The scheduler sorts the devices by id, so four seeded reorderings of
    a config's device list write the same bytes as the config itself."""
    cfg = base_cfg(name)
    assert run_scenario(write_cfg(tmp_path, cfg), tmp_path / "want") == 0
    want = read_outputs(tmp_path / "want")
    devices = cfg["devices"]
    reorders = [p for p in itertools.permutations(devices) if p != tuple(devices)]
    for i, reorder in enumerate(random.Random(name).sample(reorders, 4)):
        cfg["devices"] = list(reorder)
        out = tmp_path / f"perm{i}"
        assert run_scenario(write_cfg(tmp_path, cfg), out) == 0
        assert read_outputs(out) == want, [d["id"] for d in reorder]


def moe_outputs(tmp_path, cfg, name):
    """(trace rows as dicts of strings, summary) of one run of ``cfg``."""
    assert run_scenario(write_cfg(tmp_path, cfg, name=f"{name}.json"), tmp_path / name) == 0
    with open(tmp_path / name / "moe_trace.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    return rows, json.loads((tmp_path / name / "moe_summary.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("k", [1, -2, 5])
@pytest.mark.parametrize("name", ["moe_schedule", "moe_tradeoff", "moe_maximal", "moe_stress"])
def test_power_of_two_load_scaling(tmp_path, name, k):
    """Every compute_rate and expert workload x2^k, with v and each v_sweep
    entry x4^k: a drift term queue*load grows by 4^k, as the penalty does,
    so the assignments, slot costs and time_avg_cost are unchanged and every
    backlog is exactly x2^k (a power of two scales floats exactly)."""
    cfg = base_cfg(name)
    want_rows, want = moe_outputs(tmp_path, cfg, "want")
    for dev in cfg["devices"]:
        dev["compute_rate"] = math.ldexp(dev["compute_rate"], k)
    block = cfg["moe"]
    for expert in block["experts"]:
        expert["workload"] = math.ldexp(expert["workload"], k)
    block["v"] = math.ldexp(block["v"], 2 * k)
    if "v_sweep" in block:
        block["v_sweep"] = [math.ldexp(v, 2 * k) for v in block["v_sweep"]]
    rows, got = moe_outputs(tmp_path, cfg, "scaled")
    assert len(rows) == len(want_rows) > 0
    for a, b in zip(want_rows, rows):
        for column, cell in a.items():
            if column.startswith("backlog_"):
                assert float(b[column]) == math.ldexp(float(cell), k), (a["slot"], column)
            else:
                assert b[column] == cell, (a["slot"], column)

    def scaled(entry):
        return dict(entry, max_backlog=math.ldexp(entry["max_backlog"], k),
                    time_avg_backlog=math.ldexp(entry["time_avg_backlog"], k),
                    v=math.ldexp(entry["v"], 2 * k))
    want = scaled(want)
    if "v_sweep" in want:
        want["v_sweep"] = [scaled(entry) for entry in want["v_sweep"]]
    assert got == want
