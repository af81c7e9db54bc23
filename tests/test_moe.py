"""Gate selection, virtual queues, and drift-plus-penalty scheduling."""

import itertools

import numpy as np
import pytest

from edgelam_sim.errors import SchedulingError
from edgelam_sim.moe_orchestrator import ExpertMicroservice, gate_select, orchestrate
from edgelam_sim.netsim import DeviceProfile, comm_latency, shannon_rate

from oracles import VirtualQueue, drift_plus_penalty_decision, queue_update


class TestGateSelect:
    def test_top_one(self):
        assert gate_select([0.9, 0.1], 1) == (0,)

    def test_tie_goes_to_lower_index(self):
        assert gate_select([0.5, 0.5], 1) == (0,)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = rng.random(8)
            got = gate_select(scores, 3)
            oracle = sorted(
                sorted(range(8), key=lambda i: (-scores[i], i))[:3]
            )
            assert got == tuple(oracle)

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
        for record in res.records:
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

    def test_queue_nonnegativity(self):
        devices, experts, bw = simple_setup()
        res = orchestrate(
            devices, experts, 300, v=1.0, top_k=2, seed=6,
            bandwidth=bw, noise_density=1e-9, layers_per_task=2, load_jitter=0.4,
        )
        for record in res.records:
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
        assert [r.assignment for r in a.records] == [r.assignment for r in b.records]
        c = orchestrate(devices, experts, seed=43, **kwargs)
        assert [r.assignment for r in a.records] != [r.assignment for r in c.records]

    def test_failed_device_excluded(self):
        devices, experts, bw = simple_setup()
        res = orchestrate(
            devices, experts, 100, v=1.0, top_k=2, seed=7,
            bandwidth=bw, noise_density=1e-9, failed_devices=frozenset({"d0"}),
        )
        for record in res.records:
            assert all(dev != "d0" for _, dev in record.assignment)

    def test_no_live_replica_raises(self):
        devices, experts, bw = simple_setup()
        with pytest.raises(SchedulingError):
            orchestrate(
                devices, experts, 10, v=1.0, top_k=1, seed=7,
                bandwidth=bw, noise_density=1e-9,
                failed_devices=frozenset({"d0", "d1", "d2"}),
            )

    def test_greedy_fallback_matches_exhaustive(self):
        # the objective separates per call, so forcing the greedy path must
        # reproduce the exhaustive decisions slot by slot
        devices, experts, bw = simple_setup()
        kwargs = dict(
            n_slots=200, v=3.0, top_k=3, seed=8, bandwidth=bw,
            noise_density=1e-9, layers_per_task=2, load_jitter=0.4,
        )
        full = orchestrate(devices, experts, **kwargs)
        forced = orchestrate(devices, experts, max_exhaustive=1, **kwargs)
        assert [r.assignment for r in full.records] == [
            r.assignment for r in forced.records
        ]
        assert full.time_avg_cost == forced.time_avg_cost

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
        costs = [r.slot_cost for r in faded_a.records if r.slot_cost > 0]
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
        assert all(dev == "cool" for r in res.records for _, dev in r.assignment)

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
        for record in res.records:
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
