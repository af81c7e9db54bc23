"""Placement cost oracle, exact solver, and the local-search heuristic."""

import copy
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from edgelam_sim.cot_placement import (
    CotChain,
    CotStep,
    link_rates_from_gains,
    solve_exact,
    solve_local_search,
)
from edgelam_sim.errors import PlacementError, SizeLimitError
from edgelam_sim.netsim import DeviceProfile
from edgelam_sim.scenarios import run_scenario

from oracles import (
    brute_force_placement,
    make_random_instance,
    placement_cost,
    validate_placement,
)


def full_mesh(n_devices, link):
    """Link rate matrix: ``link`` between devices, 0.0 on the diagonal."""
    return [[0.0 if a == b else float(link) for b in range(n_devices)]
            for a in range(n_devices)]


def uniform_instance(n_steps=3, n_devices=3, rate=1e9, link=1e12):
    chain = CotChain(tuple(CotStep(1e9, 1e6) for _ in range(n_steps)))
    devices = [
        DeviceProfile(f"d{i}", rate, 1e12, 1.0, 0.5) for i in range(n_devices)
    ]
    return chain, devices, full_mesh(n_devices, link)


class TestPlacementCost:
    def test_colocated_is_pure_compute(self):
        chain, devices, links = uniform_instance()
        cost = placement_cost(chain, (0, 0, 0), devices, links)
        assert cost == pytest.approx(3.0, abs=1e-12)

    def test_free_links_make_split_equivalent(self):
        chain, devices, links = uniform_instance(n_steps=2, n_devices=2, link=1e18)
        together = placement_cost(chain, (0, 0), devices, links)
        split = placement_cost(chain, (0, 1), devices, links)
        assert abs(together - split) <= 1e-9

    def test_matches_term_by_term_oracle(self):
        chain, devices, links, shard = make_random_instance(5, 4, 3)
        assignment = (0, 2, 1, 1)
        expected = 0.0
        for s, step in enumerate(chain.steps):
            d = assignment[s]
            expected += step.workload / devices[d].compute_rate
            if s + 1 < len(chain):
                nxt = assignment[s + 1]
                if nxt != d:
                    expected += chain.steps[s].handoff_size / links[d][nxt]
        got = placement_cost(chain, assignment, devices, links, shard)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_invalid_placement_rejected(self):
        chain, devices, links = uniform_instance()
        with pytest.raises(PlacementError):
            placement_cost(chain, (0, 0), devices, links)

    def test_capacity_validator_is_independent(self):
        chain, devices, links = uniform_instance()
        tight = [
            DeviceProfile(d.id, d.compute_rate, 1e5, d.channel_gain, d.tx_power)
            for d in devices
        ]
        # all three steps cannot fit on one device
        assert sum(step.handoff_size / 8 for step in chain.steps) > 1e5
        with pytest.raises(PlacementError):
            validate_placement(chain, (0, 0, 0), tight, 0.0)


class TestSolveExact:
    def test_single_step_fastest_device(self):
        chain = CotChain((CotStep(1e9, 0.0),))
        devices = [
            DeviceProfile("slow", 1e9, 1e9, 1.0, 0.5),
            DeviceProfile("fast", 4e9, 1e9, 1.0, 0.5),
        ]
        links = full_mesh(2, 0.0)
        res = solve_exact(chain, devices, links)
        assert res.assignment == (1,)
        assert res.cost == pytest.approx(0.25, abs=1e-12)

    def test_uniform_tie_returns_all_zeros(self):
        chain, devices, links = uniform_instance()
        res = solve_exact(chain, devices, links)
        assert res.assignment == (0, 0, 0)
        assert res.assignment == brute_force_placement(chain, devices, links, 0.0)[0]

    def test_matches_brute_force_oracle(self):
        for seed in range(12):
            tightness = 0.25 if seed % 2 else 0.6
            chain, devices, links, shard = make_random_instance(seed, 5, 4, tightness)
            best, best_cost = brute_force_placement(chain, devices, links, shard)
            if best is None:
                with pytest.raises(PlacementError, match="no capacity-feasible placement"):
                    solve_exact(chain, devices, links, shard)
                continue
            res = solve_exact(chain, devices, links, shard)
            assert res.assignment == best
            assert abs(res.cost - best_cost) <= 1e-12

    @pytest.mark.parametrize("n_steps,n_dev", [(1, 1), (1, 2), (5, 1), (6, 2), (5, 3), (4, 4)])
    @pytest.mark.parametrize("tightness", [0.25, 0.6, 1.5])
    def test_dead_links_match_brute_force(self, n_steps, n_dev, tightness):
        """Half the links have rate 0, loose to tight capacity."""
        for seed in range(3):
            chain, devices, links, shard = make_random_instance(seed, n_steps, n_dev, tightness)
            live = np.random.default_rng(seed).random((n_dev, n_dev)) < 0.5
            links = (np.array(links) * live).tolist()
            best, best_cost = brute_force_placement(chain, devices, links, shard)
            if best is None:
                with pytest.raises(PlacementError, match="no capacity-feasible placement"):
                    solve_exact(chain, devices, links, shard)
                continue
            res = solve_exact(chain, devices, links, shard)
            assert res.assignment == best
            assert abs(res.cost - best_cost) <= 1e-12 * best_cost

    def test_beats_random_samples(self):
        for seed in range(10):
            chain, devices, links, shard = make_random_instance(seed, 5, 4)
            res = solve_exact(chain, devices, links, shard)
            validate_placement(chain, res.assignment, devices, shard)
            rng = np.random.default_rng(seed)
            costs = []
            while len(costs) < 200:
                assignment = tuple(int(d) for d in rng.integers(0, 4, size=5))
                try:
                    costs.append(
                        placement_cost(chain, assignment, devices, links, shard)
                    )
                except PlacementError:
                    continue  # over capacity
            assert res.cost <= min(costs) + 1e-12

    def test_enumeration_guard(self):
        chain = CotChain(tuple(CotStep(1e9, 1e5) for _ in range(8)))
        devices = [DeviceProfile(f"d{i}", 1e9, 1e12, 1.0, 0.5) for i in range(6)]
        links = full_mesh(6, 1e9)
        with pytest.raises(SizeLimitError):
            solve_exact(chain, devices, links)  # 6^8 > 1e6

    def test_negative_shard_rejected(self):
        chain, devices, links = uniform_instance()
        with pytest.raises(ValueError, match="shard_bytes"):
            solve_exact(chain, devices, links, shard_bytes=-1.0)

    def test_infeasible_capacity(self):
        chain, devices, links = uniform_instance()
        tiny = [
            DeviceProfile(d.id, d.compute_rate, 1.0, d.channel_gain, d.tx_power)
            for d in devices
        ]
        with pytest.raises(PlacementError, match="no capacity-feasible placement exists"):
            solve_exact(chain, tiny, links)

    def test_every_fitting_placement_costs_inf(self):
        # each step's compute time, 1e9 / 1e-300, overflows on every device:
        # all 27 placements fit, and the error says that none has a finite cost
        chain, devices, links = uniform_instance(rate=1e-300)
        with pytest.raises(PlacementError, match=(
                r"^all 27 capacity-feasible placements cost inf "
                r"\(an overflowing compute time or a dead link\)$")):
            solve_exact(chain, devices, links)


class TestLocalSearch:
    def test_dominant_device_matches_exact(self):
        chain = CotChain(tuple(CotStep(1e9, 1e4) for _ in range(4)))
        devices = [
            DeviceProfile("big", 1e10, 1e12, 1.0, 0.5),
            DeviceProfile("tiny", 1e8, 1e12, 1.0, 0.5),
        ]
        links = full_mesh(2, 1e6)
        exact = solve_exact(chain, devices, links)
        ls = solve_local_search(chain, devices, links, seed=0, iters=10)
        assert ls.assignment == exact.assignment
        assert ls.cost == pytest.approx(exact.cost, abs=1e-12)

    def test_iters_one_is_greedy_oracle(self):
        for seed in range(8):
            chain, devices, links, shard = make_random_instance(seed, 5, 4)
            got = solve_local_search(chain, devices, links, seed=7, iters=1, shard_bytes=shard)
            # independent greedy: step by step, best marginal cost, capacity aware
            mem = [step.handoff_size / 8 + shard for step in chain.steps]
            caps = [d.memory_capacity for d in devices]
            loads = [0.0] * len(devices)
            assignment = []
            for s, step in enumerate(chain.steps):
                best_d, best_c = None, math.inf
                for d, dev in enumerate(devices):
                    if loads[d] + mem[s] > caps[d]:
                        continue
                    c = step.workload / dev.compute_rate
                    if s > 0 and assignment[-1] != d:
                        c += chain.steps[s - 1].handoff_size / links[assignment[-1]][d]
                    if c < best_c:
                        best_c, best_d = c, d
                assignment.append(best_d)
                loads[best_d] += mem[s]
            assert got.assignment == tuple(assignment)

    def test_never_beats_exact_and_is_feasible(self):
        for seed in range(15):
            chain, devices, links, shard = make_random_instance(100 + seed, 4, 4)
            exact = solve_exact(chain, devices, links, shard)
            ls = solve_local_search(chain, devices, links, seed=seed, iters=10, shard_bytes=shard)
            validate_placement(chain, ls.assignment, devices, shard)
            assert exact.cost <= ls.cost + 1e-12

    def test_deterministic_per_seed(self):
        chain, devices, links, shard = make_random_instance(5, 5, 5)
        a = solve_local_search(chain, devices, links, seed=3, iters=10, shard_bytes=shard)
        b = solve_local_search(chain, devices, links, seed=3, iters=10, shard_bytes=shard)
        assert a.assignment == b.assignment
        assert a.cost == b.cost

    def test_infeasible_start(self):
        chain, devices, links = uniform_instance()
        tiny = [
            DeviceProfile(d.id, d.compute_rate, 1.0, d.channel_gain, d.tx_power)
            for d in devices
        ]
        with pytest.raises(PlacementError, match="no feasible start: step 0 fits on no device"):
            solve_local_search(chain, tiny, links, seed=0, iters=3)

    def test_infeasible_start_behind_a_dead_link(self):
        # each device holds one step, and the link between them is dead
        chain, devices, _ = uniform_instance(n_steps=2, n_devices=2)
        one_step = [
            DeviceProfile(d.id, d.compute_rate, 1.5e5, d.channel_gain, d.tx_power)
            for d in devices
        ]
        with pytest.raises(PlacementError, match="step 1 fits only behind a dead link"):
            solve_local_search(chain, one_step, full_mesh(2, 0.0), seed=0, iters=3)

    def test_infeasible_start_at_infinite_compute(self):
        chain, devices, links = uniform_instance()
        crawling = [  # 1e9 FLOPs at 1e-300 FLOP/s overflows to inf
            DeviceProfile(d.id, 1e-300, d.memory_capacity, d.channel_gain, d.tx_power)
            for d in devices
        ]
        with pytest.raises(PlacementError, match="step 0 costs inf on every device with room"):
            solve_local_search(chain, crawling, links, seed=0, iters=3)


class TestMonotonicity:
    def test_speeding_up_a_device_never_hurts(self):
        for seed in range(6):
            chain, devices, links, shard = make_random_instance(200 + seed, 4, 3)
            base_cost = solve_exact(chain, devices, links, shard).cost
            for j in range(len(devices)):
                boosted = list(devices)
                d = devices[j]
                boosted[j] = DeviceProfile(
                    d.id, d.compute_rate * 2.0, d.memory_capacity,
                    d.channel_gain, d.tx_power,
                )
                new_cost = solve_exact(chain, boosted, links, shard).cost
                assert new_cost <= base_cost + 1e-12


def chain_cfg(seed, n_devices, n_steps, tight):
    """A seeded ``cot`` config on a full mesh.  Loose: every device holds
    the whole chain.  Tight: each holds ceil(S/D) + 1 of the largest steps,
    so capacity binds, but some placement fits."""
    rng = random.Random(seed)
    steps = [{"workload": rng.uniform(0.5e9, 4e9), "handoff_size": rng.uniform(1e5, 2e6)}
             for _ in range(n_steps)]
    shard = rng.uniform(1e5, 1e6)
    mem = [step["handoff_size"] / 8.0 + shard for step in steps]
    room = (math.ceil(n_steps / n_devices) + 1) * max(mem) if tight else math.fsum(mem)
    devices = [{"id": f"d{i}", "compute_rate": rng.uniform(0.5e9, 5e9),
                "memory_capacity": room * rng.uniform(1.0, 1.1), "channel_gain": 1.0,
                "tx_power": rng.uniform(0.2, 1.0)} for i in range(n_devices)]
    gains = [[0.0 if a == b else rng.uniform(0.05, 1.0) for b in range(n_devices)]
             for a in range(n_devices)]
    return {"kind": "cot", "seed": seed, "devices": devices,
            "channel": {"total_bandwidth": 1e6, "noise_density": 1e-9, "link_bandwidth": 1e6},
            "cot": {"steps": steps, "gains": gains, "shard_bytes": shard, "solver": "both",
                    "iters": 10}}


def twins_cfg():
    """Three identical devices on equal links, each with room for two of the
    five equal steps: every permutation of the devices maps an optimum to
    another optimum, so the exact placement ties."""
    cfg = chain_cfg(0, 3, 5, tight=False)
    cfg["cot"]["steps"] = [{"workload": 1e9, "handoff_size": 1e5} for _ in range(5)]
    cfg["cot"]["shard_bytes"] = 1e6  # a step takes 1.0125e6 bytes
    cfg["cot"]["gains"] = [[0.0 if a == b else 0.5 for b in range(3)] for a in range(3)]
    cfg["devices"] = [{"id": f"d{i}", "compute_rate": 1e9, "memory_capacity": 2.5e6,
                       "channel_gain": 1.0, "tx_power": 0.5} for i in range(3)]
    return cfg


# the shipped config, seeded chains alternately loose and tight (one device
# included), and one with an exact tie
METAMORPHIC = {
    "cot_place": json.loads(
        (Path(__file__).resolve().parents[1] / "scenarios" / "cot_place.json").read_text()),
    **{f"chain{i}_{d}^{s}_{'tight' if i % 2 else 'loose'}": chain_cfg(40 + i, d, s, i % 2 == 1)
       for i, (d, s) in enumerate([(2, 8), (2, 8), (3, 6), (3, 6), (4, 5), (4, 5), (5, 4),
                                   (5, 4), (1, 12), (6, 4)])},
    "twins": twins_cfg(),
}
# continuous draws: no permutation of the other instances moves their optimum
TIED = {"twins"}


def run_cot(cfg, tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run_scenario(str(path), str(tmp_path / name)) == 0
    return json.loads((tmp_path / name / "cot_result.json").read_text(encoding="utf-8"))


class TestMetamorphic:
    """Relations that need no oracle: a power-of-two scaling is exact in
    floats (no value here overflows or goes subnormal), and the devices'
    order is a labelling."""

    @pytest.mark.parametrize("k", [1, -3, 20])
    def test_power_of_two_scaling(self, k, tmp_path):
        """workload, handoff_size, shard_bytes and every memory_capacity
        x2^k: every cost x2^k exactly, everything else unchanged."""
        for name, cfg in METAMORPHIC.items():
            want = run_cot(cfg, tmp_path, name)
            for entry in (want["exact"], want["local_search"]):
                entry["cost_s"] = math.ldexp(entry["cost_s"], k)
            scaled = copy.deepcopy(cfg)
            for step in scaled["cot"]["steps"]:
                step["workload"] = math.ldexp(step["workload"], k)
                step["handoff_size"] = math.ldexp(step["handoff_size"], k)
            scaled["cot"]["shard_bytes"] = math.ldexp(scaled["cot"]["shard_bytes"], k)
            for dev in scaled["devices"]:
                dev["memory_capacity"] = math.ldexp(dev["memory_capacity"], k)
            assert run_cot(scaled, tmp_path, f"{name}_scaled") == want, name

    def test_device_permutation(self, tmp_path):
        """Permuting the devices with the rows and columns of gains gives
        the same exact cost bits and n_feasible, and the permuted placement
        (on an exact tie, another optimum may win the lexicographic rule)."""
        for name, cfg in METAMORPHIC.items():
            want = run_cot(cfg, tmp_path, name)["exact"]
            rng = random.Random(name)
            n = len(cfg["devices"])
            for i in range(4):
                perm = rng.sample(range(n), n)  # position p holds old device perm[p]
                permuted = copy.deepcopy(cfg)
                permuted["devices"] = [cfg["devices"][d] for d in perm]
                permuted["cot"]["gains"] = [[cfg["cot"]["gains"][a][b] for b in perm]
                                            for a in perm]
                got = run_cot(permuted, tmp_path, f"{name}_perm{i}")["exact"]
                assert (got["cost_s"].hex(), got["n_feasible"]) == (
                    want["cost_s"].hex(), want["n_feasible"]), name
                if name not in TIED:
                    assert got["placement"] == [perm.index(d) for d in want["placement"]], name


class TestLinkRates:
    def test_gain_matrix_shape_checked(self):
        devices = [DeviceProfile("a", 1e9, 1e9, 1.0, 0.5)]
        with pytest.raises(PlacementError):
            link_rates_from_gains(devices, [[1.0, 2.0]], 1e6, 1e-9)

    def test_diagonal_unused(self):
        chain, devices, links = uniform_instance(n_steps=2, n_devices=2)
        links[0][0] = 0.0  # never read for co-located steps
        cost = placement_cost(chain, (0, 0), devices, links)
        assert math.isfinite(cost)
