"""Placement cost oracle, exact solver, and the local-search heuristic."""

import math

import numpy as np
import pytest

from edgelam_sim.cot_placement import (
    CotChain,
    CotStep,
    Placement,
    link_rates_from_gains,
    solve_exact,
    solve_local_search,
    step_memory,
)
from edgelam_sim.errors import PlacementError, SizeLimitError
from edgelam_sim.netsim import DeviceProfile

from oracles import (
    brute_force_placement,
    make_random_instance,
    placement_cost,
    validate_placement,
)



def uniform_instance(n_steps=3, n_devices=3, rate=1e9, link=1e12):
    chain = CotChain(tuple(CotStep(1e9, 1e6) for _ in range(n_steps)))
    devices = [
        DeviceProfile(f"d{i}", rate, 1e12, 1.0, 0.5) for i in range(n_devices)
    ]
    link_rates = np.full((n_devices, n_devices), float(link))
    np.fill_diagonal(link_rates, 0.0)
    return chain, devices, link_rates


class TestPlacementCost:
    def test_colocated_is_pure_compute(self):
        chain, devices, links = uniform_instance()
        cost = placement_cost(chain, Placement((0, 0, 0), 3), devices, links)
        assert cost == pytest.approx(3.0, abs=1e-12)

    def test_free_links_make_split_equivalent(self):
        chain, devices, links = uniform_instance(n_steps=2, n_devices=2, link=1e18)
        together = placement_cost(chain, Placement((0, 0), 2), devices, links)
        split = placement_cost(chain, Placement((0, 1), 2), devices, links)
        assert abs(together - split) <= 1e-9

    def test_matches_term_by_term_oracle(self):
        chain, devices, links, shard = make_random_instance(5, 4, 3)
        placement = Placement((0, 2, 1, 1), 3)
        expected = 0.0
        for s, step in enumerate(chain.steps):
            d = placement.assignment[s]
            expected += step.workload / devices[d].compute_rate
            if s + 1 < len(chain):
                nxt = placement.assignment[s + 1]
                if nxt != d:
                    expected += chain.steps[s].handoff_size / links[d, nxt]
        got = placement_cost(chain, placement, devices, links, shard)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_invalid_placement_rejected(self):
        chain, devices, links = uniform_instance()
        with pytest.raises(PlacementError):
            placement_cost(chain, Placement((0, 0), 3), devices, links)

    def test_capacity_validator_is_independent(self):
        chain, devices, links = uniform_instance()
        tight = [
            DeviceProfile(d.id, d.compute_rate, 1e5, d.channel_gain, d.tx_power)
            for d in devices
        ]
        mem = step_memory(chain, 0.0)
        assert mem.sum() > 1e5  # all three steps cannot fit on one device
        with pytest.raises(PlacementError):
            validate_placement(chain, Placement((0, 0, 0), 3), tight, 0.0)


class TestSolveExact:
    def test_single_step_fastest_device(self):
        chain = CotChain((CotStep(1e9, 0.0),))
        devices = [
            DeviceProfile("slow", 1e9, 1e9, 1.0, 0.5),
            DeviceProfile("fast", 4e9, 1e9, 1.0, 0.5),
        ]
        links = np.zeros((2, 2))
        res = solve_exact(chain, devices, links)
        assert res.placement.assignment == (1,)
        assert res.cost == pytest.approx(0.25, abs=1e-12)

    def test_uniform_tie_returns_all_zeros(self):
        chain, devices, links = uniform_instance()
        res = solve_exact(chain, devices, links)
        assert res.placement.assignment == (0, 0, 0)
        assert res.placement == brute_force_placement(chain, devices, links, 0.0)[0]

    def test_matches_brute_force_oracle(self):
        for seed in range(12):
            tightness = 0.25 if seed % 2 else 0.6
            chain, devices, links, shard = make_random_instance(seed, 5, 4, tightness)
            res = solve_exact(chain, devices, links, shard)
            best, best_cost = brute_force_placement(chain, devices, links, shard)
            if best is None:
                assert not res.feasible
                continue
            assert res.feasible
            assert res.placement == best
            assert abs(res.cost - best_cost) <= 1e-12

    def test_beats_random_samples(self):
        for seed in range(10):
            chain, devices, links, shard = make_random_instance(seed, 5, 4)
            res = solve_exact(chain, devices, links, shard)
            assert res.feasible
            validate_placement(chain, res.placement, devices, shard)
            rng = np.random.default_rng(seed)
            costs = []
            while len(costs) < 200:
                assignment = tuple(int(d) for d in rng.integers(0, 4, size=5))
                try:
                    costs.append(
                        placement_cost(chain, Placement(assignment, 4), devices, links, shard)
                    )
                except PlacementError:
                    continue  # over capacity
            assert res.cost <= min(costs) + 1e-12

    def test_enumeration_guard(self):
        chain = CotChain(tuple(CotStep(1e9, 1e5) for _ in range(8)))
        devices = [DeviceProfile(f"d{i}", 1e9, 1e12, 1.0, 0.5) for i in range(6)]
        links = np.full((6, 6), 1e9)
        with pytest.raises(SizeLimitError):
            solve_exact(chain, devices, links)  # 6^8 > 1e6

    def test_infeasible_capacity(self):
        chain, devices, links = uniform_instance()
        tiny = [
            DeviceProfile(d.id, d.compute_rate, 1.0, d.channel_gain, d.tx_power)
            for d in devices
        ]
        res = solve_exact(chain, tiny, links)
        assert not res.feasible
        assert res.placement is None


class TestLocalSearch:
    def test_dominant_device_matches_exact(self):
        chain = CotChain(tuple(CotStep(1e9, 1e4) for _ in range(4)))
        devices = [
            DeviceProfile("big", 1e10, 1e12, 1.0, 0.5),
            DeviceProfile("tiny", 1e8, 1e12, 1.0, 0.5),
        ]
        links = np.full((2, 2), 1e6)
        np.fill_diagonal(links, 0.0)
        exact = solve_exact(chain, devices, links)
        ls = solve_local_search(chain, devices, links, seed=0, iters=10)
        assert ls.placement.assignment == exact.placement.assignment
        assert ls.cost == pytest.approx(exact.cost, abs=1e-12)

    def test_iters_one_is_greedy_oracle(self):
        for seed in range(8):
            chain, devices, links, shard = make_random_instance(seed, 5, 4)
            got = solve_local_search(chain, devices, links, seed=7, iters=1, shard_bytes=shard)
            # independent greedy: step by step, best marginal cost, capacity aware
            mem = step_memory(chain, shard)
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
                        c += chain.steps[s - 1].handoff_size / links[assignment[-1], d]
                    if c < best_c:
                        best_c, best_d = c, d
                assignment.append(best_d)
                loads[best_d] += mem[s]
            assert got.placement.assignment == tuple(assignment)

    def test_never_beats_exact_and_is_feasible(self):
        for seed in range(15):
            chain, devices, links, shard = make_random_instance(100 + seed, 4, 4)
            exact = solve_exact(chain, devices, links, shard)
            ls = solve_local_search(chain, devices, links, seed=seed, iters=10, shard_bytes=shard)
            validate_placement(chain, ls.placement, devices, shard)
            assert exact.cost <= ls.cost + 1e-12

    def test_deterministic_per_seed(self):
        chain, devices, links, shard = make_random_instance(5, 5, 5)
        a = solve_local_search(chain, devices, links, seed=3, iters=10, shard_bytes=shard)
        b = solve_local_search(chain, devices, links, seed=3, iters=10, shard_bytes=shard)
        assert a.placement.assignment == b.placement.assignment
        assert a.cost == b.cost

    def test_infeasible_start(self):
        chain, devices, links = uniform_instance()
        tiny = [
            DeviceProfile(d.id, d.compute_rate, 1.0, d.channel_gain, d.tx_power)
            for d in devices
        ]
        res = solve_local_search(chain, tiny, links, seed=0, iters=3)
        assert not res.feasible


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


class TestLinkRates:
    def test_gain_matrix_shape_checked(self):
        devices = [DeviceProfile("a", 1e9, 1e9, 1.0, 0.5)]
        with pytest.raises(PlacementError):
            link_rates_from_gains(devices, [[1.0, 2.0]], 1e6, 1e-9)

    def test_diagonal_unused(self):
        chain, devices, links = uniform_instance(n_steps=2, n_devices=2)
        links = links.copy()
        links[0, 0] = 0.0  # never read for co-located steps
        cost = placement_cost(chain, Placement((0, 0), 2), devices, links)
        assert math.isfinite(cost)
