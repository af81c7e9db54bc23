"""Federated fine-tuning: rank projection, aggregation, gradients, selection."""

import itertools
import math

import numpy as np
import pytest

from edgelam_sim.errors import RankError, ShapeError
from edgelam_sim.fedft import (
    FrozenBase,
    LoraAdapter,
    aggregate_hetero,
    fedft_round,
    global_loss,
    lora_sgd_step,
    make_synthetic_task,
    mse_loss,
    run_fedft,
    select_devices_and_bandwidth,
    solve_round_selection,
    _min_bandwidth,
    _subset_min_latency,
    truncate,
    zero_pad,
)
from edgelam_sim.netsim import DeviceProfile, comm_latency, shannon_rate


def random_adapter(rng, d, k, r):
    return LoraAdapter(rng.standard_normal((d, r)), rng.standard_normal((r, k)))


class TestZeroPadTruncate:
    def test_pad_to_same_rank_is_noop(self):
        rng = np.random.default_rng(0)
        a = random_adapter(rng, 3, 4, 2)
        assert zero_pad(a, 2) is a

    def test_hand_example(self):
        a = LoraAdapter([[1.0], [2.0]], [[3.0, 4.0]])
        p = zero_pad(a, 2)
        assert np.array_equal(p.A, [[1.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(p.B, [[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(p.delta(), a.delta())

    def test_pad_preserves_product_exactly(self):
        rng = np.random.default_rng(1)
        a = random_adapter(rng, 4, 3, 1)
        assert np.linalg.norm(a.delta() - zero_pad(a, 3).delta()) == 0.0

    def test_pad_below_rank_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(RankError):
            zero_pad(random_adapter(rng, 3, 3, 2), 1)

    def test_truncate_slicing_oracle(self):
        rng = np.random.default_rng(3)
        a = random_adapter(rng, 5, 4, 2)
        t = truncate(a, 1)
        assert np.array_equal(t.A, a.A[:, :1])
        assert np.array_equal(t.B, a.B[:1, :])

    def test_truncate_noop_and_errors(self):
        rng = np.random.default_rng(4)
        a = random_adapter(rng, 3, 3, 3)
        assert truncate(a, 3) is a
        with pytest.raises(RankError):
            truncate(a, 0)
        with pytest.raises(RankError):
            truncate(random_adapter(rng, 4, 4, 2), 3)

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d, k = rng.integers(2, 7, size=2)
            r = int(rng.integers(1, min(d, k) + 1))
            a = random_adapter(rng, d, k, r)
            for extra in range(0, min(d, k) - r + 1):
                back = truncate(zero_pad(a, r + extra), r)
                assert np.array_equal(back.A, a.A)
                assert np.array_equal(back.B, a.B)


class TestAggregate:
    def test_single_adapter_identity(self):
        rng = np.random.default_rng(6)
        a = random_adapter(rng, 4, 3, 2)
        out = aggregate_hetero([a], [1.0])
        assert np.array_equal(out.A, a.A)
        assert np.array_equal(out.B, a.B)

    def test_equal_rank_matches_entrywise_mean_oracle(self):
        rng = np.random.default_rng(7)
        adapters = [random_adapter(rng, 4, 5, 2) for _ in range(3)]
        out = aggregate_hetero(adapters, [1 / 3] * 3)
        mean_a = np.zeros((4, 2))
        mean_b = np.zeros((2, 5))
        for ad in adapters:
            for i in range(4):
                for j in range(2):
                    mean_a[i, j] += ad.A[i, j] / 3
            for i in range(2):
                for j in range(5):
                    mean_b[i, j] += ad.B[i, j] / 3
        assert np.max(np.abs(out.A - mean_a)) <= 1e-12
        assert np.max(np.abs(out.B - mean_b)) <= 1e-12

    def test_hetero_ranks_manual_padding_oracle(self):
        rng = np.random.default_rng(8)
        a1 = random_adapter(rng, 3, 4, 1)
        a2 = random_adapter(rng, 3, 4, 2)
        out = aggregate_hetero([a1, a2], [0.5, 0.5])
        assert out.rank == 2
        # padded entries of the rank-1 input contribute zeros
        assert np.max(np.abs(out.A[:, 1] - 0.5 * a2.A[:, 1])) <= 1e-12
        assert np.max(np.abs(out.B[1, :] - 0.5 * a2.B[1, :])) <= 1e-12
        assert np.max(np.abs(out.A[:, 0] - 0.5 * (a1.A[:, 0] + a2.A[:, 0]))) <= 1e-12

    def test_factor_averaging_bias_is_real_and_measured(self):
        # averaging factors is not averaging products; the scheme's bias
        # must show up on generic inputs rather than be hidden
        rng = np.random.default_rng(9)
        a1 = random_adapter(rng, 3, 3, 2)
        a2 = random_adapter(rng, 3, 3, 2)
        agg = aggregate_hetero([a1, a2], [0.5, 0.5])
        mean_product = 0.5 * (a1.delta() + a2.delta())
        assert np.linalg.norm(agg.delta() - mean_product) > 1e-3

    def test_input_validation(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            aggregate_hetero([], [])
        a = random_adapter(rng, 3, 3, 1)
        with pytest.raises(ValueError):
            aggregate_hetero([a, a], [0.7, 0.7])
        with pytest.raises(ShapeError):
            aggregate_hetero([a, random_adapter(rng, 4, 3, 1)], [0.5, 0.5])


class TestLoraSgdStep:
    def test_lr_zero_unchanged(self):
        rng = np.random.default_rng(11)
        base = FrozenBase(rng.standard_normal((3, 4)))
        a = random_adapter(rng, 3, 4, 2)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 3))
        out = lora_sgd_step(base, a, x, y, 0.0)
        assert np.array_equal(out.A, a.A)
        assert np.array_equal(out.B, a.B)

    def test_stationary_at_perfect_fit(self):
        rng = np.random.default_rng(12)
        base = FrozenBase(rng.standard_normal((3, 4)))
        a = random_adapter(rng, 3, 4, 2)
        x = rng.standard_normal((6, 4))
        y = x @ (base.W0 + a.delta()).T
        out = lora_sgd_step(base, a, x, y, 0.5)
        assert np.max(np.abs(out.A - a.A)) <= 1e-12
        assert np.max(np.abs(out.B - a.B)) <= 1e-12

    def test_one_dimensional_analytic_case(self):
        # W0=0, A=B=[[1]], x=1, y=0, lr=0.1: dA = dB = 2 -> both become 0.8
        base = FrozenBase([[0.0]])
        a = LoraAdapter([[1.0]], [[1.0]])
        out = lora_sgd_step(base, a, [[1.0]], [[0.0]], 0.1)
        assert out.A[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert out.B[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(20):
            d, k = rng.integers(2, 5, size=2)
            r = int(rng.integers(1, min(d, k) + 1))
            base = FrozenBase(rng.standard_normal((d, k)))
            adapter = random_adapter(rng, d, k, r)
            x = rng.standard_normal((4, k))
            y = rng.standard_normal((4, d))
            lr = 1e-3
            stepped = lora_sgd_step(base, adapter, x, y, lr)
            grad_a = (adapter.A - stepped.A) / lr
            grad_b = (adapter.B - stepped.B) / lr
            for idx in np.ndindex(d, r):
                up = adapter.A.copy()
                down = adapter.A.copy()
                up[idx] += h
                down[idx] -= h
                fd = (
                    mse_loss(base, LoraAdapter(up, adapter.B), x, y)
                    - mse_loss(base, LoraAdapter(down, adapter.B), x, y)
                ) / (2 * h)
                assert grad_a[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)
            for idx in np.ndindex(r, k):
                up = adapter.B.copy()
                down = adapter.B.copy()
                up[idx] += h
                down[idx] -= h
                fd = (
                    mse_loss(base, LoraAdapter(adapter.A, up), x, y)
                    - mse_loss(base, LoraAdapter(adapter.A, down), x, y)
                ) / (2 * h)
                assert grad_b[idx] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def make_devices(specs):
    return [
        DeviceProfile(dev_id, rate, 1e9, gain, power, rank)
        for dev_id, rate, gain, power, rank in specs
    ]


def exhaustive_selection(profiles, total_bandwidth, upload_bits, local_flops,
                         deadline, noise_density):
    """Oracle: solve every subset, largest size first, keyed on (-size, latency, ids).

    Returns (ids, latency, bandwidth) of the winner, or None when no subset
    meets the deadline.
    """
    best = None
    order = sorted(profiles, key=lambda p: p.id)
    for size in range(len(order), 0, -1):
        for combo in itertools.combinations(order, size):
            latency, alloc = _subset_min_latency(
                list(combo), total_bandwidth, upload_bits, local_flops, noise_density
            )
            if latency > deadline:
                continue
            key = (-size, latency, tuple(p.id for p in combo))
            if best is None or key < best[0]:
                best = (key, alloc)
        if best is not None:
            return best[0][2], best[0][1], best[1]
    return None


def random_selection_instance(rng, deadline, n0):
    """Devices, bits and flops drawn with the cases that make selection subtle.

    Identical copies of one device (ties), a zero-upload device that misses
    the deadline on compute, a dead channel, compute stragglers, and a band
    that carries only the k < N devices cheapest at the deadline.
    """
    n = int(rng.integers(1, 9))
    devs, bits, flops = [], {}, {}
    template = None
    for i in range(n):
        dev_id = f"d{i}"
        if template is not None and rng.random() < 0.3:
            rate, gain, power, b, f = template
        else:
            rate = float(rng.uniform(5e8, 3e9))
            gain = float(rng.uniform(0.2, 2.0))
            power = float(rng.uniform(0.1, 1.0))
            b = float(rng.uniform(1e5, 3e6))
            f = float(rng.uniform(1e8, 2e9))
            template = (rate, gain, power, b, f)
        roll = rng.random()
        if roll < 0.05:
            gain = 0.0  # dead channel
        elif roll < 0.1:
            f = rate * deadline * float(rng.uniform(1.2, 3.0))  # straggler
        elif roll < 0.14:
            b, f = 0.0, rate * deadline * 1.5  # nothing to send, misses anyway
        devs.append(DeviceProfile(dev_id, rate, 1e9, gain, power, 1))
        bits[dev_id], flops[dev_id] = b, f
    need = sorted(
        _min_bandwidth(bits[d.id], d.channel_gain, d.tx_power, n0,
                       deadline - flops[d.id] / d.compute_rate, 1e12)
        for d in devs
    )
    finite = [b for b in need if math.isfinite(b)]
    # the band carries one device fewer than could make the deadline; every
    # size below N multiplies the subsets the oracle solves, so keep it close
    k = len(finite) - 1
    if k > 0 and finite[k] > 0.0 and rng.random() < 0.5:
        band = sum(finite[:k]) + float(rng.uniform(0.05, 0.95)) * finite[k]
    else:
        band = float(rng.uniform(5e5, 5e6))
    return devs, band, bits, flops


class TestSelection:
    N0 = 1e-9

    def test_single_device_gets_whole_band(self):
        devs = make_devices([("a", 1e9, 1.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6}, {"a": 1e9}, deadline=10.0, noise_density=self.N0
        )
        assert res.selected == ("a",)
        assert res.allocation.bandwidth["a"] == pytest.approx(1e6, rel=1e-9)
        rate = shannon_rate(res.allocation.bandwidth["a"], 1.0, 0.5, self.N0)
        assert res.round_latency == pytest.approx(1.0 + comm_latency(1e6, rate), abs=1e-9)

    def test_identical_devices_symmetric_split(self):
        devs = make_devices([("a", 1e9, 1.0, 0.5, 1), ("b", 1e9, 1.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6, "b": 1e6}, {"a": 1e9, "b": 1e9}, 10.0, self.N0
        )
        assert res.selected == ("a", "b")
        ba = res.allocation.bandwidth["a"]
        bb = res.allocation.bandwidth["b"]
        assert abs(ba - bb) / ba <= 1e-6

    def test_three_devices_match_grid_search_oracle(self):
        devs = make_devices(
            [("a", 2e9, 1.2, 0.4, 1), ("b", 1e9, 0.6, 0.8, 1), ("c", 0.5e9, 2.0, 0.2, 1)]
        )
        bits = {"a": 2e6, "b": 1e6, "c": 3e6}
        flops = {"a": 1e9, "b": 2e9, "c": 0.5e9}
        b_total = 2e6
        res = select_devices_and_bandwidth(devs, b_total, bits, flops, 60.0, self.N0)
        assert set(res.selected) == {"a", "b", "c"}
        comp = {d.id: flops[d.id] / d.compute_rate for d in devs}
        step = b_total / 200
        best = math.inf
        for i in range(201):
            for j in range(201 - i):
                k = 200 - i - j
                alloc = {"a": i * step, "b": j * step, "c": k * step}
                lat = max(
                    comp[d.id]
                    + comm_latency(
                        bits[d.id],
                        shannon_rate(alloc[d.id], d.channel_gain, d.tx_power, self.N0),
                    )
                    for d in devs
                )
                best = min(best, lat)
        assert res.round_latency <= best * 1.01
        assert abs(res.round_latency - best) / best <= 0.01

    def test_budget_and_latency_attainment_invariants(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            n = int(rng.integers(1, 5))
            devs = [
                DeviceProfile(
                    f"d{i}", float(rng.uniform(5e8, 3e9)), 1e9,
                    float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.1, 1.0)), 1,
                )
                for i in range(n)
            ]
            bits = {d.id: float(rng.uniform(1e5, 3e6)) for d in devs}
            flops = {d.id: float(rng.uniform(1e8, 2e9)) for d in devs}
            b_total = float(rng.uniform(5e5, 5e6))
            res = select_devices_and_bandwidth(devs, b_total, bits, flops, 1e4, self.N0)
            assert res.feasible
            assert sum(res.allocation.bandwidth.values()) <= b_total
            attained = max(
                flops[d.id] / d.compute_rate
                + comm_latency(
                    bits[d.id],
                    shannon_rate(
                        res.allocation.bandwidth[d.id], d.channel_gain, d.tx_power, self.N0
                    ),
                )
                for d in devs
                if d.id in res.selected
            )
            assert abs(attained - res.round_latency) <= 1e-9

    def test_deadline_prunes_devices(self):
        # device b can never upload in time; a alone must win
        devs = make_devices([("a", 2e9, 2.0, 1.0, 1), ("b", 1e5, 1.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e5, "b": 1e5}, {"a": 1e9, "b": 1e9}, 2.0, self.N0
        )
        assert res.selected == ("a",)

    def test_infeasible_returns_result_not_error(self):
        devs = make_devices([("a", 1e9, 0.0, 0.5, 1)])  # dead channel
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6}, {"a": 1e9}, 10.0, self.N0
        )
        assert not res.feasible
        assert res.selected == ()
        assert math.isinf(res.round_latency)

    def test_dead_channel_never_joins_even_without_deadline(self):
        # with no deadline any device needs only a vanishing bandwidth, save
        # one whose channel carries nothing
        devs = make_devices([("a", 1e9, 1.0, 0.5, 1), ("b", 1e9, 0.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6, "b": 1e6}, {"a": 1e9, "b": 1e9}, math.inf, self.N0
        )
        assert res.selected == ("a",)
        assert math.isfinite(res.round_latency)

    def test_matches_exhaustive_oracle_exactly(self):
        deadline = 10.0
        rng = np.random.default_rng(5)
        seen = dict.fromkeys(
            ["tie_split", "zero_upload_late", "dead_channel", "straggler", "short_band",
             "infeasible"], 0)
        for _ in range(100):
            devs, band, bits, flops = random_selection_instance(rng, deadline, self.N0)
            res = select_devices_and_bandwidth(devs, band, bits, flops, deadline, self.N0)
            oracle = exhaustive_selection(devs, band, bits, flops, deadline, self.N0)
            if oracle is None:
                seen["infeasible"] += 1
                assert not res.feasible and res.selected == ()
                continue
            ids, latency, alloc = oracle
            assert res.feasible
            assert res.selected == ids
            assert res.round_latency == latency
            assert res.allocation.bandwidth == alloc
            late = {d.id for d in devs if flops[d.id] / d.compute_rate > deadline}
            dead = {d.id for d in devs if d.channel_gain * d.tx_power == 0.0}
            params = {}
            for d in devs:
                key = (d.compute_rate, d.channel_gain, d.tx_power, bits[d.id], flops[d.id])
                params.setdefault(key, set()).add(d.id in ids)
            seen["tie_split"] += any(len(picked) == 2 for picked in params.values())
            seen["zero_upload_late"] += any(bits[i] == 0.0 for i in late)
            seen["dead_channel"] += bool(dead)
            seen["straggler"] += any(bits[i] > 0.0 for i in late)
            seen["short_band"] += len(ids) < len({d.id for d in devs} - late - dead)
        assert min(seen.values()) >= 3, seen

    def test_forty_devices_solved_exactly(self):
        # same compute and upload, distinct gains: a better channel needs less
        # bandwidth at every latency, so the ranking never changes with tau
        # and the fastest k-subset is the k cheapest at the deadline
        deadline = 2.0
        devs = make_devices(
            [(f"d{i:02d}", 1e9, 0.3 + 0.05 * ((7 * i) % 40), 0.5, 1) for i in range(40)]
        )
        bits = {d.id: 1e6 for d in devs}
        flops = {d.id: 1e9 for d in devs}
        need = sorted(
            (_min_bandwidth(1e6, d.channel_gain, d.tx_power, self.N0, 1.0, 1e12), d.id)
            for d in devs
        )
        band = sum(b for b, _ in need[:25]) + 0.5 * need[25][0]
        res = select_devices_and_bandwidth(devs, band, bits, flops, deadline, self.N0)
        assert res.feasible
        assert res.selected == tuple(sorted(dev_id for _, dev_id in need[:25]))
        assert sum(res.allocation.bandwidth.values()) <= band
        assert res.round_latency <= deadline
        attained = max(
            1.0 + comm_latency(1e6, shannon_rate(res.allocation.bandwidth[d.id],
                                                 d.channel_gain, d.tx_power, self.N0))
            for d in devs if d.id in res.selected
        )
        assert attained == pytest.approx(res.round_latency, abs=1e-9)


def hetero_state(seed=42, noise=0.01):
    ranks = [1, 1, 2, 2, 4, 4]
    devices = [DeviceProfile(f"d{i}", 1e9, 1e9, 1.0, 0.5, r) for i, r in enumerate(ranks)]
    state = make_synthetic_task(
        seed, devices, feature_dim=8, output_dim=6, true_rank=1,
        samples_per_device={d.id: 32 for d in devices}, noise_std=noise,
    )
    return devices, state


class TestFedFtRound:
    def test_single_device_round_equals_local_sgd(self):
        dev = DeviceProfile("a", 1e9, 1e9, 1.0, 0.5, 2)
        state = make_synthetic_task(
            7, [dev], feature_dim=5, output_dim=4, true_rank=2,
            samples_per_device={"a": 16}, noise_std=0.0,
        )
        before = state.device_adapters["a"]
        x, y = state.datasets["a"]
        expected = lora_sgd_step(state.base, before, x, y, 0.1)
        state, record = fedft_round(state, [dev], 1e6, 100.0, 0.1, 1e-9)
        assert record.selected == ("a",)
        assert np.max(np.abs(state.global_adapter.A - expected.A)) <= 1e-12
        assert np.max(np.abs(state.global_adapter.B - expected.B)) <= 1e-12
        assert np.max(np.abs(state.device_adapters["a"].A - expected.A)) <= 1e-12

    def test_identical_devices_equal_centralized_oracle(self):
        # same data and rank on every device: the round is one SGD step
        devices = [DeviceProfile(f"d{i}", 1e9, 1e9, 1.0, 0.5, 2) for i in range(3)]
        state = make_synthetic_task(
            11, devices, feature_dim=5, output_dim=4, true_rank=2,
            samples_per_device={d.id: 20 for d in devices}, noise_std=0.0,
        )
        shared_x, shared_y = state.datasets["d0"]
        shared_adapter = state.device_adapters["d0"]
        for dev in state.datasets:
            state.datasets[dev] = (shared_x.copy(), shared_y.copy())
            state.device_adapters[dev] = shared_adapter
        single = lora_sgd_step(state.base, shared_adapter, shared_x, shared_y, 0.1)
        central = mse_loss(state.base, single, shared_x, shared_y)
        state, record = fedft_round(state, devices, 1e6, 100.0, 0.1, 1e-9)
        assert record.selected == ("d0", "d1", "d2")
        assert abs(record.global_loss - central) <= 1e-9

    def test_cached_selection_matches_per_round_solve(self):
        devices, state = hetero_state(seed=3)
        sel = solve_round_selection(state, devices, 1e6, 30.0, 1e-9)
        state2 = hetero_state(seed=3)[1]
        s1, r1 = fedft_round(state, devices, 1e6, 30.0, 0.05, 1e-9, selection=sel)
        s2, r2 = fedft_round(state2, devices, 1e6, 30.0, 0.05, 1e-9)
        assert r1.global_loss == r2.global_loss
        assert r1.round_latency == r2.round_latency
        assert r1.bandwidth == r2.bandwidth

    def test_run_converges_on_hetero_ranks(self):
        devices, state = hetero_state()
        initial = global_loss(state)
        records = run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=60)
        assert records[-1].global_loss < 0.1 * initial
        assert all(len(r.selected) == 6 for r in records)
