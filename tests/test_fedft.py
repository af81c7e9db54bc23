"""Federated fine-tuning: rank projection, aggregation, gradients, selection."""

import csv
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from edgelam_sim import fedft, netsim
from edgelam_sim.errors import RankError, SchedulingError, ShapeError
from edgelam_sim.fedft import (
    FedFtState,
    LoraAdapter,
    aggregate_hetero,
    fedft_round,
    global_loss,
    lora_sgd_step,
    make_synthetic_task,
    mse_loss,
    project_rank,
    round_plan,
    run_fedft,
    select_devices_and_bandwidth,
)
from edgelam_sim.netsim import DeviceProfile, comm_latency, shannon_rate
from edgelam_sim.scenarios import load_scenario, run_scenario
from oracles import (
    exhaustive_selection,
    fedft_round_per_device,
    left_sum,
    min_bandwidth,
    nested_selection,
)
from test_scenarios import base_cfg, write_cfg

HETERO = Path(__file__).resolve().parents[1] / "scenarios" / "fedft_hetero.json"


def random_adapter(rng, d, k, r):
    return LoraAdapter(rng.standard_normal((d, r)), rng.standard_normal((r, k)))


class TestZeroPadTruncate:
    """``project_rank`` zero-pads up to a higher rank and truncates down to a lower one."""

    def test_pad_to_same_rank_is_noop(self):
        rng = np.random.default_rng(0)
        a = random_adapter(rng, 3, 4, 2)
        assert project_rank(a, 2) is a

    def test_hand_example(self):
        a = LoraAdapter([[1.0], [2.0]], [[3.0, 4.0]])
        p = project_rank(a, 2)
        assert np.array_equal(p.A, [[1.0, 0.0], [2.0, 0.0]])
        assert np.array_equal(p.B, [[3.0, 4.0], [0.0, 0.0]])
        assert np.array_equal(p.delta(), a.delta())

    def test_pad_preserves_product_exactly(self):
        rng = np.random.default_rng(1)
        a = random_adapter(rng, 4, 3, 1)
        assert np.linalg.norm(a.delta() - project_rank(a, 3).delta()) == 0.0

    def test_truncate_slicing_oracle(self):
        rng = np.random.default_rng(3)
        a = random_adapter(rng, 5, 4, 2)
        t = project_rank(a, 1)
        assert np.array_equal(t.A, a.A[:, :1])
        assert np.array_equal(t.B, a.B[:1, :])

    def test_truncate_noop_and_errors(self):
        rng = np.random.default_rng(4)
        a = random_adapter(rng, 3, 3, 3)
        assert project_rank(a, 3) is a
        for target in (0, -1):
            with pytest.raises(RankError, match="target rank must be >= 1"):
                project_rank(a, target)
        with pytest.raises(RankError):
            project_rank(a, 4)  # above min(d, k)

    @pytest.mark.parametrize("rank, target", [(1, 3), (2, 4), (3, 1), (4, 2), (2, 2)],
                             ids=["pad-1-3", "pad-2-4", "truncate-3-1", "truncate-4-2", "same"])
    def test_bits_match_zero_fill_and_slice_copy(self, rank, target):
        # padding writes the factors into zeros; truncating keeps a
        # contiguous copy of the leading slice, -0.0 entries included
        rng = np.random.default_rng(6 + rank + target)
        a = random_adapter(rng, 5, 6, rank)
        a.A[0, 0], a.B[0, 0] = -0.0, -0.0
        got = project_rank(a, target)
        if target > rank:
            want_a, want_b = np.zeros((5, target)), np.zeros((target, 6))
            want_a[:, :rank], want_b[:rank] = a.A, a.B
        else:
            want_a = np.ascontiguousarray(a.A[:, :target])
            want_b = np.ascontiguousarray(a.B[:target])
        assert got.A.flags.c_contiguous and got.B.flags.c_contiguous
        assert got.A.tobytes() == want_a.tobytes()
        assert got.B.tobytes() == want_b.tobytes()

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            d, k = rng.integers(2, 7, size=2)
            r = int(rng.integers(1, min(d, k) + 1))
            a = random_adapter(rng, d, k, r)
            for extra in range(0, min(d, k) - r + 1):
                back = project_rank(project_rank(a, r + extra), r)
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

    def test_matches_average_of_padded_copies_bitwise(self):
        # the reference pads each adapter to the max rank before adding it;
        # zero weights and negative entries put -0.0 terms into the sums
        rng = np.random.default_rng(11)
        adapters = [random_adapter(rng, 5, 4, r) for r in (3, 1, 2, 3, 1)]
        for weights in ([0.2] * 5, [0.0, 0.5, 0.0, 0.25, 0.25], [0.0, 0.0, 1.0, 0.0, 0.0]):
            out = aggregate_hetero(adapters, weights)
            a_ref, b_ref = np.zeros((5, 3)), np.zeros((3, 4))
            for wi, ad in zip(np.asarray(weights), adapters):
                padded = project_rank(ad, 3)
                a_ref += wi * padded.A
                b_ref += wi * padded.B
            assert out.A.tobytes() == a_ref.tobytes()
            assert out.B.tobytes() == b_ref.tobytes()

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
        base = rng.standard_normal((3, 4))
        a = random_adapter(rng, 3, 4, 2)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 3))
        out = lora_sgd_step(base, a, x, y, 0.0)
        assert np.array_equal(out.A, a.A)
        assert np.array_equal(out.B, a.B)

    def test_stationary_at_perfect_fit(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((3, 4))
        a = random_adapter(rng, 3, 4, 2)
        x = rng.standard_normal((6, 4))
        y = x @ (base + a.delta()).T
        out = lora_sgd_step(base, a, x, y, 0.5)
        assert np.max(np.abs(out.A - a.A)) <= 1e-12
        assert np.max(np.abs(out.B - a.B)) <= 1e-12

    def test_one_dimensional_analytic_case(self):
        # W0=0, A=B=[[1]], x=1, y=0, lr=0.1: dA = dB = 2 -> both become 0.8
        base = np.zeros((1, 1))
        a = LoraAdapter([[1.0]], [[1.0]])
        out = lora_sgd_step(base, a, np.ones((1, 1)), np.zeros((1, 1)), 0.1)
        assert out.A[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert out.B[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(20):
            d, k = rng.integers(2, 5, size=2)
            r = int(rng.integers(1, min(d, k) + 1))
            base = rng.standard_normal((d, k))
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

    def test_stacked_step_is_each_slice_s_2d_step(self):
        # n datasets step as one call, from a shared adapter or a stack of
        # n; each slice is the 2-D call on it bit for bit
        rng = np.random.default_rng(14)
        for _ in range(60):
            d, k = (int(v) for v in rng.integers(1, 7, size=2))
            r = int(rng.integers(1, min(d, k) + 1))
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            base = rng.standard_normal((d, k))
            x, y = rng.standard_normal((n, m, k)), rng.standard_normal((n, m, d))
            shared = random_adapter(rng, d, k, r)
            own = [random_adapter(rng, d, k, r) for _ in range(n)]
            stack = LoraAdapter(np.stack([a.A for a in own]), np.stack([a.B for a in own]))
            assert (stack.d, stack.k, stack.rank) == (d, k, r)
            for start, per_slice in ((shared, [shared] * n), (stack, own)):
                out = lora_sgd_step(base, start, x, y, 0.1)
                assert out.A.shape == (n, d, r) and out.B.shape == (n, r, k)
                for i, a in enumerate(per_slice):
                    want = lora_sgd_step(base, a, x[i], y[i], 0.1)
                    assert out.A[i].tobytes() == want.A.tobytes()
                    assert out.B[i].tobytes() == want.B.tobytes()


def make_devices(specs):
    return [
        DeviceProfile(dev_id, rate, 1e9, gain, power, rank)
        for dev_id, rate, gain, power, rank in specs
    ]


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
        min_bandwidth(bits[d.id], d.channel_gain, d.tx_power, n0,
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
        assert res.bandwidth["a"] == pytest.approx(1e6, rel=1e-9)
        rate = shannon_rate(res.bandwidth["a"], 1.0, 0.5, self.N0)
        assert res.round_latency == pytest.approx(1.0 + comm_latency(1e6, rate), abs=1e-9)

    def test_identical_devices_symmetric_split(self):
        devs = make_devices([("a", 1e9, 1.0, 0.5, 1), ("b", 1e9, 1.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6, "b": 1e6}, {"a": 1e9, "b": 1e9}, 10.0, self.N0
        )
        assert res.selected == ("a", "b")
        ba = res.bandwidth["a"]
        bb = res.bandwidth["b"]
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
            assert left_sum(res.bandwidth.values()) <= b_total
            attained = max(
                flops[d.id] / d.compute_rate
                + comm_latency(
                    bits[d.id],
                    shannon_rate(
                        res.bandwidth[d.id], d.channel_gain, d.tx_power, self.N0
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

    def test_infeasible_raises_scheduling_error(self):
        devs = make_devices([("a", 1e9, 0.0, 0.5, 1)])  # dead channel
        with pytest.raises(SchedulingError, match="no device subset meets the deadline"):
            select_devices_and_bandwidth(devs, 1e6, {"a": 1e6}, {"a": 1e9}, 10.0, self.N0)

    def test_dead_channel_never_joins_even_without_deadline(self):
        # with no deadline any device needs only a vanishing bandwidth, save
        # one whose channel carries nothing
        devs = make_devices([("a", 1e9, 1.0, 0.5, 1), ("b", 1e9, 0.0, 0.5, 1)])
        res = select_devices_and_bandwidth(
            devs, 1e6, {"a": 1e6, "b": 1e6}, {"a": 1e9, "b": 1e9}, math.inf, self.N0
        )
        assert res.selected == ("a",)
        assert math.isfinite(res.round_latency)

    def test_matches_exhaustive_oracle(self):
        # the oracle bisects each subset's latency on its own, so latency and
        # split agree with it to rounding; the chosen ids, the band and the
        # slowest device's finish time hold exactly
        deadline = 10.0
        rng = np.random.default_rng(5)
        seen = dict.fromkeys(
            ["tie_split", "zero_upload_late", "dead_channel", "straggler", "short_band",
             "infeasible"], 0)
        for _ in range(100):
            devs, band, bits, flops = random_selection_instance(rng, deadline, self.N0)
            oracle = exhaustive_selection(devs, band, bits, flops, deadline, self.N0)
            if oracle is None:
                seen["infeasible"] += 1
                with pytest.raises(SchedulingError, match="no device subset meets the deadline"):
                    select_devices_and_bandwidth(devs, band, bits, flops, deadline, self.N0)
                continue
            res = select_devices_and_bandwidth(devs, band, bits, flops, deadline, self.N0)
            assert type(res.round_latency) is float
            ids, latency, alloc = oracle
            assert res.selected == ids
            assert res.round_latency == pytest.approx(latency, rel=1e-12)
            split = res.bandwidth
            assert list(split) == list(alloc)
            for dev, b in alloc.items():
                assert type(split[dev]) is float
                assert split[dev] == pytest.approx(b, rel=1e-12)
            assert left_sum(split.values()) <= band
            finish = [
                flops[d.id] / d.compute_rate
                + comm_latency(bits[d.id], shannon_rate(split[d.id], d.channel_gain,
                                                        d.tx_power, self.N0))
                for d in devs if d.id in ids
            ]
            assert max(finish) == res.round_latency
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
            (min_bandwidth(1e6, d.channel_gain, d.tx_power, self.N0, 1.0, 1e12), d.id)
            for d in devs
        )
        band = sum(b for b, _ in need[:25]) + 0.5 * need[25][0]
        res = select_devices_and_bandwidth(devs, band, bits, flops, deadline, self.N0)
        assert res.selected == tuple(sorted(dev_id for _, dev_id in need[:25]))
        assert left_sum(res.bandwidth.values()) <= band
        assert res.round_latency <= deadline
        attained = max(
            1.0 + comm_latency(1e6, shannon_rate(res.bandwidth[d.id],
                                                 d.channel_gain, d.tx_power, self.N0))
            for d in devs if d.id in res.selected
        )
        assert attained == pytest.approx(res.round_latency, abs=1e-9)


def hetero_selection_inputs():
    """The shipped fedft_hetero run's selection inputs, as ``run_fedft`` hands them over."""
    scenario = load_scenario(HETERO)
    devices, task, train = (scenario.spec[key] for key in ("devices", "task", "train"))
    state = make_synthetic_task(scenario.seed, devices, **task)
    seen = []

    def recorded(*args):
        seen.append(args)
        return select_devices_and_bandwidth(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fedft, "select_devices_and_bandwidth", recorded)
        run_fedft(state, devices, **dict(train, rounds=0))
    [args] = seen
    return args


def edge_case_instance(rng):
    """A small selection instance with the inputs the bisection's rate must get right.

    Regimes: an ordinary band; a band so narrow (1e-300 Hz, bits to match)
    that every rate is taken in logs; and a subnormal noise density, where
    the small bisection midpoints overflow the SNR and the large ones do
    not.  Devices may have integer gains, dead channels, nothing to upload
    (late or on time) and too much compute; the deadline may be infinite.
    """
    regime = int(rng.integers(3))
    n0, band, bit_scale = [
        (1e-9, float(rng.uniform(5e5, 5e6)), 1e6),
        (1e-9, float(rng.uniform(1.0, 10.0)) * 1e-300, 1e-297),
        (1e-310, float(rng.uniform(1e3, 1e5)), 1e6),
    ][regime]
    # an infinite deadline searches tau from the largest float
    deadline = [2.0, 10.0, 2.0, 10.0, math.inf][int(rng.integers(5))]
    n = int(rng.integers(1, 3 if deadline == math.inf else 6))
    devs, bits, flops = [], {}, {}
    for i in range(n):
        rate = float(rng.uniform(5e8, 3e9))
        gain = int(rng.integers(1, 4)) if rng.random() < 0.3 else float(rng.uniform(0.2, 2.0))
        b = float(rng.uniform(0.1, 3.0)) * bit_scale
        f = float(rng.uniform(1e8, 2e9))
        roll = rng.random()
        if roll < 0.1:
            gain = 0.0  # dead channel
        elif roll < 0.2:
            b = 0.0  # nothing to send: late or on time
            f = rate * float(rng.uniform(0.5, 1.5)) * min(deadline, 10.0)
        elif roll < 0.25:
            f = rate * 3.0 * min(deadline, 10.0)  # straggler unless no deadline
        devs.append(DeviceProfile(f"d{i}", rate, 1e9, gain, float(rng.uniform(0.1, 1.0)), 1))
        bits[f"d{i}"], flops[f"d{i}"] = b, f
    return devs, band, bits, flops, deadline, n0


def selection_bits(ids, bandwidth, latency):
    return ids, [(dev, type(b), float(b).hex()) for dev, b in bandwidth.items()], \
        type(latency), float(latency).hex()


def oracle_checked_selection(args):
    """The selection for ``args``, asserted equal to ``nested_selection``'s on
    ``float.hex``; None where both raise the same ``SchedulingError``."""
    try:
        want = selection_bits(*nested_selection(*args))
    except SchedulingError as exc:
        with pytest.raises(SchedulingError) as got:
            select_devices_and_bandwidth(*args)
        assert str(got.value) == str(exc)
        return None
    res = select_devices_and_bandwidth(*args)
    assert selection_bits(res.selected, res.bandwidth, res.round_latency) == want
    return res


def neumaier_sum(values, start=0):
    """``sum`` over floats as Python 3.12 computes it: Neumaier-compensated."""
    total, c = float(start), 0.0
    for x in values:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


class TestSelectionInlineRates:
    N0 = 1e-9

    def test_matches_nested_shannon_rate_oracle_bit_for_bit(self):
        rng = np.random.default_rng(25)
        seen = dict.fromkeys(
            ["no_deadline", "zero_upload_late", "zero_upload_on_time", "dead_channel",
             "int_gain", "log_branch", "infeasible"], 0)
        for _ in range(120):
            args = edge_case_instance(rng)
            devs, band, bits, flops, deadline, n0 = args
            res = oracle_checked_selection(args)
            if res is None:
                seen["infeasible"] += 1
                continue
            comp = {d.id: flops[d.id] / d.compute_rate for d in devs}
            seen["no_deadline"] += deadline == math.inf
            seen["zero_upload_late"] += any(
                bits[i] == 0.0 and comp[i] > deadline for i in bits)
            seen["zero_upload_on_time"] += any(
                bits[i] == 0.0 and comp[i] <= deadline for i in bits)
            seen["dead_channel"] += any(d.channel_gain == 0.0 for d in devs)
            seen["int_gain"] += any(type(d.channel_gain) is int for d in devs)
            seen["log_branch"] += any(
                n0 * b == 0.0 or d.channel_gain * d.tx_power / (n0 * b) == math.inf
                for d in devs for dev, b in res.bandwidth.items() if dev == d.id and b > 0.0)
        assert min(seen.values()) >= 3, seen

    def test_matches_oracle_at_subnormal_and_huge_taus(self):
        # the selection searches tau on float bit patterns and the oracle
        # halves it arithmetically; both must end at the same float where
        # every time is subnormal, and where a 1e300 deadline leaves the
        # oracle about 1,000 halvings
        rng = np.random.default_rng(28)
        seen = dict.fromkeys(["subnormal_latency", "huge_deadline", "infeasible"], 0)
        for i in range(100):
            n0 = [1e-9, 1e-12, 5e-324][int(rng.integers(3))]
            devs, band, bits, flops = random_selection_instance(rng, 2.0, n0)
            if i % 12 == 0:
                deadline = 1e300
            else:
                # bits scale with the times, so the rates the band must carry stay
                scale = [1e-309, 1e-315, 1e-320][int(rng.integers(3))]
                bits = {dev: b * scale for dev, b in bits.items()}
                flops = {dev: f * scale for dev, f in flops.items()}
                deadline = 2.0 * scale
            res = oracle_checked_selection((devs, band, bits, flops, deadline, n0))
            if res is None:
                seen["infeasible"] += 1
                continue
            seen["huge_deadline"] += deadline == 1e300
            seen["subnormal_latency"] += 0.0 < res.round_latency < sys.float_info.min
        assert min(seen.values()) >= 3, seen

    def test_sums_are_left_folds(self, monkeypatch):
        # from Python 3.12 builtin sum is compensated; a selection that
        # summed with it would change bits with the interpreter version
        args = hetero_selection_inputs()
        want = select_devices_and_bandwidth(*args)
        monkeypatch.setattr(fedft, "sum", neumaier_sum, raising=False)
        got = select_devices_and_bandwidth(*args)
        assert selection_bits(got.selected, got.bandwidth, got.round_latency) == \
            selection_bits(want.selected, want.bandwidth, want.round_latency)

    def test_min_bandwidth_never_grows_with_tau(self):
        # the tau bisection rests on b_i(tau) and the sum of the k smallest
        # never growing with tau: check both exactly at random taus, at the
        # adjacent float above each, and across each device's compute time
        rng = np.random.default_rng(26)
        for _ in range(40):
            devs, band, bits, flops = random_selection_instance(rng, 10.0, self.N0)
            comp = {d.id: flops[d.id] / d.compute_rate for d in devs}
            ranked = fedft._ranked_needs(devs, bits, comp, self.N0, band)
            lo, hi = min(comp.values()), 1.2 * max(comp.values()) + 1.0
            taus = [float(t) for t in rng.uniform(lo, hi, size=10)]
            taus += list(comp.values())
            taus += [math.nextafter(t, math.inf) for t in taus]
            prev_need, prev_sums = None, None
            for tau in sorted(taus):
                order = ranked(tau)
                need = {dev: b for b, dev in order}
                sums = [left_sum(b for b, _ in order[:k]) for k in range(1, len(order) + 1)]
                if prev_need is not None:
                    assert all(need[dev] <= prev_need[dev] for dev in need)
                    assert all(s <= p for s, p in zip(sums, prev_sums))
                prev_need, prev_sums = need, sums

    def test_shannon_rate_calls_per_selection(self, monkeypatch):
        # one full-band rate per live device and one latency rate per
        # participant; a bandwidth bisection over shannon_rate makes ~10^4
        args = hetero_selection_inputs()
        calls = 0

        def counted(*a):
            nonlocal calls
            calls += 1
            return shannon_rate(*a)

        monkeypatch.setattr(fedft, "shannon_rate", counted)
        monkeypatch.setattr(netsim, "shannon_rate", counted)
        assert len(select_devices_and_bandwidth(*args).selected) == 6
        assert 0 < calls <= 2 * len(args[0])


def test_run_makes_one_shannon_rate_call_per_device_and_participant(monkeypatch):
    # fedft_hetero: each of the 6 devices' rate at the full band, then each
    # participant's rate on its share for the round latency; the downlink
    # reuses the upload times, so there is no third pass
    scenario = load_scenario(HETERO)
    devices, task, train = (scenario.spec[key] for key in ("devices", "task", "train"))
    state = make_synthetic_task(scenario.seed, devices, **task)
    bands = []

    def counted(*a):
        bands.append(a[0])
        return shannon_rate(*a)

    monkeypatch.setattr(fedft, "shannon_rate", counted)
    monkeypatch.setattr(netsim, "shannon_rate", counted)
    selection, _, _ = run_fedft(state, devices, **dict(train, rounds=1))
    assert len(selection.selected) == 6
    assert len(bands) == 12
    assert bands[:6] == [train["total_bandwidth"]] * 6
    assert sorted(bands[6:]) == sorted(selection.bandwidth.values())


class TrialCounter:
    """Counts the selection's ranked(tau) calls, and each k's search with
    the width of its bracket in floats."""

    def __init__(self, monkeypatch):
        self.taus, self.searches = [], []
        make_ranked, search = fedft._ranked_needs, fedft._least_feasible

        def counted_needs(*a):
            ranked = make_ranked(*a)

            def counted(tau):
                self.taus.append(tau)
                return ranked(tau)

            return counted

        def recorded_search(ranked, k, band, lo, hi, at_hi=None):
            before = len(self.taus)
            order = search(ranked, k, band, lo, hi, at_hi)
            self.searches.append((fedft._key(hi) - fedft._key(lo), len(self.taus) - before))
            return order

        monkeypatch.setattr(fedft, "_ranked_needs", counted_needs)
        monkeypatch.setattr(fedft, "_least_feasible", recorded_search)

    def run(self, args):
        self.taus.clear()
        self.searches.clear()
        return select_devices_and_bandwidth(*args)


def search_bound(width):
    """Trials one search may take on a bracket of ``width`` floats: at most
    two in a row leave more than half of it, a bit-pattern midpoint never
    does, and one ranking more is taken when no trial fits."""
    return 3 * (max(width, 1) - 1).bit_length() + 1


class TestLatencySearchSteps:
    """The search's cost in ranked(tau) calls, counted, not timed."""

    @pytest.mark.parametrize("deadline, calls", [(30.0, 13), (1e300, 19), (math.inf, 20)])
    def test_hetero_calls(self, monkeypatch, deadline, calls):
        # a midpoint bisection made 69, 1,060 and 1,088 calls here
        args = list(hetero_selection_inputs())
        args[4] = deadline
        counter = TrialCounter(monkeypatch)
        assert len(counter.run(args).selected) == 6
        assert len(counter.taus) == calls
        [(width, trials)] = counter.searches
        assert trials <= search_bound(width)

    @pytest.mark.parametrize("jump", [1e300, 1.0])
    def test_bound_holds_where_the_secant_crawls(self, jump):
        # s steps from twice the band to band / (1 + jump) at tau_star, so u
        # steps from -0.5 to jump: each secant lands next to lo, and the
        # Illinois halving alone would take ~1,000 trials to bring 1e300 down
        tau_star = 0.7071
        taus = []

        def ranked(tau):
            taus.append(tau)
            return [(1.0 / (1.0 + jump) if tau >= tau_star else 2.0, "d0")]

        lo, hi = 0.125, 3.0
        order = fedft._least_feasible(ranked, 1, 1.0, lo, hi, ranked(hi))
        assert order == ranked(tau_star)
        assert len(taus) - 2 <= search_bound(fedft._key(hi) - fedft._key(lo))
        assert min(t for t in taus if t >= tau_star) == tau_star
        assert max(t for t in taus if t < tau_star) == math.nextafter(tau_star, 0.0)

    def test_calls_per_search_stay_in_bound(self, monkeypatch):
        rng = np.random.default_rng(29)
        counter = TrialCounter(monkeypatch)
        widest = 0
        for i in range(150):
            deadline = [2.0, 1e-3, 1e300, math.inf][i % 4]
            n0 = [1e-9, 5e-324][int(rng.integers(2))]
            devs, band, bits, flops = random_selection_instance(rng, min(deadline, 10.0), n0)
            try:
                counter.run((devs, band, bits, flops, deadline, n0))
            except SchedulingError:
                continue
            for width, trials in counter.searches:
                assert trials <= search_bound(width), (i, width, trials)
                widest = max(widest, width)
        assert widest > 2**62  # an infinite deadline's bracket was searched


def hetero_state(seed=42, noise=0.01):
    ranks = [1, 1, 2, 2, 4, 4]
    devices = [DeviceProfile(f"d{i}", 1e9, 1e9, 1.0, 0.5, r) for i, r in enumerate(ranks)]
    state = make_synthetic_task(
        seed, devices, feature_dim=8, output_dim=6, true_rank=1,
        samples_per_device={d.id: 32 for d in devices}, noise_std=noise,
    )
    return devices, state


def round_inputs(state, devices, sel):
    """``fedft_round``'s plan, as ``run_fedft`` makes it."""
    return round_plan(state, sel.selected, {p.id: p.local_rank for p in devices})


def run_selection(state, devices, deadline):
    """The selection ``run_fedft`` makes for ``state`` on a 1 MHz band at
    N0 = 1e-9, with no round run."""
    selection, _, losses = run_fedft(state, devices, 1e6, deadline, 0.1, 1e-9, rounds=0)
    assert losses == []
    return selection


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
        sel = run_selection(state, [dev], 100.0)
        assert sel.selected == ("a",)
        loss = fedft_round(state, round_inputs(state, [dev], sel), 0.1)
        assert state.round_index == 1
        assert loss == global_loss(state)
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
        state = FedFtState(
            0, state.base, state.global_adapter,
            {dev: shared_adapter for dev in state.datasets},
            {dev: (shared_x.copy(), shared_y.copy()) for dev in state.datasets},
        )
        single = lora_sgd_step(state.base, shared_adapter, shared_x, shared_y, 0.1)
        central = mse_loss(state.base, single, shared_x, shared_y)
        sel = run_selection(state, devices, 100.0)
        assert sel.selected == ("d0", "d1", "d2")
        loss = fedft_round(state, round_inputs(state, devices, sel), 0.1)
        assert abs(loss - central) <= 1e-9

    def test_cached_selection_matches_per_round_solve(self):
        # run_fedft solves the selection once: a round must not change it
        devices, state = hetero_state(seed=3)
        sel, latency, _ = run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=0)
        inputs = round_inputs(state, devices, sel)
        for _ in range(3):
            fedft_round(state, inputs, 0.05)
            assert run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=0)[:2] == (
                sel, latency)
        _, state = hetero_state(seed=3)
        selection, got, losses = run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=3)
        assert (selection, got) == (sel, latency)
        assert latency == sel.round_latency + sel.upload_latency
        assert len(losses) == 3

    def test_one_projection_per_distinct_rank(self, monkeypatch):
        # ranks 1, 1, 2, 2, 4, 4: three copies, each shared by the devices
        # of its rank and equal to the projected global bit for bit
        devices, state = hetero_state(seed=4)
        sel = run_selection(state, devices, 30.0)
        calls = []

        def counted(adapter, target_rank):
            calls.append(target_rank)
            return project_rank(adapter, target_rank)

        monkeypatch.setattr(fedft, "project_rank", counted)
        fedft_round(state, round_inputs(state, devices, sel), 0.05)
        assert sorted(calls) == [1, 2, 4]
        for rank in (1, 2, 4):
            shared = [state.device_adapters[p.id] for p in devices if p.local_rank == rank]
            assert len(shared) == 2 and shared[0] is shared[1]
            want = project_rank(state.global_adapter, rank)
            assert shared[0].A.tobytes() == want.A.tobytes()
            assert shared[0].B.tobytes() == want.B.tobytes()

    def test_downlink_latency_matches_projected_copies(self):
        # the selection's slowest upload, which the round latency counts
        # again as the downlink, equals the slowest participant's unicast of
        # the rank-projected global copy a round handed it, bit for bit
        devices, state = hetero_state(seed=5)
        sel, latency, _ = run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=1)
        params = {dev: a.A.size + a.B.size for dev, a in state.device_adapters.items()}
        want = max(
            comm_latency(64.0 * params[p.id], shannon_rate(
                sel.bandwidth[p.id], p.channel_gain, p.tx_power, 1e-9))
            for p in devices if p.id in sel.selected
        )
        assert sel.upload_latency == want > 0.0
        assert latency == sel.round_latency + want

    def test_datasets_fixed_and_pooled_once(self):
        devices, state = hetero_state(seed=6)
        with pytest.raises(TypeError):
            state.datasets["d0"] = state.datasets["d1"]
        xs = [x for x, _ in state.datasets.values()]
        ys = [y for _, y in state.datasets.values()]
        assert np.concatenate(xs).tobytes() == state.pooled_x.tobytes()
        assert np.concatenate(ys).tobytes() == state.pooled_y.tobytes()
        assert global_loss(state) == mse_loss(
            state.base, state.global_adapter, np.concatenate(xs), np.concatenate(ys))

    def test_run_converges_on_hetero_ranks(self):
        devices, state = hetero_state()
        initial = global_loss(state)
        selection, _, losses = run_fedft(state, devices, 1e6, 30.0, 0.05, 1e-9, rounds=60)
        assert len(losses) == 60
        assert losses[-1] < 0.1 * initial
        assert len(selection.selected) == 6


def round_oracle_configs():
    """Seeded fedft states for the stacked round, the edge cases first."""
    base = dict(seed=5, d=6, k=8, ranks=[1, 1, 2, 2, 4, 4], sizes=[16] * 6, n_part=5,
                rounds=6, lr=0.05, neg_zero=False)
    configs = [
        dict(base, ranks=[3] * 6),  # a single group
        dict(base, ranks=[1, 2, 3, 4, 5, 6], n_part=6),  # every group of one
        dict(base, n_part=1),
        dict(base, neg_zero=True),  # an A column whose terms are all -0.0
        dict(base, sizes=[16, 9, 16, 9, 30, 16]),  # groups keyed by rank and size
        # d or k of 1: (P, 1, 1) stacks, which np.add.reduce sums pairwise
        dict(base, d=1, k=7, ranks=[1] * 12, sizes=[9] * 12, n_part=12),
        dict(base, d=5, k=1, ranks=[1] * 13, sizes=[4] * 13, n_part=12, neg_zero=True),
        dict(base, d=1, k=1, ranks=[1] * 12, sizes=[3] * 12, n_part=11),
    ]
    rng = random.Random(45)
    for _ in range(40):
        d, k = rng.choice([1, 2, 3, 6]), rng.choice([1, 2, 5, 8])
        n = rng.randint(1, 14)
        size = rng.choice([3, 8, 20])
        configs.append(dict(
            seed=rng.randrange(2**31), d=d, k=k,
            ranks=[rng.randint(1, min(d, k)) for _ in range(n)],
            sizes=[size] * n if rng.random() < 0.7 else [rng.randint(1, 20) for _ in range(n)],
            n_part=rng.randint(1, min(n, 12)), rounds=rng.randint(5, 8),
            lr=rng.choice([0.005, 0.02, 0.05]), neg_zero=k > 1 and rng.random() < 0.3,
        ))
    return configs


class TestStackedRoundMatchesPerDevice:
    """``fedft_round`` against the per-device round of ``oracles``, bit for bit."""

    @staticmethod
    def build(cfg):
        devices = [DeviceProfile(f"d{i:02d}", 1e9, 1e9, 1.0, 0.5, r)
                   for i, r in enumerate(cfg["ranks"])]
        state = make_synthetic_task(
            cfg["seed"], devices, feature_dim=cfg["k"], output_dim=cfg["d"], true_rank=1,
            samples_per_device={p.id: m for p, m in zip(devices, cfg["sizes"])},
            noise_std=0.1,
        )
        if cfg["neg_zero"]:
            # B starts at zero, so dA is +0.0 and A's -0.0 survives the step
            for dev, a in state.device_adapters.items():
                neg = a.A.copy()
                neg[0, 0] = -0.0
                state.device_adapters[dev] = LoraAdapter(neg, a.B)
        return devices, state

    @pytest.mark.parametrize(
        "cfg", round_oracle_configs(),
        ids=lambda c: f"s{c['seed']}-d{c['d']}k{c['k']}-p{c['n_part']}of{len(c['ranks'])}",
    )
    def test_losses_and_factors(self, cfg):
        devices, ours = self.build(cfg)
        _, ref = self.build(cfg)
        picked = random.Random(cfg["seed"]).sample(devices, cfg["n_part"])
        participants = tuple(sorted(p.id for p in picked))
        ranks = {p.id: p.local_rank for p in devices}
        sizes = ref.dataset_sizes()
        total = float(sum(sizes[dev] for dev in participants))
        weights = [sizes[dev] / total for dev in participants]
        if cfg["neg_zero"]:
            for dev in participants:
                x, y = ref.datasets[dev]
                a = lora_sgd_step(ref.base, ref.device_adapters[dev], x, y, cfg["lr"]).A
                assert a[0, 0] == 0.0 and math.copysign(1.0, a[0, 0]) == -1.0
        plan = round_plan(ours, participants, ranks)
        for _ in range(cfg["rounds"]):
            got = fedft_round(ours, plan, cfg["lr"])
            want = fedft_round_per_device(ref, participants, weights, ranks, cfg["lr"])
            assert got.hex() == want.hex()
            assert ours.round_index == ref.round_index
            for a, b in [(ours.global_adapter, ref.global_adapter)] + [
                (ours.device_adapters[p.id], ref.device_adapters[p.id]) for p in devices
            ]:
                assert a.A.tobytes() == b.A.tobytes() and a.A.shape == b.A.shape
                assert a.B.tobytes() == b.B.tobytes() and a.B.shape == b.B.shape


def round_rows(tmp_path, cfg, name):
    out = tmp_path / name
    assert run_scenario(write_cfg(tmp_path, cfg, f"{name}.json"), out) == 0
    with open(out / "fedft_rounds.csv", newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("k", [1, -2, 7])
@pytest.mark.parametrize("name", ["fedft_hetero", "fedft_maximal", "fedft_stress"])
def test_power_of_two_time_scaling(tmp_path, name, k):
    """Every compute_rate /2^k, with bits_per_param and deadline_s x2^k: the
    selection, the bandwidth cells and the losses are unchanged, and the
    round latency is exactly x2^k (a power of two scales floats exactly)."""
    cfg = base_cfg(name)
    want = round_rows(tmp_path, cfg, "want")
    for dev in cfg["devices"]:
        dev["compute_rate"] = math.ldexp(dev["compute_rate"], -k)
    block = cfg["fedft"]
    block["bits_per_param"] = math.ldexp(block.get("bits_per_param", 64), k)
    block["deadline_s"] = math.ldexp(block["deadline_s"], k)
    got = round_rows(tmp_path, cfg, "scaled")
    assert len(got) == len(want) == block["rounds"]
    for a, b in zip(want, got):
        latency = float(a.pop("round_latency_s"))
        assert float(b.pop("round_latency_s")) == math.ldexp(latency, k), a["round"]
        assert b == a
