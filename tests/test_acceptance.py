"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance below is stated in the criterion it checks; wall
clock limits are asserted too.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from edgelam_sim import cot_placement as cot
from edgelam_sim import fedft, unlearn
from edgelam_sim import moe_orchestrator as moe
from edgelam_sim.casestudy import calibrate_casestudy, casestudy_sweep
from edgelam_sim.netsim import DeviceProfile, comm_latency, shannon_rate
from edgelam_sim.scenarios import run_scenario

from oracles import (
    bounded_ce_plabel_grad,
    bounded_cross_entropy,
    brute_force_placement,
    make_random_instance,
    slot_records,
    validate_placement,
)
from test_scenarios import ALL_CONFIGS, read_outputs, write_cfg


def report(num: int, elapsed: float, limit: float, detail: str) -> None:
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
    print(f"ACCEPTANCE {num}: PASS in {elapsed:.2f}s (< {limit:.0f}s): {detail}")


def test_criterion_1_aggregation_oracles():
    """Round-trip bit-exactness and factorwise-mean equivalence, 1000 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    for case in range(1000):
        d, k = (int(x) for x in rng.integers(2, 7, size=2))
        r = int(rng.integers(1, min(d, k) + 1))
        adapter = fedft.LoraAdapter(
            rng.standard_normal((d, r)), rng.standard_normal((r, k))
        )
        target = int(rng.integers(r, min(d, k) + 1))
        back = fedft.project_rank(fedft.project_rank(adapter, target), r)
        assert np.array_equal(back.A, adapter.A)
        assert np.array_equal(back.B, adapter.B)

        n = int(rng.integers(2, 5))
        peers = [
            fedft.LoraAdapter(rng.standard_normal((d, r)), rng.standard_normal((r, k)))
            for _ in range(n)
        ]
        raw = rng.random(n)
        weights = raw / raw.sum()
        agg = fedft.aggregate_hetero(peers, list(weights))
        mean_a = sum(w * p.A for w, p in zip(weights, peers))
        mean_b = sum(w * p.B for w, p in zip(weights, peers))
        assert np.max(np.abs(agg.A - mean_a)) <= 1e-12
        assert np.max(np.abs(agg.B - mean_b)) <= 1e-12
    report(1, time.perf_counter() - start, 5.0, "1000 pad/truncate + aggregate cases")


def test_criterion_2_gradient_checks():
    """Analytic gradients vs central finite differences, 100 instances each."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    h = 1e-5

    for _ in range(100):
        d, k = (int(x) for x in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, min(d, k) + 1))
        base = rng.standard_normal((d, k))
        adapter = fedft.LoraAdapter(
            rng.standard_normal((d, r)), rng.standard_normal((r, k))
        )
        x = rng.standard_normal((3, k))
        y = rng.standard_normal((3, d))
        lr = 1e-3
        stepped = fedft.lora_sgd_step(base, adapter, x, y, lr)
        grad_a = (adapter.A - stepped.A) / lr
        grad_b = (adapter.B - stepped.B) / lr
        i, j = int(rng.integers(0, d)), int(rng.integers(0, r))
        up, down = adapter.A.copy(), adapter.A.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = (
            fedft.mse_loss(base, fedft.LoraAdapter(up, adapter.B), x, y)
            - fedft.mse_loss(base, fedft.LoraAdapter(down, adapter.B), x, y)
        ) / (2 * h)
        assert abs(grad_a[i, j] - fd) <= 1e-6 * max(abs(fd), 1e-3)
        i, j = int(rng.integers(0, r)), int(rng.integers(0, k))
        up, down = adapter.B.copy(), adapter.B.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = (
            fedft.mse_loss(base, fedft.LoraAdapter(adapter.A, up), x, y)
            - fedft.mse_loss(base, fedft.LoraAdapter(adapter.A, down), x, y)
        ) / (2 * h)
        assert abs(grad_b[i, j] - fd) <= 1e-6 * max(abs(fd), 1e-3)

    for _ in range(100):
        delta = float(rng.uniform(0.01, 1.0))
        p = float(rng.uniform(0.05, 0.95))
        step = 1e-7
        fd = (
            bounded_cross_entropy([p + step, 1 - p - step], 0, delta)
            - bounded_cross_entropy([p - step, 1 - p + step], 0, delta)
        ) / (2 * step)
        analytic = bounded_ce_plabel_grad(p, delta)
        assert abs(fd - analytic) / abs(analytic) <= 1e-6

    report(2, time.perf_counter() - start, 10.0, "lora/bounded-CE FD checks")


def test_criterion_3_fedft_convergence():
    """Ranks {1,2,4}, 6 devices, 200 rounds: >=90% loss drop, monotone windows."""
    start = time.perf_counter()
    ranks = [1, 1, 2, 2, 4, 4]
    devices = [
        DeviceProfile(f"d{i}", 1e9, 1e9, 1.0, 0.5, r) for i, r in enumerate(ranks)
    ]
    state = fedft.make_synthetic_task(
        42, devices, feature_dim=8, output_dim=6, true_rank=1,
        samples_per_device={d.id: 32 for d in devices}, noise_std=0.01,
    )
    initial = fedft.global_loss(state)
    _, _, losses = fedft.run_fedft(
        state, devices, 1e6, 30.0, lr=0.05, noise_density=1e-9, rounds=200
    )
    assert losses[-1] <= 0.10 * initial
    windows = [np.mean(losses[i : i + 20]) for i in range(0, 200, 20)]
    for w1, w2 in zip(windows, windows[1:]):
        assert w2 <= w1 + 1e-12
    report(
        3, time.perf_counter() - start, 30.0,
        f"loss {initial:.3f} -> {losses[-1]:.5f} over 200 rounds, windows monotone",
    )


def test_criterion_4_unlearning_efficacy():
    """1 opt-out of 4: forget loss >= 2x, retained within 5% of baseline."""
    start = time.perf_counter()
    ids = ["d0", "d1", "d2", "d3"]
    delta, lr = 0.05, 0.5
    state = unlearn.make_classification_task(7, ids, {"d3"}, 2, 6, 40)
    unlearn.pretrain(state, lr, 300, delta)
    baseline = unlearn.UnlearnState(
        state.global_weights.copy(),
        {k: (x.copy(), y.copy()) for k, (x, y) in state.datasets.items()},
        {"d3"},
    )
    pre_forget = unlearn.forget_loss(state, delta)
    records = unlearn.run_unlearning(state, lr, delta, 100)
    # the baseline run applies no unlearning: its model stays the pretrained
    # global, so its retained loss is the pre-unlearning value
    baseline_retained = unlearn.retained_loss(baseline, delta)
    final = records[-1]
    assert final.forget_loss >= 2.0 * pre_forget
    assert abs(final.retained_loss - baseline_retained) / baseline_retained <= 0.05
    assert max(r.basis_alignment for r in records) <= 1e-10
    report(
        4, time.perf_counter() - start, 30.0,
        f"forget x{final.forget_loss / pre_forget:.1f}, retained drift "
        f"{100 * abs(final.retained_loss - baseline_retained) / baseline_retained:.3f}%",
    )


def _stability_slope() -> tuple[float, float]:
    devices = [
        DeviceProfile(f"d{i}", 1.0, 1e9, g, 0.5, 1)
        for i, g in enumerate([2.0, 1.0, 0.5, 0.25])
    ]
    experts = [
        moe.ExpertMicroservice(f"e{j}", 0.40, 1e5, tuple(d.id for d in devices))
        for j in range(8)
    ]
    bw = {d.id: 2.5e5 for d in devices}
    res = moe.orchestrate(
        devices, experts, 2000, v=1.0, top_k=4, seed=11, bandwidth=bw,
        noise_density=1e-9, layers_per_task=2, load_jitter=0.4,
    )
    total = np.array([sum(r.backlogs.values()) for r in slot_records(res)])
    peak = np.array([max(r.backlogs.values()) for r in slot_records(res)])
    t = np.arange(500.0)
    return (
        float(np.polyfit(t, total[-500:], 1)[0]),
        float(np.polyfit(t, peak[-500:], 1)[0]),
    )


def test_criterion_5_scheduler_optimality_and_stability():
    """Per-slot oracle equality, rho=0.8 stability, V-tradeoff monotonicity."""
    start = time.perf_counter()

    # (a) decision equals exhaustive enumeration on every slot
    devices = [
        DeviceProfile(f"d{i}", 1.0, 1e9, g, 0.5, 1)
        for i, g in enumerate([2.0, 1.0, 0.5, 0.25])
    ]
    experts = [
        moe.ExpertMicroservice(
            f"e{j}", 0.45 + 0.1 * j, 1e5 * (j + 1), tuple(d.id for d in devices)
        )
        for j in range(5)
    ]
    bw = {d.id: 2.5e5 for d in devices}
    res = moe.orchestrate(
        devices, experts, 500, v=2.0, top_k=3, seed=17, bandwidth=bw,
        noise_density=1e-9,
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
    wl = {e.id: e.workload_per_call for e in experts}
    ids = sorted(d.id for d in devices)
    queues = {d: 0.0 for d in ids}
    for rec in slot_records(res):
        calls = [e for e, _ in rec.assignment]
        oracle = min(
            itertools.product(ids, repeat=len(calls)),
            key=lambda c: (
                sum(queues[d] * wl[e] for e, d in zip(calls, c))
                + 2.0 * sum(lat[(e, d)] for e, d in zip(calls, c)),
                c,
            ),
        )
        assert tuple(d for _, d in rec.assignment) == oracle
        arrivals = {d: 0.0 for d in ids}
        for e, d in rec.assignment:
            arrivals[d] += wl[e]
        for d in ids:
            queues[d] = max(queues[d] + arrivals[d] - 1.0, 0.0)
            assert abs(rec.backlogs[d] - queues[d]) <= 1e-12

    # (b) stability at rho = 0.8: backlog slope over the last 500 of 2000
    slope_total, slope_peak = _stability_slope()
    assert abs(slope_total) < 1e-3
    assert abs(slope_peak) < 1e-3

    # (c) V sweep: cost never rises, backlog never falls
    devices3 = [
        DeviceProfile(f"d{i}", 1.0, 1e9, g, 0.5, 1)
        for i, g in enumerate([4.0, 1.0, 0.25])
    ]
    experts3 = [
        moe.ExpertMicroservice(f"e{j}", 1.6, 1e6, tuple(d.id for d in devices3))
        for j in range(4)
    ]
    bw3 = {d.id: 3e5 for d in devices3}
    costs, backlogs = [], []
    for v in (0.1, 1.0, 10.0, 100.0):
        sw = moe.orchestrate(
            devices3, experts3, 200, v=v, top_k=1, seed=11, bandwidth=bw3,
            noise_density=1e-9, load_jitter=0.4,
        )
        costs.append(sw.time_avg_cost)
        backlogs.append(sw.time_avg_backlog)
    for c1, c2 in zip(costs, costs[1:]):
        assert c2 <= c1 + 1e-12
    for b1, b2 in zip(backlogs, backlogs[1:]):
        assert b2 >= b1 - 1e-12

    report(
        5, time.perf_counter() - start, 60.0,
        f"500/500 slots optimal; slope {slope_total:+.1e}; "
        f"V-sweep cost {costs[0]:.3f}->{costs[-1]:.3f}, "
        f"backlog {backlogs[0]:.2f}->{backlogs[-1]:.2f}",
    )


def test_criterion_6_placement_quality():
    """Exact equals the D^S brute force; heuristic gap small, 100 instances."""
    start = time.perf_counter()
    gaps = []
    for i in range(100):
        n_steps = 3 + (i % 3)
        n_devices = 3 + ((i // 3) % 3)
        chain, devices, links, shard = make_random_instance(i, n_steps, n_devices)
        exact = cot.solve_exact(chain, devices, links, shard)
        best, best_cost = brute_force_placement(chain, devices, links, shard)
        assert exact.assignment == best
        assert abs(exact.cost - best_cost) <= 1e-12
        heur = cot.solve_local_search(
            chain, devices, links, seed=i, iters=10, shard_bytes=shard
        )
        validate_placement(chain, heur.assignment, devices, shard)
        assert exact.cost <= heur.cost + 1e-12
        gaps.append((heur.cost - exact.cost) / exact.cost)
    gaps = np.array(gaps)
    assert gaps.mean() <= 0.10
    assert gaps.max() <= 0.25
    report(
        6, time.perf_counter() - start, 60.0,
        f"100 instances: mean gap {100 * gaps.mean():.2f}%, max {100 * gaps.max():.2f}%",
    )


def test_criterion_7_casestudy_reproduction():
    """Calibrated 128-token reductions near 70.8%/59.6%; 128 optimal of three."""
    start = time.perf_counter()
    result = calibrate_casestudy((0.708, 0.596))
    assert result.success, result.message
    rows = casestudy_sweep(result.model, [64, 128, 256])
    by_budget = {r.t_budget: r for r in rows}
    star = by_budget[128]
    assert abs(star.mem_reduction - 0.708) <= 0.10
    assert abs(star.lat_reduction - 0.596) <= 0.10
    assert star.combined_normalized_cost < by_budget[64].combined_normalized_cost
    assert star.combined_normalized_cost < by_budget[256].combined_normalized_cost
    assert all(r.device_count <= 10 for r in rows)
    report(
        7, time.perf_counter() - start, 10.0,
        f"T=128: mem {100 * star.mem_reduction:.1f}% lat "
        f"{100 * star.lat_reduction:.1f}% (targets 70.8/59.6), optimal of "
        "{64,128,256}",
    )


def test_criterion_8_determinism(tmp_path):
    """Identical config+seed gives byte-identical outputs, every module."""
    start = time.perf_counter()
    for kind, factory in sorted(ALL_CONFIGS.items()):
        cfg_path = write_cfg(tmp_path, factory(), name=f"{kind}.json")
        out1 = tmp_path / f"{kind}-1"
        out2 = tmp_path / f"{kind}-2"
        assert run_scenario(cfg_path, out1) == 0
        assert run_scenario(cfg_path, out2) == 0
        files1 = read_outputs(out1)
        files2 = read_outputs(out2)
        assert files1.keys() == files2.keys()
        assert files1 == files2, f"{kind} outputs differ between identical runs"
    report(
        8, time.perf_counter() - start, 60.0,
        "byte-identical reruns for fedft/unlearn/moe/cot/casestudy",
    )
