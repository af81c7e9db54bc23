"""The vectorized kernels against per-candidate reference loops."""

import numpy as np

from edgelam_sim import _accel
from edgelam_sim._accel import assignment_scores, placement_scan


def random_placement_arrays(rng):
    n_steps = int(rng.integers(1, 6))
    n_dev = int(rng.integers(2, 6))
    comp = rng.uniform(0.1, 2.0, (n_steps, n_dev))
    comm = rng.uniform(0.0, 1.0, (max(n_steps - 1, 0), n_dev, n_dev))
    for s in range(n_steps - 1):
        np.fill_diagonal(comm[s], 0.0)
    mem = rng.uniform(0.1, 1.0, n_steps)
    cap = rng.uniform(0.3, 2.5, n_dev)
    return comp, comm, mem, cap, n_steps, n_dev


def test_placement_scan_paths_identical(monkeypatch):
    """Many small blocks and one large block give bit-identical results."""
    rng = np.random.default_rng(0)
    cases = [random_placement_arrays(rng)[:4] for _ in range(60)]
    one_block = [placement_scan(*case) for case in cases]
    monkeypatch.setattr(_accel, "_CHUNK", 7)
    for case, (idx_a, cost_a, feas_a) in zip(cases, one_block):
        idx_b, cost_b, feas_b = placement_scan(*case)
        assert idx_a == idx_b
        assert feas_a == feas_b
        assert cost_a == cost_b or (np.isinf(cost_a) and np.isinf(cost_b))


def test_assignment_scores_paths_identical():
    """The score array equals a per-call loop over each call's replicas, bit
    for bit, and a padded entry never wins its row."""
    rng = np.random.default_rng(2)
    for _ in range(60):
        n_calls = int(rng.integers(1, 13))
        n_dev = int(rng.integers(1, 6))
        width = int(rng.integers(1, n_dev + 1))
        options = np.full((n_calls, width), -1)
        for c in range(n_calls):
            live = np.sort(rng.choice(n_dev, size=int(rng.integers(1, width + 1)), replace=False))
            options[c, : live.size] = live
        queue = rng.uniform(0, 10, n_dev) * rng.integers(0, 2, n_dev)  # some empty
        load = rng.uniform(0.1, 2.0, n_calls)
        cost = rng.uniform(0, 3.0, (n_calls, n_dev))
        v = float(rng.choice([0.0, rng.uniform(0, 50)]))
        scores = assignment_scores(options, queue, load, cost, v)
        assert scores.shape == (n_calls, width)
        picks = np.argmin(scores, axis=1)
        for c in range(n_calls):
            live = [d for d in options[c] if d >= 0]
            expected = [queue[d] * load[c] + v * cost[c, d] for d in live]
            assert scores[c, : len(live)].tolist() == expected
            assert np.all(scores[c, len(live):] == np.inf)
            assert picks[c] == expected.index(min(expected))  # lowest id on ties
