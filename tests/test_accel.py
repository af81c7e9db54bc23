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
    """The vectorized scores equal a per-candidate loop summed in call order."""
    rng = np.random.default_rng(2)
    for _ in range(60):
        n_calls = int(rng.integers(1, 7))
        n_dev = int(rng.integers(2, 5))
        n_cand = int(rng.integers(1, 300))
        cand = rng.integers(0, n_dev, size=(n_cand, n_calls))
        queue = rng.uniform(0, 10, n_dev)
        load = rng.uniform(0.1, 2.0, n_calls)
        cost = rng.uniform(0, 3.0, (n_calls, n_dev))
        v = float(rng.uniform(0, 50))
        expected = np.empty(n_cand)
        for i in range(n_cand):
            drift = 0.0
            penalty = 0.0
            for c in range(n_calls):
                d = cand[i, c]
                drift += queue[d] * load[c]
                penalty += cost[c, d]
            expected[i] = drift + v * penalty
        assert np.array_equal(assignment_scores(cand, queue, load, cost, v), expected)
