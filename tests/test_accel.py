"""The kernels against per-candidate reference loops."""

import math

import numpy as np
import pytest

from edgelam_sim import _accel
from edgelam_sim._accel import assignment_scores, placement_scan

from oracles import scan_placements


def random_placement_arrays(rng, n_steps, n_dev, cap_scale=1.0, dead_share=0.0):
    """Random costs; ``cap_scale`` < 1 tightens capacity, ``dead_share`` of
    the links have rate 0 (infinite handoff)."""
    comp = rng.uniform(0.1, 2.0, (n_steps, n_dev))
    comm = rng.uniform(0.0, 1.0, (n_steps - 1, n_dev, n_dev))
    comm[rng.random(comm.shape) < dead_share] = np.inf
    for s in range(n_steps - 1):
        np.fill_diagonal(comm[s], 0.0)
    mem = rng.uniform(0.1, 1.0, n_steps)
    cap = cap_scale * rng.uniform(0.3, 2.5, n_dev)
    return comp, comm, mem, cap


def random_cases(seed, n_cases, **kwargs):
    rng = np.random.default_rng(seed)
    return [
        random_placement_arrays(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6)), **kwargs)
        for _ in range(n_cases)
    ]


def tie_arrays(n_steps, n_dev, per_device):
    """Uniform integer compute, free handoffs, room for ``per_device`` steps."""
    comp = np.ones((n_steps, n_dev))
    comm = np.zeros((n_steps - 1, n_dev, n_dev))
    return comp, comm, np.ones(n_steps), np.full(n_dev, float(per_device))


def assert_matches_scan(case):
    idx, cost, n_feasible = placement_scan(*case)
    want_idx, want_cost, want_feasible = scan_placements(*case)
    assert (idx, n_feasible) == (want_idx, want_feasible)
    assert cost == want_cost  # bit-identical, or both inf


@pytest.mark.parametrize("cap_scale", [0.3, 1.0, 10.0], ids=["tight", "mixed", "loose"])
@pytest.mark.parametrize("dead_share", [0.0, 0.5], ids=["live-links", "dead-links"])
def test_placement_scan_matches_enumeration(cap_scale, dead_share):
    """Argmin, its cost bits and the feasible count equal scoring all D^S."""
    for case in random_cases(0, 40, cap_scale=cap_scale, dead_share=dead_share):
        assert_matches_scan(case)
    rng = np.random.default_rng(1)
    for n_steps, n_dev in ((1, 1), (1, 2), (4, 1), (3, 2), (6, 3), (5, 4)):
        assert_matches_scan(random_placement_arrays(rng, n_steps, n_dev, cap_scale, dead_share))


@pytest.mark.parametrize("n_steps,n_dev,per_device", [(6, 3, 2), (7, 3, 3), (5, 4, 5), (4, 2, 2)])
def test_placement_scan_ties_go_lexicographic(n_steps, n_dev, per_device):
    """Every feasible placement costs the same: the first one in
    lexicographic order wins, i.e. fill device 0, then device 1, ..."""
    case = tie_arrays(n_steps, n_dev, per_device)
    assert_matches_scan(case)
    idx, cost, _ = placement_scan(*case)
    fill = [min(s // per_device, n_dev - 1) for s in range(n_steps)]
    assert idx == int("".join(map(str, fill)), n_dev)
    assert cost == float(n_steps)


def test_placement_scan_all_infinite_is_infeasible():
    """Feasible placements exist, but each one has an infinite cost."""
    comp, comm, mem, cap = tie_arrays(4, 3, 2)
    comm[:] = np.inf  # every link dead: capacity forces a handoff
    for s in range(3):
        np.fill_diagonal(comm[s], 0.0)
    assert placement_scan(comp, comm, mem, cap) == (-1, math.inf, 54)
    assert_matches_scan((comp, comm, mem, cap))
    comp, comm, mem, cap = tie_arrays(3, 2, 3)
    comp[2] = np.inf  # the last step runs nowhere
    assert placement_scan(comp, comm, mem, cap) == (-1, math.inf, 8)


def test_placement_scan_count_blocks_match_enumeration(monkeypatch):
    """The count walks its (M, T) pairs in blocks of 3^1 as exactly as in one block."""
    monkeypatch.setattr(_accel, "_BLOCK_STEPS", 1)
    for case in random_cases(2, 40) + [tie_arrays(7, 4, 2), tie_arrays(6, 5, 1)]:
        assert_matches_scan(case)


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


def test_starved_replica_never_wins_at_v_zero():
    """0 * inf would be nan, and argmin returns the first nan."""
    options = np.array([[0, 1, -1], [1, 0, 2]])
    cost = np.array([[np.inf, 5.0, 1.0], [np.inf, 2.0, np.inf]])
    scores = assignment_scores(options, np.array([3.0, 1.0, 0.0]), np.array([1.0, 2.0]), cost, 0.0)
    assert scores.tolist() == [[np.inf, 1.0, np.inf], [2.0, np.inf, np.inf]]
