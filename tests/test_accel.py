"""The kernels against per-candidate reference loops."""

import math

import numpy as np
import pytest

from edgelam_sim import _accel
from edgelam_sim._accel import assignment_scores, placement_fold, placement_scan
from edgelam_sim.cot_placement import ENUMERATION_GUARD
from edgelam_sim.errors import SchedulingError

from oracles import scan_placements


def random_placement_tables(rng, n_steps, n_dev, cap_scale=1.0, dead_share=0.0):
    """Random cost tables as nested lists; ``cap_scale`` < 1 tightens
    capacity, ``dead_share`` of the links have rate 0 (infinite handoff)."""
    comp = rng.uniform(0.1, 2.0, (n_steps, n_dev))
    comm = rng.uniform(0.0, 1.0, (n_steps - 1, n_dev, n_dev))
    comm[rng.random(comm.shape) < dead_share] = np.inf
    for s in range(n_steps - 1):
        np.fill_diagonal(comm[s], 0.0)
    mem = rng.uniform(0.1, 1.0, n_steps)
    cap = cap_scale * rng.uniform(0.3, 2.5, n_dev)
    return comp.tolist(), comm.tolist(), mem.tolist(), cap.tolist()


def random_cases(seed, n_cases, **kwargs):
    rng = np.random.default_rng(seed)
    return [
        random_placement_tables(rng, int(rng.integers(1, 6)), int(rng.integers(2, 6)), **kwargs)
        for _ in range(n_cases)
    ]


def tie_tables(n_steps, n_dev, per_device, link=0.0):
    """Uniform integer compute, handoffs of ``link`` between devices, room
    for ``per_device`` steps."""
    comp = [[1.0] * n_dev for _ in range(n_steps)]
    comm = [[[0.0 if a == b else link for b in range(n_dev)] for a in range(n_dev)]
            for _ in range(n_steps - 1)]
    return comp, comm, [1.0] * n_steps, [float(per_device)] * n_dev


def device_vector(idx, n_steps, n_dev):
    """The oracle's base-D placement index as a device list, step 0 first; None for -1."""
    if idx < 0:
        return None
    return [idx // n_dev ** (n_steps - 1 - s) % n_dev for s in range(n_steps)]


def assert_matches_scan(case):
    assignment, cost, n_feasible = placement_scan(*case)
    want_idx, want_cost, want_feasible = scan_placements(*case)
    n_steps, n_dev = len(case[0]), len(case[3])
    assert (assignment, n_feasible) == (device_vector(want_idx, n_steps, n_dev), want_feasible)
    assert cost == want_cost  # bit-identical, or both inf


@pytest.mark.parametrize("cap_scale", [0.3, 1.0, 10.0], ids=["tight", "mixed", "loose"])
@pytest.mark.parametrize("dead_share", [0.0, 0.5], ids=["live-links", "dead-links"])
def test_placement_scan_matches_enumeration(cap_scale, dead_share):
    """Argmin, its cost bits and the feasible count equal scoring all D^S."""
    for case in random_cases(0, 40, cap_scale=cap_scale, dead_share=dead_share):
        assert_matches_scan(case)
    rng = np.random.default_rng(1)
    for n_steps, n_dev in ((1, 1), (1, 2), (4, 1), (3, 2), (6, 3), (5, 4)):
        assert_matches_scan(random_placement_tables(rng, n_steps, n_dev, cap_scale, dead_share))


@pytest.mark.parametrize("n_steps,n_dev,per_device", [(6, 3, 2), (7, 3, 3), (5, 4, 5), (4, 2, 2)])
def test_placement_scan_ties_go_lexicographic(n_steps, n_dev, per_device):
    """Every feasible placement costs the same: the first one in
    lexicographic order wins, i.e. fill device 0, then device 1, ..."""
    case = tie_tables(n_steps, n_dev, per_device)
    assert_matches_scan(case)
    assignment, cost, _ = placement_scan(*case)
    assert assignment == [min(s // per_device, n_dev - 1) for s in range(n_steps)]
    assert cost == float(n_steps)


def test_placement_scan_all_infinite_is_infeasible():
    """Feasible placements exist, but each one has an infinite cost."""
    comp, comm, mem, cap = tie_tables(4, 3, 2, link=math.inf)  # capacity forces a handoff
    assert placement_scan(comp, comm, mem, cap) == (None, math.inf, 54)
    assert_matches_scan((comp, comm, mem, cap))
    comp, comm, mem, cap = tie_tables(3, 2, 3)
    comp[2] = [math.inf] * 2  # the last step runs nowhere
    assert placement_scan(comp, comm, mem, cap) == (None, math.inf, 8)


def step_fold(comp, comm, assignment):
    """A placement's cost: comp[0], then += comm, += comp, step by step."""
    cost = comp[0][assignment[0]]
    for s in range(1, len(assignment)):
        cost += comm[s - 1][assignment[s - 1]][assignment[s]]
        cost += comp[s][assignment[s]]
    return cost


def test_placement_scan_one_device_at_any_length():
    """1^S passes the guard for any S: a 5,000-step chain on one device is
    its one placement, whose cost is the step-by-step fold bit for bit."""
    rng = np.random.default_rng(3)
    comp, comm, mem, _ = random_placement_tables(rng, 5000, 1)
    room = [float(sum(mem)) * 1.01]
    assignment, cost, n_feasible = placement_scan(comp, comm, mem, room)
    assert (assignment, n_feasible) == ([0] * 5000, 1)
    assert cost.hex() == step_fold(comp, comm, assignment).hex()
    assert placement_scan(comp, comm, mem, [mem[0]]) == (None, math.inf, 0)
    comp[2500] = [math.inf]
    assert placement_scan(comp, comm, mem, room) == (None, math.inf, 1)


def test_placement_scan_deepest_chain_under_the_guard():
    """Two devices admit 19 steps, the deepest search the guard allows."""
    assert 2**19 <= ENUMERATION_GUARD < 2**20
    rng = np.random.default_rng(4)
    comp, comm, mem, _ = random_placement_tables(rng, 19, 2)
    cap = [0.6 * float(sum(mem))] * 2  # neither device holds the whole chain
    assignment, cost, n_feasible = placement_scan(comp, comm, mem, cap)
    assert len(assignment) == 19 and 0 < assignment.count(0) < 19
    assert 0 < n_feasible < 2**19
    assert cost.hex() == step_fold(comp, comm, assignment).hex()


def test_placement_fold_is_the_scan_s_cost_and_capacity():
    """The fold's cost of the scan's optimum is the scan's cost bit for bit,
    and its loads, summed in step order, are the ones the scan admits."""
    checked = 0
    for case in random_cases(5, 200, cap_scale=0.6):
        assignment, cost, _ = placement_scan(*case)
        if assignment is None:
            continue
        got, loads = placement_fold(*case, assignment)
        assert got.hex() == cost.hex() == step_fold(case[0], case[1], assignment).hex()
        assert all(load <= c for load, c in zip(loads, case[3]))
        checked += 1
    assert checked >= 100
    # 1 + 1 + 1e16 rounds up to 1e16 + 2, though 1e16 + 1 + 1 is 1e16
    tables = [[1.0]] * 3, [[[0.0]]] * 2, [1.0, 1.0, 1e16], [1e16]
    assert placement_fold(*tables, [0, 0, 0]) == (3.0, [1e16 + 2])
    assert placement_scan(*tables) == (None, math.inf, 0)


def test_placement_scan_count_blocks_match_enumeration(monkeypatch):
    """The count walks its (M, T) pairs in blocks of 3^1 as exactly as in one block."""
    monkeypatch.setattr(_accel, "_BLOCK_STEPS", 1)
    for case in random_cases(2, 40) + [tie_tables(7, 4, 2), tie_tables(6, 5, 1)]:
        assert_matches_scan(case)


def per_replica_scores(devices, queue, load, cost, v):
    """One call's Q[d]*load + V*cost[d] per replica, one replica at a time; a
    starved replica (cost inf) scores inf at any V, so 0 * inf never enters."""
    return [queue[d] * load + (math.inf if math.isinf(cost[d]) else v * cost[d]) for d in devices]


def random_slot(rng, n_dev, n_calls, ties):
    """One slot's kernel arguments: queues with empty devices, costs with
    starved links, calls with one replica up to all of them; ``ties`` keeps
    every value a small integer, so equal scores are common."""
    draw = (lambda lo, hi, size: rng.integers(lo, hi, size).astype(float)) if ties else rng.uniform
    replicas = [
        sorted(rng.choice(n_dev, size=int(rng.integers(1, n_dev + 1)), replace=False).tolist())
        for _ in range(n_calls)
    ]
    queue = (draw(0, 4, n_dev) * rng.integers(0, 2, n_dev)).tolist()
    load = draw(1, 3, n_calls).tolist()
    cost = draw(0, 3, (n_calls, n_dev))
    cost[rng.random(cost.shape) < 0.2] = np.inf
    return replicas, queue, load, cost.tolist()


@pytest.mark.parametrize("ties", [False, True], ids=["uniform", "integer-ties"])
@pytest.mark.parametrize("v", [0.0, 1.0, 7.5], ids=["v0", "v1", "v7.5"])
def test_assignment_scores_matches_per_replica_loop(ties, v):
    """Every call's device equals the per-replica rule, ties to the first
    replica, for single-replica calls and starved replicas too."""
    rng = np.random.default_rng(2)
    single = starved = tied = 0
    for _ in range(150):
        replicas, queue, load, cost = random_slot(
            rng, int(rng.integers(1, 7)), int(rng.integers(1, 13)), ties
        )
        picks = assignment_scores(replicas, queue, load, cost, v)
        assert len(picks) == len(replicas)
        for devices, w, c, d in zip(replicas, load, cost, picks):
            scores = per_replica_scores(devices, queue, w, c, v)
            least = min(scores)
            assert d == devices[scores.index(least)]
            single += len(devices) == 1
            starved += math.inf in scores
            tied += scores.count(least) > 1
    assert single and starved and (tied or not ties)


def test_starved_replica_never_wins_at_v_zero():
    """At V = 0 a starved replica scores inf, not 0 * inf = nan: an empty
    but starved device loses to a backlogged live one, and a call whose
    replicas are all starved takes the first."""
    inf = math.inf
    replicas = [[0, 1], [0, 1, 2], [0, 2]]
    cost = [[inf, 5.0, 1.0], [inf, 2.0, inf], [inf, 0.0, inf]]
    picks = assignment_scores(replicas, [0.0, 1.0, 3.0], [1.0, 2.0, 1.0], cost, 0.0)
    assert picks == [1, 1, 0]


@pytest.mark.parametrize("queue, load, cost, v, error, match", [
    ([0.0, 0.0], 1.0, [1e300, 1.0], 1e10, SchedulingError, "moe.v"),
    ([1e300, 0.0], 1e10, [1.0, 1.0], 1.0, FloatingPointError, "drift-plus-penalty"),
    ([1e300, 0.0], 1e10, [math.inf, 1.0], 0.0, FloatingPointError, "drift-plus-penalty"),
    ([1e154, 0.0], 1e154, [1.7e308, 1.0], 1.0, FloatingPointError, "drift-plus-penalty"),
], ids=["v-times-cost", "drift", "drift-on-starved-link-at-v0", "score-sum"])
def test_assignment_scores_raises_on_overflow(queue, load, cost, v, error, match):
    """A Python float product or sum that overflows is diagnosed, not
    scored inf: every such replica would tie and the first would win."""
    with pytest.raises(error, match=match):
        assignment_scores([[0, 1]], queue, [load], [cost], v)
