"""Kernels for the two hot inner loops.

``placement_scan`` finds the cheapest feasible CoT placement by a recursive
branch-and-bound (at most 19 deep under the 10^6 guard), summing costs step
by step so that costs and ties are reproducible bit for bit, and counts the
feasible placements by a subset DP over devices.  ``placement_fold`` sums
one placement's cost and device loads in that order; it scores the one
placement of one device.  ``assignment_scores`` places each expert call of
an MoE slot on its best replica, in plain Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SchedulingError

_BLOCK_STEPS = 9  # the count's blocks hold the 3^9 (M, T) pairs of the low steps
# The bound adds its terms in another order than a placement's cost, so it
# may exceed that cost by a few ulps; prune only above this relative margin.
_MARGIN = 1.0 + 1e-12


def placement_scan(comp, comm, mem, cap):
    """Exact placement search; return (assignment, cost, n_feasible).

    Nested lists of Python floats: ``comp[s][d]``, the compute latency of
    step s on device d; ``comm[s][a][b]``, the handoff latency from step s
    on a to step s+1 on b; ``mem[s]``, the bytes (>= 0) of a deployed step;
    ``cap[d]``, device d's capacity.  A placement is feasible when each
    device's load, summed in step order from 0.0, is <= its capacity.
    assignment lists the device of each step of the cheapest feasible
    placement; among equal costs the lexicographically smallest wins.
    assignment is None (and cost inf) when no feasible placement has a
    finite cost.  n_feasible counts the feasible placements.  The search
    recurses one level per step, at most 19 on two or more devices.
    """
    if len(cap) == 1:  # one placement, folded directly: 1^S passes the guard for any S
        cost, (load,) = placement_fold(comp, comm, mem, cap, [0] * len(mem))
        if load > cap[0] or cost == math.inf:
            return None, math.inf, int(load <= cap[0])
        return [0] * len(mem), cost, 1
    n_feasible = _count_feasible(mem, cap)
    assignment, cost = _cheapest(comp, comm, mem, cap)
    return assignment, cost, n_feasible


def placement_fold(comp, comm, mem, cap, assignment):
    """(cost, loads) of one placement on ``placement_scan``'s tables: left
    folds in step order, as the search adds them.  The cost starts at the
    first step's compute and adds each handoff, then the next step's
    compute; ``loads[d]`` sums the ``mem`` of d's steps from 0.0."""
    cost, loads = comp[0][assignment[0]], [0.0] * len(cap)
    for s, d in enumerate(assignment):
        if s:
            cost += comm[s - 1][assignment[s - 1]][d]
            cost += comp[s][d]
        loads[d] += mem[s]
    return cost, loads


def _cost_to_go(comp, comm):
    """Capacity-relaxed cheapest completion of a partial placement.

    ``togo[s][d]`` is the least handoff-plus-compute cost of steps s+1..S-1
    once step s sits on device d, ignoring capacity (a lower bound on any
    feasible completion).
    """
    n_steps, n_dev = len(comp), len(comp[0])
    togo = [[0.0] * n_dev for _ in range(n_steps)]
    for s in range(n_steps - 2, -1, -1):
        after = [comp[s + 1][e] + togo[s + 1][e] for e in range(n_dev)]
        togo[s] = [min(map(float.__add__, comm[s][d], after)) for d in range(n_dev)]
    return togo


def _cheapest(comp, comm, mem, cap):
    """Recursive branch-and-bound over steps (S <= 19 deep), devices ascending.

    A device whose load would exceed its capacity is skipped (loads only
    grow, since mem >= 0).  A partial placement is pruned when its cost plus
    the relaxed cost-to-go exceeds the incumbent by more than ``_MARGIN``.
    A leaf replaces the incumbent only on a strict ``<``, so ties keep the
    lexicographically first placement, and an infinite cost never does.
    Returns (assignment, cost), or (None, inf).
    """
    n_steps, n_dev = len(comp), len(cap)
    last = n_steps - 1
    togo = _cost_to_go(comp, comm)
    loads = [0.0] * n_dev
    path = [0] * n_steps
    best_path, best, limit = None, math.inf, math.inf

    def visit(s, partial, hop):  # hop: the handoff row into step s
        nonlocal best_path, best, limit
        m, work, bound = mem[s], comp[s], togo[s]
        for d in range(n_dev):
            old = loads[d]
            if old + m > cap[d]:
                continue
            cost = partial + hop[d]
            cost += work[d]
            path[s] = d
            if s == last:
                if cost < best:
                    best_path, best, limit = path.copy(), cost, cost * _MARGIN
            elif not cost + bound[d] > limit:
                loads[d] = old + m
                visit(s + 1, cost, comm[s][d])
                loads[d] = old  # the saved bits, not a subtraction
    visit(0, 0.0, [0.0] * n_dev)  # 0.0 + 0.0 + comp[0][d] is comp[0][d] bit for bit
    return best_path, best


def _count_feasible(mem, cap):
    """Number of capacity-feasible placements, by a subset DP over devices.

    ``ways[U]`` counts the ways to put exactly the steps in U (bit s = step
    s) on the devices seen so far.  Each further device d takes a step set
    T disjoint from U with load(T) <= cap[d]; the middle devices walk every
    disjoint (M, T) pair, one block per pair of the steps above the lowest
    ``_BLOCK_STEPS``, and the last device takes the rest.  load(T) sums mem
    in ascending step order from 0.0, as a placement's device load does, so
    the capacity tests agree bit for bit.
    """
    n_steps, n_dev = len(mem), len(cap)
    load = np.zeros(1 << n_steps)
    # an overflowing load is inf, which the capacity test below rejects
    with np.errstate(over="ignore"):
        for s in range(n_steps):
            load[1 << s : 2 << s] = load[: 1 << s] + mem[s]
    ways = (load <= cap[0]).astype(np.int64)
    if n_dev > 2:
        low = min(n_steps, _BLOCK_STEPS)
        low_held, low_taken = _disjoint_pairs(0, low)
        high_held, high_taken = _disjoint_pairs(low, n_steps)
        for d in range(1, n_dev - 1):
            fits = load <= cap[d]
            nxt = np.zeros_like(ways)
            for hm, ht in zip(high_held.tolist(), high_taken.tolist()):
                held, taken = low_held | hm, low_taken | ht
                keep = fits[taken]
                held, taken = held[keep], taken[keep]
                np.add.at(nxt, held | taken, ways[held])
            ways = nxt
    # the last device takes every step not yet placed: ways[full ^ T] is ways[::-1][T]
    return int(ways[::-1] @ (load <= cap[-1]))


def _disjoint_pairs(first, stop):
    """Bit masks (M, T) of every disjoint pair of sets of steps first..stop-1."""
    held = taken = np.zeros(1, dtype=np.int64)
    for s in range(first, stop):
        held, taken = (
            np.concatenate([held, held | (1 << s), held]),
            np.concatenate([taken, taken, taken | (1 << s)]),
        )
    return held, taken


def assignment_scores(replicas, queue, call_load, call_cost, v):
    """The device of each call of an MoE slot, by drift-plus-penalty.

    ``replicas``: each call's live replica devices, ascending; ``queue``:
    each device's backlog; ``call_load``: the FLOPs each call adds;
    ``call_cost``: each call's costs, one per device.  A call goes to the
    first of its replicas with the least ``queue[d]*load + penalty``: V*cost,
    or inf on a starved link (cost inf) at any V, so 0*inf never makes a nan.
    Python floats overflow to inf silently, so an inf score that no starved
    link explains raises: ``SchedulingError`` when V*cost overflows a finite
    cost, else ``FloatingPointError``.
    """
    inf = math.inf
    picks = []
    for devices, load, cost in zip(replicas, call_load, call_cost):
        best, least = devices[0], inf
        for d in devices:
            c = cost[d]
            penalty = c if c == inf else v * c
            score = queue[d] * load + penalty
            if score == inf and (c != inf or queue[d] * load == inf):
                if c != inf and penalty == inf:
                    raise SchedulingError(
                        f"V = {v:g} times the call cost {c:g} overflows; lower moe.v"
                    )
                raise FloatingPointError("overflow in a drift-plus-penalty score")
            if score < least:
                best, least = d, score
        picks.append(best)
    return picks
