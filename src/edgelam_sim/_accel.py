"""Vectorized enumeration kernels.

Two inner loops dominate heavy runs: the exhaustive placement scan (up to
10^6 candidate placements per instance) and per-slot scoring of scheduler
assignment candidates (up to 4096 per slot over thousands of slots).  Both
accumulate per-candidate sums sequentially over steps / calls, so costs
and tie decisions are reproducible bit for bit.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 15  # placements scored per vectorized block


def placement_scan(comp, comm, mem, cap):
    """Scan all D^S placements; return (best_index, best_cost, n_feasible).

    ``comp``: (S, D) per-step compute latency; ``comm``: (S-1, D, D) handoff
    latency between consecutive steps; ``mem``: (S,) bytes per deployed step;
    ``cap``: (D,) device capacities.  Placements enumerate in lexicographic
    device-vector order (step 0 most significant), so the strict `<` keeps
    the lexicographically smallest argmin.  best_index is -1 when no
    placement is capacity-feasible.
    """
    n_steps, n_devices = comp.shape
    total = n_devices**n_steps
    powers = n_devices ** np.arange(n_steps - 1, -1, -1, dtype=np.int64)
    best_idx = np.int64(-1)
    best_cost = np.inf
    n_feasible = np.int64(0)
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % n_devices
        rows = np.arange(idx.size)
        loads = np.zeros((idx.size, n_devices))
        for s in range(n_steps):
            loads[rows, digits[:, s]] += mem[s]
        feasible = np.all(loads <= cap[None, :], axis=1)
        if not feasible.any():
            continue
        n_feasible += np.int64(np.count_nonzero(feasible))
        cost = comp[0, digits[:, 0]].copy()
        for s in range(1, n_steps):
            cost += comm[s - 1, digits[:, s - 1], digits[:, s]]
            cost += comp[s, digits[:, s]]
        cost[~feasible] = np.inf
        local = int(np.argmin(cost))
        if cost[local] < best_cost:
            best_cost = float(cost[local])
            best_idx = idx[local]
    return best_idx, best_cost, n_feasible


def assignment_scores(candidates, queue, call_load, call_cost, v):
    """Drift-plus-penalty score of each candidate assignment.

    ``candidates``: (n, n_calls) device index per expert call; ``queue``:
    (D,) backlogs; ``call_load``: (n_calls,) FLOPs added by each call;
    ``call_cost``: (n_calls, D) penalty of serving call c on device d.
    Score = sum_c Q[d_c]*load_c + V * sum_c call_cost[c, d_c].
    """
    n, n_calls = candidates.shape
    drift = np.zeros(n)
    penalty = np.zeros(n)
    for c in range(n_calls):
        d = candidates[:, c]
        drift += queue[d] * call_load[c]
        penalty += call_cost[c, d]
    return drift + v * penalty
