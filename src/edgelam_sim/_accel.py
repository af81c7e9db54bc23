"""Vectorized kernels for the two hot inner loops.

``placement_scan`` scores all D^S CoT placements (up to 10^6 per instance),
accumulating each placement's cost sequentially over steps, so costs and
tie decisions are reproducible bit for bit.  ``assignment_scores`` scores
every expert call of an MoE slot on each of its replicas at once.
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


def assignment_scores(options, queue, call_load, call_cost, v):
    """Drift-plus-penalty score of each call on each of its replicas.

    ``options``: (n_calls, R) device indices of each call's replicas, padded
    with -1; ``queue``: (D,) backlogs; ``call_load``: (n_calls,) FLOPs added
    by each call; ``call_cost``: (n_calls, D) penalty of serving call c on
    device d.  Score = Q[d]*load_c + V*call_cost[c, d]; a padded entry
    scores +inf, so it never wins an argmin over a row.
    """
    pad = options < 0
    # score padding as the row's first replica, then overwrite it
    real = np.where(pad, options[:, :1], options)
    scores = queue[real] * call_load[:, None] + v * np.take_along_axis(call_cost, real, axis=1)
    scores[pad] = np.inf
    return scores
