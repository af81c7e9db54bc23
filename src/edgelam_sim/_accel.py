"""Hot enumeration kernels, numba-compiled with a pure-numpy fallback.

Two inner loops dominate heavy runs: the exhaustive placement scan (up to
10^6 candidate placements per instance) and per-slot scoring of scheduler
assignment candidates (up to 4096 per slot over thousands of slots).  Both
carry an @njit implementation and a vectorized numpy one.  Set
``EDGELAM_NO_NUMBA=1`` to force the numpy path; ``benchmarks/bench_accel.py``
compares the two.

Both paths accumulate per-candidate sums in the identical order (sequential
over steps / calls), so they return bit-identical costs and therefore make
identical tie decisions.
"""

from __future__ import annotations

import os

import numpy as np

_FLAG = os.environ.get("EDGELAM_NO_NUMBA", "").strip().lower()
NUMBA_REQUESTED = _FLAG not in ("1", "true", "yes")

if NUMBA_REQUESTED:
    try:
        from numba import njit

        NUMBA_ENABLED = True
    except ImportError:  # numba is an optional extra
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False

ACCEL_BACKEND = "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# placement scan: argmin over all device-vector placements of a step chain
# ---------------------------------------------------------------------------

def _placement_scan_py(comp, comm, mem, cap):
    """Scan all D^S placements; return (best_index, best_cost, n_feasible).

    ``comp``: (S, D) per-step compute latency; ``comm``: (S-1, D, D) handoff
    latency between consecutive steps; ``mem``: (S,) bytes per deployed step;
    ``cap``: (D,) device capacities.  Placements enumerate in lexicographic
    device-vector order (step 0 most significant), so the strict `<` keeps
    the lexicographically smallest argmin.  best_index is -1 when no
    placement is capacity-feasible.
    """
    n_steps, n_devices = comp.shape
    total = 1
    for _ in range(n_steps):
        total *= n_devices
    best_idx = np.int64(-1)
    best_cost = np.inf
    n_feasible = np.int64(0)
    digits = np.zeros(n_steps, dtype=np.int64)
    loads = np.zeros(n_devices)
    for idx in range(total):
        rem = idx
        for s in range(n_steps - 1, -1, -1):
            digits[s] = rem % n_devices
            rem //= n_devices
        for d in range(n_devices):
            loads[d] = 0.0
        for s in range(n_steps):
            loads[digits[s]] += mem[s]
        feasible = True
        for d in range(n_devices):
            if loads[d] > cap[d]:
                feasible = False
                break
        if not feasible:
            continue
        n_feasible += 1
        cost = comp[0, digits[0]]
        for s in range(1, n_steps):
            cost += comm[s - 1, digits[s - 1], digits[s]]
            cost += comp[s, digits[s]]
        if cost < best_cost:
            best_cost = cost
            best_idx = idx
    return best_idx, best_cost, n_feasible


def placement_scan_numpy(comp, comm, mem, cap, chunk: int = 1 << 15):
    """Vectorized equivalent of :func:`_placement_scan_py` (chunked)."""
    n_steps, n_devices = comp.shape
    total = n_devices**n_steps
    powers = n_devices ** np.arange(n_steps - 1, -1, -1, dtype=np.int64)
    best_idx = np.int64(-1)
    best_cost = np.inf
    n_feasible = np.int64(0)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
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


def _placement_batch_py(placements, comp, comm, mem, cap):
    """Cost and feasibility of explicit placements, shape (n, S)."""
    n, n_steps = placements.shape
    n_devices = comp.shape[1]
    costs = np.empty(n)
    feasible = np.zeros(n, dtype=np.bool_)
    loads = np.zeros(n_devices)
    for i in range(n):
        for d in range(n_devices):
            loads[d] = 0.0
        for s in range(n_steps):
            loads[placements[i, s]] += mem[s]
        ok = True
        for d in range(n_devices):
            if loads[d] > cap[d]:
                ok = False
                break
        feasible[i] = ok
        cost = comp[0, placements[i, 0]]
        for s in range(1, n_steps):
            cost += comm[s - 1, placements[i, s - 1], placements[i, s]]
            cost += comp[s, placements[i, s]]
        costs[i] = cost
    return costs, feasible


def placement_batch_numpy(placements, comp, comm, mem, cap):
    """Vectorized equivalent of :func:`_placement_batch_py`."""
    n, n_steps = placements.shape
    n_devices = comp.shape[1]
    rows = np.arange(n)
    loads = np.zeros((n, n_devices))
    for s in range(n_steps):
        loads[rows, placements[:, s]] += mem[s]
    feasible = np.all(loads <= cap[None, :], axis=1)
    costs = comp[0, placements[:, 0]].copy()
    for s in range(1, n_steps):
        costs += comm[s - 1, placements[:, s - 1], placements[:, s]]
        costs += comp[s, placements[:, s]]
    return costs, feasible


# ---------------------------------------------------------------------------
# scheduler candidate scoring: queue-weighted arrivals plus V-weighted cost
# ---------------------------------------------------------------------------

def _assignment_scores_py(candidates, queue, call_load, call_cost, v):
    """Drift-plus-penalty score of each candidate assignment.

    ``candidates``: (n, n_calls) device index per expert call; ``queue``:
    (D,) backlogs; ``call_load``: (n_calls,) FLOPs added by each call;
    ``call_cost``: (n_calls, D) penalty of serving call c on device d.
    Score = sum_c Q[d_c]*load_c + V * sum_c call_cost[c, d_c].
    """
    n, n_calls = candidates.shape
    scores = np.empty(n)
    for i in range(n):
        drift = 0.0
        penalty = 0.0
        for c in range(n_calls):
            d = candidates[i, c]
            drift += queue[d] * call_load[c]
            penalty += call_cost[c, d]
        scores[i] = drift + v * penalty
    return scores


def assignment_scores_numpy(candidates, queue, call_load, call_cost, v):
    """Vectorized equivalent of :func:`_assignment_scores_py`."""
    n, n_calls = candidates.shape
    drift = np.zeros(n)
    penalty = np.zeros(n)
    for c in range(n_calls):
        d = candidates[:, c]
        drift += queue[d] * call_load[c]
        penalty += call_cost[c, d]
    return drift + v * penalty


if NUMBA_ENABLED:
    placement_scan_jit = njit(cache=True)(_placement_scan_py)
    placement_batch_jit = njit(cache=True)(_placement_batch_py)
    assignment_scores_jit = njit(cache=True)(_assignment_scores_py)

    placement_scan = placement_scan_jit
    placement_batch = placement_batch_jit
    assignment_scores = assignment_scores_jit
else:
    placement_scan = placement_scan_numpy
    placement_batch = placement_batch_numpy
    assignment_scores = assignment_scores_numpy
