"""Chain-of-thought microservice placement.

A reasoning chain is a path graph of steps, each with a compute workload
and a handoff payload to its successor.  Placing steps on heterogeneous
devices trades compute speed against inter-device handoff latency under
per-device memory capacity.  ``solve_exact`` finds the optimum by
branch-and-bound and counts the feasible placements without enumerating
them (guarded at 10^6 placements); ``solve_local_search`` is the greedy +
hill-climbing heuristic whose optimality gap is measured against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._accel import placement_fold, placement_scan
from .errors import PlacementError, SizeLimitError
from .netsim import CotChain, CotStep, DeviceProfile, shannon_rate
from .rng import stream

ENUMERATION_GUARD = 10**6


@dataclass(frozen=True)
class PlacementResult:
    assignment: tuple[int, ...]  # the device index of each step
    cost: float
    n_feasible: int | None = None


def link_rates_from_gains(
    devices: list[DeviceProfile], gains, link_bandwidth: float, noise_density: float
) -> list[list[float]]:
    """Full-mesh link rate matrix from a pairwise power-gain matrix."""
    n = len(devices)
    if len(gains) != n or any(len(row) != n for row in gains):
        raise PlacementError(f"gain matrix must be {n}x{n}")
    # Python floats: an SNR that overflows is inf, not an error
    return [
        [
            0.0 if a == b else shannon_rate(link_bandwidth, float(g), dev.tx_power, noise_density)
            for b, g in enumerate(row)
        ]
        for a, (dev, row) in enumerate(zip(devices, gains))
    ]


def _cost_tables(chain, devices, link_rates, shard_bytes):
    """(comp, comm, mem, cap) as nested lists of Python floats.

    ``comp[s][d]``: step s's compute latency on device d; ``comm[s][a][b]``:
    the handoff from step s on a to step s+1 on b, inf over a dead link
    (rate 0); ``mem[s]``: the bytes a deployed step occupies, handoff buffer
    plus model shard; ``cap[d]``: device d's capacity.
    """
    comp = [[step.workload / dev.compute_rate for dev in devices] for step in chain.steps]
    comm = []
    for step in chain.steps[:-1]:
        bits = step.handoff_size
        comm.append([
            [
                0.0 if a == b or bits == 0.0 else bits / rate if rate > 0 else math.inf
                for b, rate in enumerate(row)
            ]
            for a, row in enumerate(link_rates)
        ])
    mem = [step.handoff_size / 8.0 + shard_bytes for step in chain.steps]
    cap = [dev.memory_capacity for dev in devices]
    return comp, comm, mem, cap


def solve_exact(
    chain: CotChain,
    devices: list[DeviceProfile],
    link_rates: list[list[float]],
    shard_bytes: float = 0.0,
) -> PlacementResult:
    """Globally minimal placement by branch-and-bound (guard: D^S <= 10^6).

    Ties resolve to the lexicographically smallest device vector; the cost
    is summed step by step, the same bits as scoring that placement alone.
    ``n_feasible`` counts every capacity-feasible placement.  Raises
    ``PlacementError`` when no capacity-feasible placement has finite cost,
    naming the cause: no placement fits, or every one that fits costs inf.
    """
    if shard_bytes < 0:  # the search prunes on partial loads, so memory must not shrink them
        raise ValueError("shard_bytes must be >= 0")
    n_steps, n_dev = len(chain), len(devices)
    if n_dev**n_steps > ENUMERATION_GUARD:
        raise SizeLimitError(
            f"{n_dev}^{n_steps} placements exceed the {ENUMERATION_GUARD} guard; "
            "use solve_local_search"
        )
    assignment, cost, n_feasible = placement_scan(
        *_cost_tables(chain, devices, link_rates, shard_bytes))
    if assignment is None and n_feasible:
        raise PlacementError(f"all {n_feasible} capacity-feasible placements cost inf "
                             "(an overflowing compute time or a dead link)")
    if assignment is None:
        raise PlacementError("no capacity-feasible placement exists")
    return PlacementResult(tuple(assignment), cost, n_feasible)


def solve_local_search(
    chain: CotChain,
    devices: list[DeviceProfile],
    link_rates: list[list[float]],
    seed: int,
    iters: int,
    shard_bytes: float = 0.0,
) -> PlacementResult:
    """Greedy construction plus strict hill-climbing reassignment.

    ``iters=1`` returns the greedy placement; each further iteration is one
    improvement pass over the steps in a seeded order, moving a step to its
    best strictly-better device that fits.  Sideways moves are disallowed,
    so the search terminates; the result is deterministic per seed.  A load
    fits as in ``solve_exact``: ``placement_fold`` sums it in step order (a
    move tests its target only: a left fold of terms >= 0 never falls when
    one is dropped), so the gap to the exact cost is never negative.  Raises
    ``PlacementError`` when the greedy construction finds no device for a
    step: none has room for it, or each that has room costs inf, as behind
    a dead link from the previous step's device.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n_steps, n_dev = len(chain), len(devices)
    # Python floats, as in the exact search: an overflowing load or cost is
    # inf, which no capacity admits and no placement prefers
    comp, comm, mem, cap = _cost_tables(chain, devices, link_rates, shard_bytes)

    loads = [0.0] * n_dev
    assignment: list[int] = []
    for s in range(n_steps):
        best_d, best_marginal = -1, math.inf
        for d in range(n_dev):
            if loads[d] + mem[s] > cap[d]:
                continue
            marginal = comp[s][d]
            if s > 0:
                marginal += comm[s - 1][assignment[s - 1]][d]
            if marginal < best_marginal:
                best_marginal = marginal
                best_d = d
        if best_d < 0:
            roomy = [d for d in range(n_dev) if loads[d] + mem[s] <= cap[d]]
            if not roomy:
                why = "fits on no device"
            elif s > 0 and any(comm[s - 1][assignment[-1]][d] == math.inf for d in roomy):
                why = "fits only behind a dead link"
            else:
                why = "costs inf on every device with room"
            raise PlacementError(f"local search found no feasible start: step {s} {why}")
        assignment.append(best_d)
        loads[best_d] += mem[s]

    rng = stream(seed, "cot.local_search")
    current = placement_fold(comp, comm, mem, cap, assignment)[0]
    for _ in range(iters - 1):
        start = current
        for s in rng.permutation(n_steps):
            here = assignment[s]
            best_d, best_cost = here, current
            for d in range(n_dev):
                if d == here:
                    continue
                trial = assignment.copy()
                trial[s] = d
                c, trial_loads = placement_fold(comp, comm, mem, cap, trial)
                if c < best_cost and trial_loads[d] <= cap[d]:
                    best_cost, best_d = c, d
            if best_d != here:
                assignment[s], current = best_d, best_cost
        if current == start:  # no move, as each move lowers the cost
            break
    return PlacementResult(tuple(assignment), current)
