"""Chain-of-thought microservice placement.

A reasoning chain is a path graph of steps, each with a compute workload
and a handoff payload to its successor.  Placing steps on heterogeneous
devices trades compute speed against inter-device handoff latency under
per-device memory capacity.  ``solve_exact`` enumerates every assignment
(guarded at 10^6) through the vectorized scan; ``solve_local_search`` is
the greedy + hill-climbing heuristic whose optimality gap tests measure
against the exact solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import placement_scan
from .errors import PlacementError, SizeLimitError
from .netsim import DeviceProfile, shannon_rate
from .rng import stream

ENUMERATION_GUARD = 10**6


@dataclass(frozen=True)
class CotStep:
    workload: float  # FLOPs
    handoff_size: float  # bits shipped to the next step

    def __post_init__(self):
        if self.workload <= 0:
            raise ValueError("step workload must be > 0")
        if self.handoff_size < 0:
            raise ValueError("handoff_size must be >= 0")


@dataclass(frozen=True)
class CotChain:
    """Ordered reasoning steps; as a graph, a path."""

    steps: tuple[CotStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("chain needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class Placement:
    """Step -> device assignment: ``assignment[s]`` is the device of step s."""

    assignment: tuple[int, ...]
    n_devices: int

    def __post_init__(self):
        for d in self.assignment:
            if not 0 <= d < self.n_devices:
                raise PlacementError(f"device index {d} out of range")


@dataclass(frozen=True)
class PlacementResult:
    placement: Placement | None
    cost: float
    feasible: bool
    solver: str
    n_feasible: int | None = None


def link_rates_from_gains(
    devices: list[DeviceProfile], gains, link_bandwidth: float, noise_density: float
) -> np.ndarray:
    """Full-mesh link rate matrix from a pairwise power-gain matrix."""
    n = len(devices)
    gains = np.asarray(gains, dtype=np.float64)
    if gains.shape != (n, n):
        raise PlacementError(f"gain matrix must be {n}x{n}, got {gains.shape}")
    rates = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                rates[a, b] = shannon_rate(
                    link_bandwidth, gains[a, b], devices[a].tx_power, noise_density
                )
    return rates


def step_memory(chain: CotChain, shard_bytes: float) -> np.ndarray:
    """Memory bytes a deployed step occupies: handoff buffer + model shard."""
    return np.array([s.handoff_size / 8.0 + shard_bytes for s in chain.steps])


def _cost_arrays(chain, devices, link_rates, shard_bytes):
    n_steps = len(chain)
    n_dev = len(devices)
    comp = np.empty((n_steps, n_dev))
    for s, step in enumerate(chain.steps):
        for d, dev in enumerate(devices):
            comp[s, d] = step.workload / dev.compute_rate
    comm = np.zeros((max(n_steps - 1, 0), n_dev, n_dev))
    for s in range(n_steps - 1):
        bits = chain.steps[s].handoff_size
        for a in range(n_dev):
            for b in range(n_dev):
                if a == b or bits == 0.0:
                    continue
                rate = link_rates[a, b]
                comm[s, a, b] = bits / rate if rate > 0 else np.inf
    mem = step_memory(chain, shard_bytes)
    cap = np.array([d.memory_capacity for d in devices])
    return comp, comm, mem, cap


def solve_exact(
    chain: CotChain,
    devices: list[DeviceProfile],
    link_rates: np.ndarray,
    shard_bytes: float = 0.0,
) -> PlacementResult:
    """Globally minimal placement by exhaustive scan (guard: D^S <= 10^6).

    Ties resolve to the lexicographically smallest device vector.  Returns
    an infeasible result when no capacity-feasible placement has finite cost.
    """
    n_steps, n_dev = len(chain), len(devices)
    if n_dev**n_steps > ENUMERATION_GUARD:
        raise SizeLimitError(
            f"{n_dev}^{n_steps} placements exceed the {ENUMERATION_GUARD} guard; "
            "use solve_local_search"
        )
    comp, comm, mem, cap = _cost_arrays(chain, devices, link_rates, shard_bytes)
    best_idx, best_cost, n_feasible = placement_scan(comp, comm, mem, cap)
    if best_idx < 0:
        return PlacementResult(None, math.inf, False, "exact", int(n_feasible))
    digits = []
    rem = int(best_idx)
    for _ in range(n_steps):
        digits.append(rem % n_dev)
        rem //= n_dev
    assignment = tuple(reversed(digits))
    return PlacementResult(
        Placement(assignment, n_dev), float(best_cost), True, "exact", int(n_feasible)
    )


def solve_local_search(
    chain: CotChain,
    devices: list[DeviceProfile],
    link_rates: np.ndarray,
    seed: int,
    iters: int,
    shard_bytes: float = 0.0,
) -> PlacementResult:
    """Greedy construction plus strict hill-climbing reassignment.

    ``iters=1`` returns the greedy placement; each further iteration is one
    improvement pass over the steps in a seeded order, moving a step to its
    best strictly-better feasible device.  Sideways moves are disallowed, so
    the search terminates; the result is deterministic per seed.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n_steps, n_dev = len(chain), len(devices)
    comp, comm, mem, cap = _cost_arrays(chain, devices, link_rates, shard_bytes)

    loads = np.zeros(n_dev)
    assignment: list[int] = []
    for s in range(n_steps):
        best_d, best_marginal = -1, math.inf
        for d in range(n_dev):
            if loads[d] + mem[s] > cap[d]:
                continue
            marginal = comp[s, d]
            if s > 0:
                marginal += comm[s - 1, assignment[s - 1], d]
            if marginal < best_marginal:
                best_marginal = marginal
                best_d = d
        if best_d < 0:
            return PlacementResult(None, math.inf, False, "local_search")
        assignment.append(best_d)
        loads[best_d] += mem[s]

    def total_cost(assign) -> float:
        cost = comp[0, assign[0]]
        for s in range(1, n_steps):
            cost += comm[s - 1, assign[s - 1], assign[s]]
            cost += comp[s, assign[s]]
        return cost

    rng = stream(seed, "cot.local_search")
    current = total_cost(assignment)
    for _ in range(iters - 1):
        improved = False
        for s in rng.permutation(n_steps):
            here = assignment[s]
            best_d, best_cost = here, current
            for d in range(n_dev):
                if d == here or loads[d] + mem[s] > cap[d]:
                    continue
                trial = assignment.copy()
                trial[s] = d
                c = total_cost(trial)
                if c < best_cost:
                    best_cost, best_d = c, d
            if best_d != here:
                loads[here] -= mem[s]
                loads[best_d] += mem[s]
                assignment[s] = best_d
                current = best_cost
                improved = True
        if not improved:
            break
    placement = Placement(tuple(int(d) for d in assignment), n_dev)
    return PlacementResult(placement, float(current), True, "local_search")
