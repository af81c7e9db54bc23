"""Independent reference implementations the tests check the solvers against.

Each one restates a model quantity directly from its definition (per-step
placement cost, the bounded loss, one drift-plus-penalty decision, the
Lindley queue recursion), sharing no code with the solver it checks.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from edgelam_sim.cot_placement import (
    CotChain,
    CotStep,
    Placement,
    link_rates_from_gains,
    step_memory,
)
from edgelam_sim.errors import PlacementError, SchedulingError, ShapeError
from edgelam_sim.netsim import DeviceProfile
from edgelam_sim.numerics import as_vector
from edgelam_sim.rng import stream

# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def as_prob_vector(data) -> np.ndarray:
    """Validate ``data`` as a probability vector (entries in [0,1], sum 1)."""
    p = as_vector(data)
    if p.size == 0:
        raise ShapeError("probability vector must be nonempty")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    return p


def softmax(z) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    z = as_vector(z)
    e = np.exp(z - z.max())
    return e / e.sum()


def bounded_cross_entropy(p, label: int, delta: float) -> float:
    """Cross-entropy with the log shifted: -ln((p_label + delta)/(1 + delta)).

    Zero at p_label = 1, capped at ln((1+delta)/delta) at p_label = 0.
    """
    p = as_prob_vector(p)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if not 0 <= label < p.size:
        raise ValueError(f"label {label} out of range for {p.size} classes")
    return float(-math.log((p[label] + delta) / (1.0 + delta)))


def bounded_ce_plabel_grad(p_label: float, delta: float) -> float:
    """d/dp_label of the bounded loss: -1/(p_label + delta)."""
    return -1.0 / (p_label + delta)


# ---------------------------------------------------------------------------
# chain placement
# ---------------------------------------------------------------------------


def indicator(placement: Placement) -> np.ndarray:
    """Binary step x device matrix x[s, d] of a placement."""
    x = np.zeros((len(placement.assignment), placement.n_devices), dtype=np.int64)
    x[np.arange(len(placement.assignment)), list(placement.assignment)] = 1
    return x


def validate_placement(
    chain: CotChain, placement: Placement, devices: list[DeviceProfile], shard_bytes: float
) -> None:
    """Constraint check; raises PlacementError on violation."""
    if len(placement.assignment) != len(chain):
        raise PlacementError(
            f"placement covers {len(placement.assignment)} steps, chain has {len(chain)}"
        )
    if placement.n_devices != len(devices):
        raise PlacementError("placement device count differs from the device list")
    x = indicator(placement)
    if not np.all(x.sum(axis=1) == 1):
        raise PlacementError("each step must sit on exactly one device")
    mem = step_memory(chain, shard_bytes)
    for d, dev in enumerate(devices):
        load = float(mem[x[:, d] == 1].sum())
        if load > dev.memory_capacity:
            raise PlacementError(
                f"device {dev.id} over capacity: {load} > {dev.memory_capacity}"
            )


def placement_cost(
    chain: CotChain,
    placement: Placement,
    devices: list[DeviceProfile],
    link_rates: np.ndarray,
    shard_bytes: float = 0.0,
) -> float:
    """End-to-end latency: per-step compute plus inter-device handoffs."""
    validate_placement(chain, placement, devices, shard_bytes)
    total = 0.0
    prev = None
    for s, step in enumerate(chain.steps):
        d = placement.assignment[s]
        if s > 0 and prev != d:
            bits = chain.steps[s - 1].handoff_size
            if bits > 0:
                rate = link_rates[prev, d]
                total += bits / rate if rate > 0 else math.inf
        total += step.workload / devices[d].compute_rate
        prev = d
    return total


def brute_force_placement(chain, devices, links, shard):
    """Cheapest feasible placement over all D^S, lexicographically first on ties."""
    best, best_cost = None, math.inf
    for assignment in itertools.product(range(len(devices)), repeat=len(chain)):
        placement = Placement(assignment, len(devices))
        try:
            cost = placement_cost(chain, placement, devices, links, shard)
        except PlacementError:
            continue  # over capacity
        if cost < best_cost:
            best, best_cost = placement, cost
    return best, best_cost


def make_random_instance(
    seed: int,
    n_steps: int,
    n_devices: int,
    tightness: float = 0.6,
) -> tuple[CotChain, list[DeviceProfile], np.ndarray, float]:
    """Seeded random instance: (chain, devices, link_rates, shard_bytes).

    ``tightness`` scales capacities: 1.0 means one device can barely host
    every step, lower is looser.
    """
    rng = stream(seed, "cot.instance")
    steps = tuple(
        CotStep(
            workload=float(rng.uniform(0.5e9, 4e9)),
            handoff_size=float(rng.uniform(1e5, 2e6)),
        )
        for _ in range(n_steps)
    )
    chain = CotChain(steps)
    shard_bytes = float(rng.uniform(1e5, 1e6))
    total_mem = float(step_memory(chain, shard_bytes).sum())
    devices = [
        DeviceProfile(
            id=f"d{i}",
            compute_rate=float(rng.uniform(0.5e9, 5e9)),
            memory_capacity=float(rng.uniform(tightness, 1.5) * total_mem),
            channel_gain=1.0,
            tx_power=float(rng.uniform(0.2, 1.0)),
        )
        for i in range(n_devices)
    ]
    gains = rng.uniform(0.05, 1.0, size=(n_devices, n_devices))
    link_rates = link_rates_from_gains(devices, gains, 1e6, 1e-9)
    return chain, devices, link_rates, shard_bytes


# ---------------------------------------------------------------------------
# drift-plus-penalty scheduling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VirtualQueue:
    """Backlog of admitted-but-unserved work on one device, in FLOPs."""

    device_id: str
    backlog: float = 0.0

    def __post_init__(self):
        if self.backlog < 0:
            raise ValueError("backlog must be >= 0")


def queue_update(q: VirtualQueue, arrival: float, service: float) -> VirtualQueue:
    """Lindley recursion: Q(t+1) = max(Q(t) + a(t) - b(t), 0)."""
    if arrival < 0 or service < 0:
        raise ValueError("arrival and service must be >= 0")
    return VirtualQueue(q.device_id, max(q.backlog + arrival - service, 0.0))


def drift_plus_penalty_decision(queues, candidates, call_loads, v, cost_fn):
    """Argmin over candidates of sum_i Q_i a_i(candidate) + V cost(candidate).

    ``queues`` maps device id to backlog; each candidate is a tuple giving
    the device of every call; ``call_loads`` aligns with calls.  Ties break
    lexicographically on the device-id tuple.
    """
    if not candidates:
        raise SchedulingError("candidate set is empty")
    if v < 0:
        raise ValueError("V must be >= 0")
    backlog = {
        dev: q.backlog if isinstance(q, VirtualQueue) else float(q)
        for dev, q in queues.items()
    }
    best_score = math.inf
    best = None
    for cand in sorted(candidates):
        if len(cand) != len(call_loads):
            raise ShapeError("candidate length != number of calls")
        drift = 0.0
        for dev, load in zip(cand, call_loads):
            drift += backlog[dev] * load
        score = drift + v * cost_fn(cand)
        if score < best_score:
            best_score = score
            best = cand
    return best
