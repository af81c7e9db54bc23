"""Online drift-plus-penalty scheduling of MoE expert microservices.

Each slot the gate picks top-k experts per layer; every resulting expert
call must run on one replica device.  The scheduler minimizes
``sum_i Q_i(t) * a_i(assignment) + V * cost(assignment)`` over the candidate
assignments of this slot (the classic one-shot bound on the Lyapunov drift
plus V times the penalty), then updates every device's virtual queue with
``Q(t+1) = max(Q + arrivals - service, 0)``.

Every call of a slot sees the same queues, so the objective separates per
call: each call goes to the replica minimizing ``Q[d]*load + V*cost[d]``,
ties to the lowest device id.  One array of those scores per slot is the
exact minimizer; no assignment is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import assignment_scores
from .errors import SchedulingError
from .netsim import (
    DeviceProfile,
    comm_latency,
    energy,
    fading_sequence,
    shannon_rate,
)
from .numerics import as_vector
from .rng import stream


@dataclass(frozen=True)
class ExpertMicroservice:
    """One virtualized expert: its cost per call and where replicas live."""

    id: str
    workload_per_call: float  # FLOPs
    output_size: float  # bits
    replicas: tuple[str, ...]

    def __post_init__(self):
        if self.workload_per_call <= 0:
            raise ValueError(f"expert {self.id}: workload must be > 0")
        if self.output_size < 0:
            raise ValueError(f"expert {self.id}: output_size must be >= 0")
        if not self.replicas:
            raise ValueError(f"expert {self.id}: replica set must be nonempty")


def gate_select(scores, k: int) -> tuple[int, ...]:
    """Indices of the top-k scores, ties broken toward the lower index."""
    s = as_vector(scores)
    if not 1 <= k <= s.size:
        raise ValueError(f"k={k} outside [1, {s.size}]")
    picked = np.argsort(-s, kind="stable")[:k]
    return tuple(sorted(int(i) for i in picked))


# ---------------------------------------------------------------------------
# orchestration loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotRecord:
    slot: int
    assignment: tuple[tuple[str, str], ...]  # (expert id, device id) per call
    slot_cost: float
    backlogs: dict[str, float]


@dataclass(frozen=True)
class OrchestrationResult:
    records: list[SlotRecord]
    time_avg_cost: float
    time_avg_backlog: float
    max_backlog: float


def orchestrate(
    devices: list[DeviceProfile],
    experts: list[ExpertMicroservice],
    n_slots: int,
    v: float,
    top_k: int,
    seed: int,
    bandwidth: dict[str, float],
    noise_density: float,
    layers_per_task: int = 1,
    load_jitter: float = 0.0,
    w_lat: float = 1.0,
    w_energy: float = 0.0,
    failed_devices: frozenset[str] = frozenset(),
    arrival_prob: float = 1.0,
    fading_sigma: float | None = None,
) -> OrchestrationResult:
    """Run the per-slot gate -> schedule -> queue-update loop.

    A slot lasts one second, so a device serves ``compute_rate`` FLOPs per
    slot.  Gate scores and per-call load jitter come from named seeded
    streams, so the whole trace is a pure function of (config, seed).  Cost of a call on
    a device is ``w_lat * upload latency + w_energy * upload energy``.  The
    channel is static unless ``fading_sigma`` is set, in which case every
    device's gain is modulated by its seeded per-slot fading sequence.
    Replicas on a dead uplink (zero bandwidth, gain or power) are dropped
    for experts that have output to send; an expert left without replicas
    raises ``SchedulingError``.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    if not (v >= 0 and math.isfinite(v)):
        raise ValueError("V must be finite and >= 0")
    order = sorted(devices, key=lambda d: d.id)
    dev_index = {d.id: i for i, d in enumerate(order)}
    expert_ids = [e.id for e in experts]
    dead_uplink = {
        d.id
        for d in order
        if bandwidth.get(d.id, 0.0) == 0.0 or d.channel_gain == 0.0 or d.tx_power == 0.0
    }

    alive_replicas = []
    for e in experts:
        alive = tuple(sorted(r for r in e.replicas if r not in failed_devices))
        if not alive:
            raise SchedulingError(f"expert {e.id} has no live replicas")
        for r in alive:
            if r not in dev_index:
                raise SchedulingError(f"expert {e.id} replica {r} is not a device")
        if e.output_size > 0:
            # a replica that cannot upload its output never serves a call
            alive = tuple(r for r in alive if r not in dead_uplink)
            if not alive:
                raise SchedulingError(f"expert {e.id} has no replica with a live uplink")
        alive_replicas.append([dev_index[r] for r in alive])
    # live replica indices per expert in id order, padded with -1
    width = max(len(rl) for rl in alive_replicas)
    replica_index = np.array([rl + [-1] * (width - len(rl)) for rl in alive_replicas])

    if fading_sigma is None:
        fading = np.ones((n_slots, len(order)))
    else:
        fading = np.column_stack(
            [fading_sequence(seed, d.id, n_slots, fading_sigma) for d in order]
        )
    service = np.array([d.compute_rate for d in order])

    def slot_cost_matrix(slot: int) -> np.ndarray:
        """Cost of one call of each expert on each device at this slot."""
        out = np.empty((len(experts), len(order)))
        for j, d in enumerate(order):
            rate = shannon_rate(
                bandwidth.get(d.id, 0.0),
                d.channel_gain * fading[slot, j],
                d.tx_power,
                noise_density,
            )
            for ei, e in enumerate(experts):
                lat = comm_latency(e.output_size, rate)
                if math.isinf(lat):
                    out[ei, j] = math.inf  # starved link, regardless of weights
                else:
                    out[ei, j] = w_lat * lat + w_energy * energy(d.tx_power, lat)
        return out

    base_cost = slot_cost_matrix(0)

    gate_rng = stream(seed, "moe.gate")
    jitter_rng = stream(seed, "moe.jitter")
    arrival_rng = stream(seed, "moe.arrivals")

    queues = np.zeros(len(order))
    records: list[SlotRecord] = []
    cost_sum = 0.0
    backlog_sum = 0.0
    max_backlog = 0.0

    for slot in range(n_slots):
        if fading_sigma is not None and slot > 0:
            base_cost = slot_cost_matrix(slot)
        calls: list[int] = []  # expert index per call
        if arrival_rng.random() <= arrival_prob:
            for _ in range(layers_per_task):
                calls.extend(gate_select(gate_rng.random(len(experts)), top_k))

        arrivals = np.zeros(len(order))
        assignment: tuple[tuple[str, str], ...] = ()
        slot_cost = 0.0
        if calls:
            loads = np.array([experts[e].workload_per_call for e in calls])
            if load_jitter > 0.0:
                loads = loads * (
                    1.0 + load_jitter * (2.0 * jitter_rng.random(len(calls)) - 1.0)
                )
            call_cost = base_cost[calls, :]
            options = replica_index[calls]
            scores = assignment_scores(options, queues, loads, call_cost, v)
            chosen = options[np.arange(len(calls)), np.argmin(scores, axis=1)]
            for c, j in enumerate(chosen):
                arrivals[j] += loads[c]
                slot_cost += float(call_cost[c, j])  # sums overflow to inf quietly
            assignment = tuple(
                (expert_ids[calls[c]], order[j].id) for c, j in enumerate(chosen)
            )

        queues = np.maximum(queues + arrivals - service, 0.0)
        cost_sum += slot_cost
        backlog_sum += float(queues.sum())
        max_backlog = max(max_backlog, float(queues.max()))
        records.append(
            SlotRecord(
                slot,
                assignment,
                slot_cost,
                {d.id: float(queues[j]) for j, d in enumerate(order)},
            )
        )

    return OrchestrationResult(
        records,
        cost_sum / n_slots,
        backlog_sum / n_slots,
        max_backlog,
    )
