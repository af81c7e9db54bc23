"""Online drift-plus-penalty scheduling of MoE expert microservices.

Each slot the gate picks top-k experts per layer; every resulting expert
call must run on one replica device.  The scheduler minimizes
``sum_i Q_i(t) * a_i(assignment) + V * cost(assignment)`` over the candidate
assignments of this slot (the classic one-shot bound on the Lyapunov drift
plus V times the penalty), then updates every device's virtual queue with
``Q(t+1) = max(Q + arrivals - service, 0)``.

Every call of a slot sees the same queues, so the objective separates per
call: each call goes to the replica minimizing ``Q[d]*load + V*cost[d]``,
ties to the lowest device id.  Taking each call's argmin is the exact
minimizer; no assignment is enumerated.

The run has two phases.  No random draw depends on a scheduling decision,
so everything but the queues is made up front, one block each: the
arrivals, the gate scores of every arrived slot and layer (top-k taken for
all rows at once), the load jitter, and the call costs (rebuilt per arrived
slot only when the channel fades).  A block draw from a stream yields the
same doubles as the scalar draws it replaces, in the same order.  Only the
queue recursion stays sequential, in plain Python floats: per slot each
call's argmin over its replicas, then the queue update.  The arrivals of a
slot are added per device in call order, slot costs are summed in call
order and the run's sums over slots sequentially, so every value equals the
one a slot-by-slot loop computes, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._accel import assignment_scores
from .errors import DomainError, SchedulingError
from .netsim import DeviceProfile, ExpertMicroservice, shannon_rate
from .rng import stream


def gate_select(scores, k: int) -> np.ndarray:
    """Indices of the top-k scores of each row, ascending; ties go to the lower index.

    ``scores`` is one row of gate scores or a 2-D block of rows; the result
    has the same leading shape and k columns.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= s.shape[-1]:
        raise ValueError(f"k={k} outside [1, {s.shape[-1]}]")
    return np.sort(np.argsort(-s, axis=-1, kind="stable")[..., :k], axis=-1)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrchestrationResult:
    """The trace of a run as arrays, one row per slot or per arrived slot.

    Slot ``arrived.nonzero()[0][i]`` ran the calls of row i of ``calls``
    (expert indices, in call order) on the devices in row i of ``chosen``
    (indices into ``device_ids``).  ``backlogs[t]`` holds every device's
    queue after slot t's update; ``slot_cost[t]`` is 0.0 where no task
    arrived.
    """

    device_ids: tuple[str, ...]  # sorted
    expert_ids: tuple[str, ...]  # in the order given
    arrived: np.ndarray  # (n_slots,) bool
    calls: np.ndarray  # (n_arrived, calls per slot) expert index
    chosen: np.ndarray  # (n_arrived, calls per slot) device index
    slot_cost: np.ndarray  # (n_slots,)
    backlogs: np.ndarray  # (n_slots, n_devices)
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
    """Run the gate -> schedule -> queue-update loop for ``n_slots`` slots.

    A slot lasts one second, so a device serves ``compute_rate`` FLOPs per
    slot.  Arrivals, gate scores and per-call load jitter come from named
    seeded streams, so the whole trace is a pure function of (config, seed).
    Cost of a call on a device is ``w_lat * upload latency + w_energy *
    upload energy``.  The channel is static unless ``fading_sigma`` is set,
    in which case every device's gain is modulated by its seeded per-slot
    fading sequence.  Replicas on a dead uplink (zero bandwidth, or a gain
    times power that is 0, as ``shannon_rate`` tests it) are dropped for
    experts that have output to send; an expert left without replicas
    raises ``SchedulingError``, and so does a V whose product with a finite
    call cost overflows; a backlog, a backlog times a load, or a score that
    overflows raises ``FloatingPointError``.
    """
    if n_slots < 1:
        raise ValueError("need at least one slot")
    if not (v >= 0 and math.isfinite(v)):
        raise ValueError("V must be finite and >= 0")
    # a call's load scales by 1 + load_jitter * (2u - 1), u in [0, 1): with
    # a jitter of 1 or more it can turn negative and shrink a backlog
    if not 0.0 <= load_jitter < 1.0:
        raise ValueError("load_jitter must lie in [0, 1)")
    if not 0.0 <= arrival_prob <= 1.0:
        raise ValueError("arrival_prob must lie in [0, 1]")
    order = sorted(devices, key=lambda d: d.id)
    dev_index = {d.id: i for i, d in enumerate(order)}
    dead_uplink = {
        d.id
        for d in order
        if bandwidth.get(d.id, 0.0) == 0.0 or d.channel_gain * d.tx_power == 0.0
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

    # --- draw first: nothing below depends on a scheduling decision --------
    arrived = stream(seed, "moe.arrivals").random(n_slots) <= arrival_prob
    at = np.flatnonzero(arrived)
    calls = gate_select(
        stream(seed, "moe.gate").random((at.size * layers_per_task, len(experts))), top_k
    ).reshape(at.size, layers_per_task * top_k)
    loads = np.array([e.workload_per_call for e in experts])[calls]
    if load_jitter > 0.0:
        loads *= 1.0 + load_jitter * (2.0 * stream(seed, "moe.jitter").random(calls.shape) - 1.0)
    fading = None
    if fading_sigma is not None:
        fading = np.column_stack(
            [fading_sequence(seed, d.id, n_slots, fading_sigma)[at] for d in order]
        )
    # (1, E, D) on a static channel, else one (E, D) matrix per arrived slot
    cost = _cost_matrix(order, experts, bandwidth, noise_density, w_lat, w_energy, fading)
    # the cost matrix of arrived slot i is cost[i], or cost[0] on a static channel
    cost_of = np.arange(at.size) if fading is not None else np.zeros(at.size, dtype=np.intp)

    # --- the queue recursion, slot by slot, in Python floats ---------------
    service = [d.compute_rate for d in order]
    queues = [0.0] * len(order)
    backlogs = np.empty((n_slots, len(order)))
    chosen = np.empty(calls.shape, dtype=np.intp)
    table = None if fading is not None else cost[0].tolist()
    i = 0
    for slot, has_task in enumerate(arrived.tolist()):
        if has_task:
            slot_calls, slot_loads = calls[i].tolist(), loads[i].tolist()
            if fading is not None:
                table = cost[i].tolist()
            picked = assignment_scores(
                [alive_replicas[e] for e in slot_calls], queues, slot_loads,
                [table[e] for e in slot_calls], v,
            )
            chosen[i] = picked
            # each device's arrivals, added in call order
            added = [0.0] * len(order)
            for d, load in zip(picked, slot_loads):
                added[d] += load
            queues = [max(q + a - s, 0.0) for q, a, s in zip(queues, added, service)]
            if math.inf in queues:
                raise FloatingPointError("overflow in a device backlog")
            i += 1
        else:
            queues = [max(q - s, 0.0) for q, s in zip(queues, service)]
        backlogs[slot] = queues

    # each row sums as numpy sums one device vector; cumsum adds in order, as
    # a running float sum does; the sums over slots overflow to inf quietly
    backlog_sums = backlogs.sum(axis=1)
    slot_cost = np.zeros(n_slots)
    with np.errstate(over="ignore"):
        taken = cost[cost_of[:, None], calls, chosen]
        slot_cost[at] = np.cumsum(taken, axis=1)[:, -1]
        cost_sum = float(np.cumsum(slot_cost)[-1])
        backlog_sum = float(np.cumsum(backlog_sums)[-1])
    return OrchestrationResult(
        device_ids=tuple(d.id for d in order),
        expert_ids=tuple(e.id for e in experts),
        arrived=arrived,
        calls=calls,
        chosen=chosen,
        slot_cost=slot_cost,
        backlogs=backlogs,
        time_avg_cost=cost_sum / n_slots,
        time_avg_backlog=backlog_sum / n_slots,
        max_backlog=float(backlogs.max()),
    )


def trace_rows(result: OrchestrationResult) -> list[list]:
    """One row per slot: slot, the calls as ``expert=device`` joined by ``;``
    (empty where no task arrived), slot cost and every device's backlog."""
    pairs = np.array(
        [[f"{e}={d}" for d in result.device_ids] for e in result.expert_ids], dtype=object
    )
    placed = iter(";".join(row) for row in pairs[result.calls, result.chosen].tolist())
    return [
        [slot, next(placed) if arrived else "", cost, *backlogs]
        for slot, (arrived, cost, backlogs) in enumerate(
            zip(result.arrived.tolist(), result.slot_cost.tolist(), result.backlogs.tolist())
        )
    ]


def fading_sequence(seed: int, device_id: str, n_slots: int, sigma: float) -> np.ndarray:
    """Seeded per-slot multiplicative channel gains (unit-median lognormal).

    Renaming the stream ``netsim.fading.{id}`` would change the bits of
    every faded run.
    """
    if n_slots < 0:
        raise DomainError("n_slots must be >= 0")
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    rng = stream(seed, f"netsim.fading.{device_id}")
    return np.exp(sigma * rng.standard_normal(n_slots))


def _cost_matrix(order, experts, bandwidth, noise_density, w_lat, w_energy, fading=None):
    """Cost of one call of each expert on each device, (1, E, D), or
    (slots, E, D) under a ``fading`` (slots, D) gain sequence.

    The latency is bits / rate, 0 for no bits, and +inf on a starved link
    whatever the weights.  The arithmetic is that of Python floats: an
    overflow is inf, without a warning.
    """
    gains = np.array([[d.channel_gain for d in order]])
    if fading is not None:
        gains = gains * fading
    rate = np.array(
        [
            [
                shannon_rate(bandwidth.get(d.id, 0.0), g, d.tx_power, noise_density)
                for d, g in zip(order, row)
            ]
            for row in gains.tolist()
        ]
    ).reshape(gains.shape)[:, None, :]
    bits = np.array([e.output_size for e in experts])[:, None]
    power = np.array([d.tx_power for d in order])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lat = np.where(bits == 0.0, 0.0, bits / rate)
        cost = w_lat * lat + w_energy * (power * lat)
    return np.where(np.isinf(lat), math.inf, cost)
