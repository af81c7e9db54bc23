"""Independent reference implementations the tests check the solvers against.

Each one restates a model quantity directly from its definition (per-step
placement cost, the bounded loss, one drift-plus-penalty decision, the
Lindley queue recursion, a whole MoE run one slot and one draw at a time),
sharing no code with the solver it checks beyond the channel model and the
named random streams.  The per-device unlearning loops check only how the
gradients are batched, so they reuse the library's loss, subspace,
projection and noise, and restate the gradient and the retained data.
The Gram-Schmidt without a screen projects every row exactly, so it checks
that the screen drops only rows the exact keep test would drop.  The
nested fedft selection calls ``shannon_rate`` at every bandwidth bisection
step, so it checks the solver's inline rate arithmetic bit for bit.
The placement oracles take assignment tuples and compute step memory
themselves.  ``PhiloxStream`` restates the uniform, permutation and
bounded-integer draws of ``rng.stream`` in Python ints, so a change in the
generator behind the streams names the distribution that moved.
"""

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from edgelam_sim.cot_placement import CotChain, CotStep, link_rates_from_gains
from edgelam_sim.errors import PlacementError, SchedulingError, ShapeError
from edgelam_sim.netsim import (
    DeviceProfile,
    comm_latency,
    comp_latency,
    shannon_rate,
)
from edgelam_sim.rng import stream, stream_word
from edgelam_sim.unlearn import (
    UnlearnRoundRecord,
    add_dp_noise,
    bce_dataset_loss,
    forget_loss,
    orthogonal_project,
    retained_subspace,
)

# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------


def finite_vector(data) -> np.ndarray:
    """``data`` as a 1-D float64 array of finite numbers."""
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def as_prob_vector(data) -> np.ndarray:
    """Validate ``data`` as a probability vector (entries in [0,1], sum 1)."""
    p = finite_vector(data)
    if p.size == 0:
        raise ShapeError("probability vector must be nonempty")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    return p


def softmax(z) -> np.ndarray:
    """Numerically stable softmax (max-subtracted)."""
    z = finite_vector(z)
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


def indicator(assignment: tuple[int, ...], n_devices: int) -> np.ndarray:
    """Binary step x device matrix x[s, d] of a placement."""
    x = np.zeros((len(assignment), n_devices), dtype=np.int64)
    x[np.arange(len(assignment)), list(assignment)] = 1
    return x


def validate_placement(
    chain: CotChain, assignment: tuple[int, ...], devices: list[DeviceProfile],
    shard_bytes: float,
) -> None:
    """Constraint check; raises PlacementError on violation.

    A step occupies its handoff buffer (bits / 8 bytes) plus the model
    shard; a device's load sums its steps in step order from 0.0.
    """
    if len(assignment) != len(chain):
        raise PlacementError(
            f"placement covers {len(assignment)} steps, chain has {len(chain)}"
        )
    if any(not 0 <= d < len(devices) for d in assignment):
        raise PlacementError(f"device index out of range in {assignment}")
    x = indicator(assignment, len(devices))
    if not np.all(x.sum(axis=1) == 1):
        raise PlacementError("each step must sit on exactly one device")
    for d, dev in enumerate(devices):
        load = 0.0
        for s, step in enumerate(chain.steps):
            if x[s, d]:
                load += step.handoff_size / 8 + shard_bytes
        if load > dev.memory_capacity:
            raise PlacementError(
                f"device {dev.id} over capacity: {load} > {dev.memory_capacity}"
            )


def placement_cost(
    chain: CotChain,
    assignment: tuple[int, ...],
    devices: list[DeviceProfile],
    link_rates: list[list[float]],
    shard_bytes: float = 0.0,
) -> float:
    """End-to-end latency: per-step compute plus inter-device handoffs."""
    validate_placement(chain, assignment, devices, shard_bytes)
    total = 0.0
    prev = None
    for s, step in enumerate(chain.steps):
        d = assignment[s]
        if s > 0 and prev != d:
            bits = chain.steps[s - 1].handoff_size
            if bits > 0:
                rate = link_rates[prev][d]
                total += bits / rate if rate > 0 else math.inf
        total += step.workload / devices[d].compute_rate
        prev = d
    return total


def brute_force_placement(chain, devices, links, shard):
    """Cheapest feasible assignment over all D^S, lexicographically first on ties."""
    best, best_cost = None, math.inf
    for assignment in itertools.product(range(len(devices)), repeat=len(chain)):
        try:
            cost = placement_cost(chain, assignment, devices, links, shard)
        except PlacementError:
            continue  # over capacity
        if cost < best_cost:
            best, best_cost = assignment, cost
    return best, best_cost


def scan_placements(comp, comm, mem, cap):
    """(best_index, best_cost, n_feasible) by scoring all D^S placements in turn.

    The tables are nested lists, indexed as ``placement_scan`` reads them.
    Placements run in lexicographic order (index = device vector in base D,
    step 0 most significant); a device's load is its steps' ``mem`` summed
    in step order from 0.0, the cost ``comp[0]`` then ``+= comm``, ``+=
    comp`` step by step, and only a strictly cheaper feasible placement
    replaces the best one.  best_index is -1 when none has a finite cost.
    """
    n_steps, n_dev = len(comp), len(cap)
    best_idx, best_cost, n_feasible = -1, math.inf, 0
    for idx, p in enumerate(itertools.product(range(n_dev), repeat=n_steps)):
        loads = [0.0] * n_dev
        for s, d in enumerate(p):
            loads[d] += mem[s]
        if any(load > c for load, c in zip(loads, cap)):
            continue
        n_feasible += 1
        cost = comp[0][p[0]]
        for s in range(1, n_steps):
            cost += comm[s - 1][p[s - 1]][p[s]]
            cost += comp[s][p[s]]
        if cost < best_cost:
            best_idx, best_cost = idx, cost
    return best_idx, best_cost, n_feasible


def make_random_instance(
    seed: int,
    n_steps: int,
    n_devices: int,
    tightness: float = 0.6,
) -> tuple[CotChain, list[DeviceProfile], list[list[float]], float]:
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
    total_mem = float(np.sum([step.handoff_size / 8 + shard_bytes for step in steps]))
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
    gains = rng.uniform(0.05, 1.0, size=(n_devices, n_devices)).tolist()
    link_rates = link_rates_from_gains(devices, gains, 1e6, 1e-9)
    return chain, devices, link_rates, shard_bytes


# ---------------------------------------------------------------------------
# device selection and bandwidth allocation
# ---------------------------------------------------------------------------


def min_bandwidth(bits, gain, power, n0, comm_budget, b_cap):
    """Minimal bandwidth so that ``bits`` upload within ``comm_budget`` s.

    inf when even ``b_cap`` Hz cannot achieve the required rate.
    """
    if bits == 0.0:
        return 0.0
    if comm_budget <= 0.0:
        return math.inf
    required = bits / comm_budget
    if shannon_rate(b_cap, gain, power, n0) < required:
        return math.inf
    lo, hi = 0.0, b_cap
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        if shannon_rate(mid, gain, power, n0) >= required:
            hi = mid
        else:
            lo = mid
    return hi


def subset_min_latency(profiles, total_bandwidth, upload_bits, local_flops, noise_density):
    """Minimal achievable max per-device latency of one subset, by its own bisection.

    At each target latency tau every device needs the minimal bandwidth
    putting its upload inside tau minus its compute time; tau is feasible
    iff those fit in the band.  tau is doubled until feasible, then bisected
    64 times, and the slack is spread by scaling every share up.  Returns
    (latency, allocation); (inf, {}) when the subset can never finish.
    """
    comp = {p.id: local_flops[p.id] / p.compute_rate for p in profiles}
    if any(upload_bits[p.id] > 0 and p.channel_gain * p.tx_power == 0.0 for p in profiles):
        return math.inf, {}

    def need(tau):
        return {
            p.id: min_bandwidth(upload_bits[p.id], p.channel_gain, p.tx_power,
                                noise_density, tau - comp[p.id], total_bandwidth)
            for p in profiles
        }

    def feasible(alloc):
        return sum(alloc.values()) <= total_bandwidth  # an inf share never fits

    lo = max(comp.values())
    if all(upload_bits[p.id] == 0.0 for p in profiles):
        return lo, {p.id: 0.0 for p in profiles}
    hi = lo + 1.0
    for _ in range(100):
        if feasible(need(hi)):
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        return math.inf, {}
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if feasible(need(mid)):
            hi = mid
        else:
            lo = mid
    alloc = need(hi)
    used = sum(alloc.values())
    if used > 0.0:
        factor = total_bandwidth / used
        alloc = {dev: b * factor for dev, b in alloc.items()}
        while sum(alloc.values()) > total_bandwidth:
            worst = max(alloc, key=alloc.get)
            alloc[worst] = math.nextafter(alloc[worst], 0.0)
    latency = max(
        comp[p.id] + comm_latency(
            upload_bits[p.id],
            shannon_rate(alloc[p.id], p.channel_gain, p.tx_power, noise_density))
        for p in profiles
    )
    return latency, alloc


def left_sum(values):
    """Left-to-right float sum, the fold ``sum`` was up to Python 3.11."""
    total = 0.0
    for v in values:
        total += v
    return total


def nested_selection(profiles, total_bandwidth, upload_bits, local_flops, deadline,
                     noise_density):
    """The selection as it was solved with ``shannon_rate`` in every bisection step.

    The same round-latency bisection as ``fedft.select_devices_and_bandwidth``,
    restated with each device's b_i(tau) bisected over ``shannon_rate`` calls
    (``min_bandwidth``), so the two agree bit for bit.  Returns (ids,
    bandwidth, latency); raises ``SchedulingError`` when no subset fits.
    """
    comp = {p.id: comp_latency(local_flops[p.id], p.compute_rate) for p in profiles}
    by_id = {p.id: p for p in profiles}

    def need(p, tau):
        bits = upload_bits[p.id]
        if bits == 0.0:
            return 0.0 if comp[p.id] <= tau else math.inf
        if comp[p.id] >= tau or p.channel_gain * p.tx_power == 0.0:
            return math.inf
        return min_bandwidth(bits, p.channel_gain, p.tx_power, noise_density,
                             tau - comp[p.id], total_bandwidth)

    def ranked(tau):
        return sorted((need(p, tau), p.id) for p in profiles)

    k = 0
    used = 0.0
    for b, _ in ranked(deadline):
        used += b
        if used > total_bandwidth:
            break
        k += 1
    while k > 0:
        lo, hi = min(comp.values()), min(deadline, sys.float_info.max)
        while lo < (mid := 0.5 * lo + 0.5 * hi) < hi:
            if left_sum(b for b, _ in ranked(mid)[:k]) <= total_bandwidth:
                hi = mid
            else:
                lo = mid
        alloc = dict(sorted((dev, b) for b, dev in ranked(hi)[:k]))
        used = left_sum(alloc.values())
        if used > 0.0:
            factor = total_bandwidth / used
            alloc = {dev: b * factor for dev, b in alloc.items()}
            while left_sum(alloc.values()) > total_bandwidth:
                worst = max(alloc, key=alloc.get)
                alloc[worst] = math.nextafter(alloc[worst], 0.0)
        latency = max(
            comp[dev] + comm_latency(upload_bits[dev], shannon_rate(
                b, by_id[dev].channel_gain, by_id[dev].tx_power, noise_density))
            for dev, b in alloc.items()
        )
        if latency <= deadline:
            return tuple(alloc), alloc, latency
        k -= 1
    raise SchedulingError("no device subset meets the deadline; raise deadline or bandwidth")


def exhaustive_selection(profiles, total_bandwidth, upload_bits, local_flops,
                         deadline, noise_density):
    """Solve every subset, largest size first, keyed on (-size, latency, ids).

    Returns (ids, latency, bandwidth) of the winner, or None when no subset
    meets the deadline.
    """
    best = None
    order = sorted(profiles, key=lambda p: p.id)
    for size in range(len(order), 0, -1):
        for combo in itertools.combinations(order, size):
            latency, alloc = subset_min_latency(
                list(combo), total_bandwidth, upload_bits, local_flops, noise_density
            )
            if latency > deadline:
                continue
            key = (-size, latency, tuple(p.id for p in combo))
            if best is None or key < best[0]:
                best = (key, alloc)
        if best is not None:
            return best[0][2], best[0][1], best[1]
    return None


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


@dataclass(frozen=True)
class SlotRecord:
    """One slot of an MoE run: each call's (expert id, device id), the
    slot's cost and every device's backlog after the update."""

    slot: int
    assignment: tuple[tuple[str, str], ...]
    slot_cost: float
    backlogs: dict[str, float]


@dataclass(frozen=True)
class ReferenceRun:
    records: list[SlotRecord]
    time_avg_cost: float
    time_avg_backlog: float
    max_backlog: float


def slot_records(result) -> list[SlotRecord]:
    """Per-slot view of the arrays of an ``OrchestrationResult``."""
    calls = iter(zip(result.calls.tolist(), result.chosen.tolist()))
    out = []
    for slot, arrived in enumerate(result.arrived.tolist()):
        assignment = ()
        if arrived:
            experts, devices = next(calls)
            assignment = tuple(
                (result.expert_ids[e], result.device_ids[d]) for e, d in zip(experts, devices)
            )
        backlogs = dict(zip(result.device_ids, result.backlogs[slot].tolist()))
        out.append(SlotRecord(slot, assignment, float(result.slot_cost[slot]), backlogs))
    return out


def gate_rule(scores, k: int) -> tuple[int, ...]:
    """Top-k indices of one score row, ascending; ties go to the lower index."""
    return tuple(sorted(sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]))


def orchestrate_per_slot(
    devices, experts, n_slots, v, top_k, seed, bandwidth, noise_density,
    layers_per_task=1, load_jitter=0.0, w_lat=1.0, w_energy=0.0,
    failed_devices=frozenset(), arrival_prob=1.0, fading_sigma=None,
) -> ReferenceRun:
    """Drift-plus-penalty scheduling one slot at a time, one draw at a time.

    Every slot draws its arrival, then its gate rows and jitter, from the
    same named streams as the scheduler, builds its cost matrix from the
    scalar channel model, and places each call on the live replica with the
    least ``Q[d]*load + V*cost[d]`` (the lowest device id on ties), scoring
    one replica at a time.
    """
    order = sorted(devices, key=lambda d: d.id)
    ids = [d.id for d in order]
    dead = {
        d.id for d in order
        if bandwidth.get(d.id, 0.0) == 0.0 or d.channel_gain == 0.0 or d.tx_power == 0.0
    }
    live = []
    for e in experts:
        alive = sorted(r for r in e.replicas if r not in failed_devices)
        if not alive:
            raise SchedulingError(f"expert {e.id} has no live replicas")
        if any(r not in ids for r in alive):
            raise SchedulingError(f"expert {e.id} has a replica that is not a device")
        if e.output_size > 0:
            alive = [r for r in alive if r not in dead]
            if not alive:
                raise SchedulingError(f"expert {e.id} has no replica with a live uplink")
        live.append([ids.index(r) for r in alive])
    # unit-median lognormal gains, one named stream per device
    fading = np.ones((n_slots, len(order))) if fading_sigma is None else np.column_stack([
        np.exp(fading_sigma * stream(seed, f"netsim.fading.{i}").standard_normal(n_slots))
        for i in ids
    ])

    def cost(slot, e, j):
        d = order[j]
        rate = shannon_rate(bandwidth.get(d.id, 0.0), d.channel_gain * fading[slot, j],
                            d.tx_power, noise_density)
        lat = comm_latency(e.output_size, rate)
        return math.inf if math.isinf(lat) else w_lat * lat + w_energy * (d.tx_power * lat)

    gate_rng = stream(seed, "moe.gate")
    jitter_rng = stream(seed, "moe.jitter")
    arrival_rng = stream(seed, "moe.arrivals")
    service = np.array([d.compute_rate for d in order])
    queues = np.zeros(len(order))
    records, cost_sum, backlog_sum, max_backlog = [], 0.0, 0.0, 0.0
    for slot in range(n_slots):
        calls = []
        if arrival_rng.random() <= arrival_prob:
            for _ in range(layers_per_task):
                calls.extend(gate_rule(gate_rng.random(len(experts)).tolist(), top_k))
        loads = [experts[e].workload_per_call for e in calls]
        if calls and load_jitter > 0.0:
            draws = jitter_rng.random(len(calls)).tolist()
            loads = [w * (1.0 + load_jitter * (2.0 * r - 1.0)) for w, r in zip(loads, draws)]
        arrivals = np.zeros(len(order))
        assignment, slot_cost = [], 0.0
        for e, load in zip(calls, loads):
            best, best_score = None, math.inf
            for j in live[e]:
                c = cost(slot, experts[e], j)
                penalty = (math.inf if math.isinf(c) else 0.0) if v == 0.0 else v * c
                score = float(queues[j]) * load + penalty
                if best is None or score < best_score:
                    best, best_score = j, score
            arrivals[best] += load
            slot_cost += cost(slot, experts[e], best)
            assignment.append((experts[e].id, ids[best]))
        queues = np.maximum(queues + arrivals - service, 0.0)
        cost_sum += slot_cost
        backlog_sum += float(queues.sum())
        max_backlog = max(max_backlog, float(queues.max()))
        records.append(SlotRecord(slot, tuple(assignment), slot_cost,
                                  dict(zip(ids, queues.tolist()))))
    return ReferenceRun(records, cost_sum / n_slots, backlog_sum / n_slots, max_backlog)


# ---------------------------------------------------------------------------
# Gram-Schmidt, every row projected exactly
# ---------------------------------------------------------------------------


def gram_schmidt_unscreened(vectors, tol):
    """Two-pass modified Gram-Schmidt with no screen: every row is projected
    against the basis so far, one basis vector at a time, and kept iff its
    residual norm is at least ``tol`` times its input norm."""
    basis = []
    for v in vectors:
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            continue
        residual = v
        for _ in range(2):
            for u in basis:
                residual = residual - np.dot(residual, u) * u
        r_norm = float(np.linalg.norm(residual))
        if r_norm < tol * v_norm:
            continue
        basis.append(residual / r_norm)
    return basis


# ---------------------------------------------------------------------------
# federated unlearning, one device at a time
# ---------------------------------------------------------------------------


def bce_grad_one_dataset(w, x, labels, delta):
    """Bounded-CE gradient over one 2-D dataset, by row/label indexing."""
    m = x.shape[0]
    logits = x @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(m)
    p_label = probs[rows, labels]
    coeff = probs * (p_label / (p_label + delta))[:, None]
    coeff[rows, labels] -= p_label / (p_label + delta)
    return (coeff.T @ x) / m


def _own_arrays(state):
    """Each device's data as its own arrays, as the per-device loops kept it."""
    return {dev: (x.copy(), y.copy()) for dev, (x, y) in state.datasets.items()}


def pretrain_per_device(state, lr, rounds, delta):
    """Federated descent with one gradient call per device per round."""
    datasets = _own_arrays(state)
    sizes = {dev: x.shape[0] for dev, (x, _) in datasets.items()}
    total = float(sum(sizes.values()))
    for _ in range(rounds):
        grad = np.zeros_like(state.global_weights)
        for dev in sorted(datasets):
            x, labels = datasets[dev]
            grad += (sizes[dev] / total) * bce_grad_one_dataset(
                state.global_weights, x, labels, delta
            )
        state.global_weights = state.global_weights - lr * grad


def retained_loss_concatenated(state, delta):
    """Bounded CE of each unlearned model on the concatenated retained data."""
    datasets = _own_arrays(state)
    retained_ids = sorted(set(datasets) - set(state.opt_out))
    if not retained_ids:
        return 0.0
    x = np.concatenate([datasets[rid][0] for rid in retained_ids])
    labels = np.concatenate([datasets[rid][1] for rid in retained_ids])
    losses = []
    for dev in sorted(state.opt_out):
        w = state.unlearned.get(dev, state.global_weights)
        losses.append(bce_dataset_loss(w, x, labels, delta))
    return float(np.mean(losses))


def unlearning_round_per_device(state, lr, delta, dp=None):
    """One unlearning round with one gradient call per retained device."""
    datasets = _own_arrays(state)
    retained_ids = sorted(set(datasets) - set(state.opt_out))
    for dev in state.opt_out:
        if dev not in state.unlearned:
            state.unlearned[dev] = state.global_weights.copy()
    shape = state.global_weights.shape
    residual_norm = 0.0
    max_basis_dot = 0.0
    for dev in sorted(state.opt_out):
        w_u = state.unlearned[dev]
        retained_grads = np.array([
            bce_grad_one_dataset(w_u, *datasets[rid], delta).ravel() for rid in retained_ids
        ]).reshape(len(retained_ids), w_u.size)
        subspace = retained_subspace(retained_grads)
        forget_grad = bce_grad_one_dataset(w_u, *datasets[dev], delta).ravel()
        projected = orthogonal_project(forget_grad, subspace)
        if subspace.n_basis:
            max_basis_dot = max(max_basis_dot, float(np.abs(subspace.basis @ projected).max()))
        residual_norm = max(residual_norm, float(np.linalg.norm(projected)))
        update = projected
        if dp is not None:
            draw_seed = dp.seed ^ stream_word(f"unlearn.round{state.round_index}.{dev}")
            update = add_dp_noise(projected, dp.clip_norm, dp.sigma, draw_seed)
        state.unlearned[dev] = w_u + lr * update.reshape(shape)
    state.round_index += 1
    return UnlearnRoundRecord(
        state.round_index,
        forget_loss(state, delta),
        retained_loss_concatenated(state, delta),
        residual_norm,
        dp.sigma if dp is not None else 0.0,
        max_basis_dot,
    )


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1
_PHILOX_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


class PhiloxStream:
    """``rng.stream(seed, name)`` restated in Python ints, draw for draw.

    Philox-4x64-10 (Salmon et al., SC'11) under the key ``(seed,
    stream_word(name))``.  The 256-bit counter starts at 0 and is
    incremented before each block of four 64-bit words, which are used in
    order.  A double is ``(u64 >> 11) * 2^-53``.  A 32-bit draw is half a
    word, the low half first, the high half kept for the next 32-bit draw.
    Integers below n <= 2^32 use Lemire's multiply-and-reject on 32-bit
    draws; a permutation is Fisher-Yates from the last position, drawing
    each index by masked rejection.
    """

    def __init__(self, seed: int, name: str):
        self.key = (seed, stream_word(name))
        self.counter = [0, 0, 0, 0]
        self.words: list[int] = []  # the rest of the current block, next word last
        self.high = None  # the unused high half of the last 64-bit word split

    def _next_block(self) -> None:
        for i in range(4):  # increment with carry
            self.counter[i] = (self.counter[i] + 1) & _U64
            if self.counter[i]:
                break
        x0, x1, x2, x3 = self.counter
        k0, k1 = self.key
        for _ in range(10):
            p0, p1 = _PHILOX_MUL[0] * x0, _PHILOX_MUL[1] * x2
            x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _U64, (p0 >> 64) ^ x3 ^ k1, p0 & _U64
            k0, k1 = (k0 + _PHILOX_WEYL[0]) & _U64, (k1 + _PHILOX_WEYL[1]) & _U64
        self.words = [x3, x2, x1, x0]

    def next64(self) -> int:
        if not self.words:
            self._next_block()
        return self.words.pop()

    def next32(self) -> int:
        if self.high is not None:
            high, self.high = self.high, None
            return high
        word = self.next64()
        self.high = word >> 32
        return word & _U32

    def random(self) -> float:
        return (self.next64() >> 11) * 2.0**-53

    def integer(self, n: int) -> int:
        """One draw from [0, n), 1 <= n <= 2^32."""
        if n == 1:
            return 0
        if n == 1 << 32:
            return self.next32()
        m = self.next32() * n
        if m & _U32 < n:
            threshold = (1 << 32) % n
            while m & _U32 < threshold:
                m = self.next32() * n
        return m >> 32

    def permutation(self, n: int) -> list[int]:
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self.next32() & mask
            while j > i:
                j = self.next32() & mask
            items[i], items[j] = items[j], items[i]
        return items
