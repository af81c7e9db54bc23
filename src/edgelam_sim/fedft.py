"""Heterogeneous federated fine-tuning of LoRA adapters.

Devices train low-rank factor pairs (A, B) of varying rank on top of a
frozen base matrix.  The server zero-pads uploads to the max participating
rank, averages the A- and B-factors separately, and unicasts a truncated
copy back to each device.  Device selection and bandwidth allocation are
solved jointly and exactly: devices are ranked by the minimal bandwidth
each needs to meet the round latency, the round latency is bisected, and
per-device minimal-bandwidth inner solves price each device, with no
enumeration of subsets and no limit on the device count.  The solve
targets uplink only; downlink rides the same allocation symmetrically, and
a joint two-way optimum is left unexplored.

The desk-scale learning task is synthetic linear regression
``y = (W0 + A* B*) x + noise`` with a known ground-truth adapter, so
convergence is checkable without real models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankError, ShapeError
from .netsim import (
    ChannelAllocation,
    DeviceProfile,
    comm_latency,
    comp_latency,
    shannon_rate,
)
from .numerics import as_matrix, as_vector
from .rng import stream


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LoraAdapter:
    """Low-rank update factors: effective delta is A @ B, shape d x k."""

    A: np.ndarray  # d x r
    B: np.ndarray  # r x k

    def __post_init__(self):
        object.__setattr__(self, "A", _read_only(as_matrix(self.A)))
        object.__setattr__(self, "B", _read_only(as_matrix(self.B)))
        if self.A.shape[1] != self.B.shape[0]:
            raise ShapeError(
                f"factor ranks disagree: A is {self.A.shape}, B is {self.B.shape}"
            )
        if not 1 <= self.rank <= min(self.d, self.k):
            raise RankError(
                f"rank {self.rank} outside [1, min({self.d}, {self.k})]"
            )

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]

    @property
    def rank(self) -> int:
        return self.A.shape[1]

    def delta(self) -> np.ndarray:
        """Effective weight update A @ B."""
        return self.A @ self.B

    def param_count(self) -> int:
        return self.A.size + self.B.size


@dataclass(frozen=True)
class FrozenBase:
    """Base weights W0, immutable across all rounds of a run."""

    W0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W0", _read_only(as_matrix(self.W0)))


# ---------------------------------------------------------------------------
# rank projection and aggregation
# ---------------------------------------------------------------------------

def zero_pad(adapter: LoraAdapter, target_rank: int) -> LoraAdapter:
    """Pad A with zero columns and B with zero rows up to ``target_rank``.

    The effective update A @ B is unchanged exactly.
    """
    if target_rank < adapter.rank:
        raise RankError(f"cannot pad rank {adapter.rank} down to {target_rank}")
    if target_rank == adapter.rank:
        return adapter
    d, k, r = adapter.d, adapter.k, adapter.rank
    a = np.zeros((d, target_rank))
    a[:, :r] = adapter.A
    b = np.zeros((target_rank, k))
    b[:r, :] = adapter.B
    return LoraAdapter(a, b)


def truncate(adapter: LoraAdapter, target_rank: int) -> LoraAdapter:
    """Keep the first ``target_rank`` columns of A and rows of B."""
    if target_rank < 1:
        raise RankError(f"target rank must be >= 1, got {target_rank}")
    if target_rank > adapter.rank:
        raise RankError(f"cannot truncate rank {adapter.rank} up to {target_rank}")
    if target_rank == adapter.rank:
        return adapter
    return LoraAdapter(adapter.A[:, :target_rank], adapter.B[:target_rank, :])


def project_rank(adapter: LoraAdapter, target_rank: int) -> LoraAdapter:
    """Pad or truncate, whichever moves ``adapter`` to ``target_rank``."""
    if target_rank >= adapter.rank:
        return zero_pad(adapter, target_rank)
    return truncate(adapter, target_rank)


def aggregate_hetero(adapters: list[LoraAdapter], weights: list[float]) -> LoraAdapter:
    """Zero-pad all adapters to the max rank, then average factors.

    A- and B-factors are averaged separately (server storage stays
    O(d * r_max)); the induced bias versus averaging the products A @ B is
    a documented property of the scheme, measured in tests.
    """
    if not adapters:
        raise ValueError("cannot aggregate an empty adapter list")
    if len(weights) != len(adapters):
        raise ShapeError(f"{len(adapters)} adapters but {len(weights)} weights")
    w = as_vector(weights)
    if np.any(w < 0):
        raise ValueError("aggregation weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights must sum to 1, got {w.sum()!r}")
    d, k = adapters[0].d, adapters[0].k
    for a in adapters[1:]:
        if (a.d, a.k) != (d, k):
            raise ShapeError(f"adapter dims {(a.d, a.k)} do not match {(d, k)}")
    r_max = max(a.rank for a in adapters)
    padded = [zero_pad(a, r_max) for a in adapters]
    a_sum = np.zeros((d, r_max))
    b_sum = np.zeros((r_max, k))
    for wi, ad in zip(w, padded):
        a_sum += wi * ad.A
        b_sum += wi * ad.B
    return LoraAdapter(a_sum, b_sum)


# ---------------------------------------------------------------------------
# local training step and losses
# ---------------------------------------------------------------------------

def mse_loss(base: FrozenBase, adapter: LoraAdapter, features, targets) -> float:
    """Mean over the batch of the squared prediction error norm."""
    x = as_matrix(features)
    y = as_matrix(targets)
    w = base.W0 + adapter.delta()
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"features have dim {x.shape[1]}, model expects {w.shape[1]}")
    if y.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"targets shape {y.shape} != {(x.shape[0], w.shape[0])}")
    err = x @ w.T - y
    return float(np.mean(np.sum(err * err, axis=1)))


def lora_sgd_step(
    base: FrozenBase, adapter: LoraAdapter, features, targets, lr: float
) -> LoraAdapter:
    """One full-batch gradient step on the factors A and B; W0 untouched.

    Loss is ``mse_loss``; the gradient w.r.t. the effective update is
    (2/m) err^T X, chained into dA = dW B^T and dB = A^T dW.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    x = as_matrix(features)
    y = as_matrix(targets)
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    w = base.W0 + adapter.delta()
    if x.shape[1] != w.shape[1] or y.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(
            f"batch shapes {x.shape}/{y.shape} do not fit model {w.shape}"
        )
    err = x @ w.T - y  # m x d
    d_w = (2.0 / x.shape[0]) * (err.T @ x)  # d x k
    d_a = d_w @ adapter.B.T
    d_b = adapter.A.T @ d_w
    return LoraAdapter(adapter.A - lr * d_a, adapter.B - lr * d_b)


# ---------------------------------------------------------------------------
# joint device selection and bandwidth allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the joint selection/allocation solve."""

    selected: tuple[str, ...]
    allocation: ChannelAllocation | None
    round_latency: float
    feasible: bool


def _min_bandwidth(bits: float, gain: float, power: float, n0: float,
                   comm_budget: float, b_cap: float) -> float:
    """Minimal bandwidth so that ``bits`` upload within ``comm_budget`` s.

    Returns inf when even ``b_cap`` Hz cannot achieve the required rate.
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


def _subset_min_latency(
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    upload_bits: dict[str, float],
    local_flops: dict[str, float],
    noise_density: float,
) -> tuple[float, dict[str, float]]:
    """Minimal achievable max per-device latency for one subset.

    Bisection on the target latency tau; at each tau every device needs the
    minimal bandwidth putting its upload inside tau minus its compute time,
    and tau is feasible iff those bandwidths fit in the total.  Returns
    (latency, allocation); (inf, {}) when the subset can never finish.
    """
    comp = {p.id: comp_latency(local_flops[p.id], p.compute_rate) for p in profiles}
    for p in profiles:
        if upload_bits[p.id] > 0 and p.channel_gain * p.tx_power == 0.0:
            return math.inf, {}

    def need(tau: float) -> dict[str, float]:
        out = {}
        for p in profiles:
            out[p.id] = _min_bandwidth(
                upload_bits[p.id], p.channel_gain, p.tx_power, noise_density,
                tau - comp[p.id], total_bandwidth,
            )
        return out

    def feasible(alloc: dict[str, float]) -> bool:
        s = 0.0
        for b in alloc.values():
            if math.isinf(b):
                return False
            s += b
        return s <= total_bandwidth

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
    # hand out the slack: scaling every B_i up never hurts any device
    used = sum(alloc.values())
    if used > 0.0:
        factor = total_bandwidth / used
        alloc = {dev: b * factor for dev, b in alloc.items()}
        while sum(alloc.values()) > total_bandwidth:
            worst = max(alloc, key=alloc.get)
            alloc[worst] = np.nextafter(alloc[worst], 0.0)
    latency = max(
        comp[p.id]
        + comm_latency(
            upload_bits[p.id],
            shannon_rate(alloc[p.id], p.channel_gain, p.tx_power, noise_density),
        )
        for p in profiles
    )
    return latency, alloc


def _device_bandwidth(profile: DeviceProfile, bits: float, comp: float,
                      tau: float, noise_density: float, b_cap: float) -> float:
    """Minimal bandwidth for one device to finish compute and upload by ``tau``.

    inf when the device cannot make it at any bandwidth up to ``b_cap``:
    its compute alone overruns ``tau`` (checked first, because
    ``_min_bandwidth`` returns 0 for a zero-bit upload whatever the budget),
    or it has bits to send over a dead channel.
    """
    if comp > tau or (bits > 0.0 and profile.channel_gain * profile.tx_power == 0.0):
        return math.inf
    return _min_bandwidth(bits, profile.channel_gain, profile.tx_power,
                          noise_density, tau - comp, b_cap)


def select_devices_and_bandwidth(
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    upload_bits: dict[str, float],
    local_flops: dict[str, float],
    deadline: float,
    noise_density: float,
) -> SelectionResult:
    """Pick the participant set and its bandwidth split for one round.

    The winner maximizes the participant count subject to the deadline,
    ties broken by lower round latency, then lexicographic ids.  At a fixed
    round latency tau a subset fits iff its devices' minimal bandwidths
    b_i(tau) sum to at most the band, and b_i(tau) never grows with tau.
    So the largest feasible size k is the longest prefix of the devices
    ranked by (b_i(deadline), id) that fits, and the fastest size-k subset
    is the k cheapest devices at the smallest tau where those k fit, found
    by bisecting tau.  That costs O(N log N) per bisection step instead of
    one bisection per subset.  The reported latency and allocation come
    from ``_subset_min_latency`` on the chosen subset.
    """
    if not profiles:
        raise ValueError("need at least one device profile")
    if total_bandwidth <= 0:
        raise ValueError("total_bandwidth must be > 0")
    ids = [p.id for p in profiles]
    if len(set(ids)) != len(ids):
        raise ValueError("device ids must be unique")
    for p in profiles:
        if p.id not in upload_bits or p.id not in local_flops:
            raise ValueError(f"missing upload_bits/local_flops for device {p.id}")

    comp = {p.id: comp_latency(local_flops[p.id], p.compute_rate) for p in profiles}

    def ranked(tau: float) -> list[tuple[float, str, DeviceProfile]]:
        return sorted(
            (
                (_device_bandwidth(p, upload_bits[p.id], comp[p.id], tau,
                                   noise_density, total_bandwidth), p.id, p)
                for p in profiles
            ),
            key=lambda t: t[:2],
        )

    k = 0
    used = 0.0
    for b, _, _ in ranked(deadline):
        used += b
        if used > total_bandwidth:
            break
        k += 1
    while k > 0:
        if k == len(profiles):
            candidate = sorted(profiles, key=lambda p: p.id)
        else:
            lo, hi = min(comp.values()), deadline
            for _ in range(64):
                mid = 0.5 * (lo + hi)
                if sum(b for b, _, _ in ranked(mid)[:k]) <= total_bandwidth:
                    hi = mid
                else:
                    lo = mid
            candidate = sorted((p for _, _, p in ranked(hi)[:k]), key=lambda p: p.id)
        latency, alloc = _subset_min_latency(
            candidate, total_bandwidth, upload_bits, local_flops, noise_density,
        )
        if latency <= deadline:
            allocation = ChannelAllocation(alloc, noise_density, total_bandwidth)
            return SelectionResult(tuple(p.id for p in candidate), allocation, latency, True)
        k -= 1  # a borderline subset that the bisection's rounding put past the deadline
    return SelectionResult((), None, math.inf, False)


# ---------------------------------------------------------------------------
# synthetic task and the federated round loop
# ---------------------------------------------------------------------------

@dataclass
class FedFtState:
    """Mutable per-run training state."""

    round_index: int
    base: FrozenBase
    global_adapter: LoraAdapter
    device_adapters: dict[str, LoraAdapter]
    datasets: dict[str, tuple[np.ndarray, np.ndarray]]  # id -> (X, Y)

    def dataset_sizes(self) -> dict[str, int]:
        return {dev: x.shape[0] for dev, (x, _) in self.datasets.items()}


@dataclass(frozen=True)
class RoundRecord:
    """One CSV row of the fine-tuning trace."""

    round_index: int
    global_loss: float
    round_latency: float
    selected: tuple[str, ...]
    bandwidth: dict[str, float]


def make_synthetic_task(
    seed: int,
    profiles: list[DeviceProfile],
    feature_dim: int,
    output_dim: int,
    true_rank: int,
    samples_per_device: dict[str, int],
    noise_std: float,
) -> FedFtState:
    """Build the regression task y = (W0 + A* B*) x + noise and initial state."""
    if true_rank < 1 or true_rank > min(output_dim, feature_dim):
        raise RankError(f"true_rank {true_rank} invalid for {output_dim}x{feature_dim}")
    base_rng = stream(seed, "fedft.base")
    w0 = FrozenBase(0.1 * base_rng.standard_normal((output_dim, feature_dim)))
    truth_rng = stream(seed, "fedft.truth")
    truth = LoraAdapter(
        truth_rng.standard_normal((output_dim, true_rank)) / math.sqrt(true_rank),
        truth_rng.standard_normal((true_rank, feature_dim)),
    )
    w_true = w0.W0 + truth.delta()
    datasets = {}
    adapters = {}
    for p in profiles:
        rng = stream(seed, f"fedft.data.{p.id}")
        m = samples_per_device[p.id]
        x = rng.standard_normal((m, feature_dim))
        y = x @ w_true.T + noise_std * rng.standard_normal((m, output_dim))
        datasets[p.id] = (x, y)
        init_rng = stream(seed, f"fedft.init.{p.id}")
        a0 = init_rng.standard_normal((output_dim, p.local_rank)) / math.sqrt(
            max(feature_dim, p.local_rank)
        )
        adapters[p.id] = LoraAdapter(a0, np.zeros((p.local_rank, feature_dim)))
    sizes = np.array([samples_per_device[p.id] for p in profiles], dtype=float)
    weights = list(sizes / sizes.sum())
    global_adapter = aggregate_hetero([adapters[p.id] for p in profiles], weights)
    return FedFtState(0, w0, global_adapter, adapters, datasets)


def default_step_flops(d: int, k: int, rank: int, samples: int) -> float:
    """Rough FLOP count of one full-batch local step (fwd+bwd, LoRA path)."""
    return float(samples) * (6.0 * (d * rank + rank * k) + 2.0 * d * k)


def global_loss(state: FedFtState) -> float:
    """MSE of the global adapter over the union of all device data."""
    x = np.concatenate([x for x, _ in state.datasets.values()])
    y = np.concatenate([y for _, y in state.datasets.values()])
    return mse_loss(state.base, state.global_adapter, x, y)


def fedft_round(
    state: FedFtState,
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    deadline: float,
    lr: float,
    noise_density: float,
    bits_per_param: float = 64.0,
    selection: SelectionResult | None = None,
) -> tuple[FedFtState, RoundRecord]:
    """One federated round: select, local step, aggregate, redistribute.

    Selected devices take one local SGD step and upload their factors; the
    server aggregates with dataset-size-proportional weights and unicasts a
    rank-projected copy back to each participant.  Downlink latency is
    modeled symmetrically on the uplink allocation.  Aggregation order is
    ascending device id, so parallel local steps stay bit-reproducible.

    ``selection`` lets the caller reuse a solved allocation when the
    selection inputs (profiles, sizes, ranks) are round-invariant.
    """
    sizes = state.dataset_sizes()
    if selection is None:
        selection = solve_round_selection(
            state, profiles, total_bandwidth, deadline, noise_density,
            bits_per_param=bits_per_param,
        )
    sel = selection
    if not sel.feasible:
        record = RoundRecord(state.round_index + 1, global_loss(state), math.inf, (), {})
        state.round_index += 1
        return state, record

    stepped: dict[str, LoraAdapter] = {}
    for dev in sorted(sel.selected):
        x, y = state.datasets[dev]
        stepped[dev] = lora_sgd_step(state.base, state.device_adapters[dev], x, y, lr)

    total = float(sum(sizes[dev] for dev in sel.selected))
    order = sorted(sel.selected)
    weights = [sizes[dev] / total for dev in order]
    new_global = aggregate_hetero([stepped[dev] for dev in order], weights)

    # every device gets its rank-projected copy by unicast; downlink latency
    # is accounted on the participants' allocations (symmetric channel)
    down_latency = 0.0
    for p in profiles:
        received = project_rank(new_global, p.local_rank)
        state.device_adapters[p.id] = received
        if p.id in sel.selected:
            rate = shannon_rate(
                sel.allocation.bandwidth[p.id],
                p.channel_gain,
                p.tx_power,
                noise_density,
            )
            down_bits = bits_per_param * received.param_count()
            down_latency = max(down_latency, comm_latency(down_bits, rate))

    state.global_adapter = new_global
    # count the round only once its record exists, so an error while
    # computing the loss leaves round_index at the rounds completed
    record = RoundRecord(
        state.round_index + 1,
        global_loss(state),
        sel.round_latency + down_latency,
        sel.selected,
        dict(sel.allocation.bandwidth),
    )
    state.round_index += 1
    return state, record


def solve_round_selection(
    state: FedFtState,
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    deadline: float,
    noise_density: float,
    bits_per_param: float = 64.0,
) -> SelectionResult:
    """Selection/allocation for the current state's bits and flops."""
    upload_bits = {
        p.id: bits_per_param * state.device_adapters[p.id].param_count()
        for p in profiles
    }
    d, k = state.base.W0.shape
    sizes = state.dataset_sizes()
    local_flops = {
        p.id: default_step_flops(d, k, state.device_adapters[p.id].rank, sizes[p.id])
        for p in profiles
    }
    return select_devices_and_bandwidth(
        profiles, total_bandwidth, upload_bits, local_flops, deadline,
        noise_density,
    )


def run_fedft(
    state: FedFtState,
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    deadline: float,
    lr: float,
    noise_density: float,
    rounds: int,
    bits_per_param: float = 64.0,
) -> list[RoundRecord]:
    """Run ``rounds`` federated rounds, returning the per-round trace.

    The selection inputs (device set, ranks, dataset sizes) are constant
    across a run, so the joint selection/allocation is solved once up front
    and reused every round; dissemination keeps each device's rank, so the
    cached result stays valid.
    """
    selection = solve_round_selection(
        state, profiles, total_bandwidth, deadline, noise_density,
        bits_per_param=bits_per_param,
    )
    records = []
    for _ in range(rounds):
        state, record = fedft_round(
            state, profiles, total_bandwidth, deadline, lr, noise_density,
            bits_per_param=bits_per_param, selection=selection,
        )
        records.append(record)
    return records
