"""Heterogeneous federated fine-tuning of LoRA adapters.

Devices train low-rank factor pairs (A, B) of varying rank on top of a
frozen base matrix.  The server zero-pads uploads to the max participating
rank, averages the A- and B-factors separately, and unicasts a copy
projected to its rank back to each device.  Device selection and bandwidth
allocation are solved jointly and exactly by one search for the least
round latency that fits: at each candidate latency devices are ranked by
the minimal bandwidth each needs to meet it, and the bandwidths at the
final latency are the split, with no enumeration of subsets and no limit
on the device count.  The solve targets uplink only.  A participant's
download is as many parameters as its upload, on the same band, so the
selection computes each participant's transfer time once and the round's
downlink is the slowest of them; a joint two-way optimum is left
unexplored.

The desk-scale learning task is synthetic linear regression
``y = (W0 + A* B*) x + noise`` with a known ground-truth adapter, so
convergence is checkable without real models.

The kernels take the float64 arrays the run built (W0 is a plain array
that no step writes) and check shapes and ranks only.  They do not scan
for inf or nan: ``scenarios.run_scenario`` makes numpy raise at the
operation that would produce one.
"""

from __future__ import annotations

import math
import struct
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import RankError, SchedulingError, ShapeError
from .netsim import (
    DeviceProfile,
    MinBandwidth,
    comm_latency,
    comp_latency,
    shannon_rate,
)
from .rng import stream


@dataclass(frozen=True)
class LoraAdapter:
    """Low-rank update factors: effective delta is A @ B, shape d x k.

    Factors with leading axes hold a stack of adapters, as ``lora_sgd_step``
    steps them; the checks and properties read the last two axes.
    """

    A: np.ndarray  # (..., d, r)
    B: np.ndarray  # (..., r, k)

    def __post_init__(self):
        # contiguous: BLAS multiplies a strided view (a slice, say) on
        # another path with other rounding
        object.__setattr__(self, "A", np.ascontiguousarray(self.A, dtype=np.float64))
        object.__setattr__(self, "B", np.ascontiguousarray(self.B, dtype=np.float64))
        if self.A.shape[-1] != self.B.shape[-2]:
            raise ShapeError(
                f"factor ranks disagree: A is {self.A.shape}, B is {self.B.shape}"
            )
        if not 1 <= self.rank <= min(self.d, self.k):
            raise RankError(
                f"rank {self.rank} outside [1, min({self.d}, {self.k})]"
            )

    @property
    def d(self) -> int:
        return self.A.shape[-2]

    @property
    def k(self) -> int:
        return self.B.shape[-1]

    @property
    def rank(self) -> int:
        return self.A.shape[-1]

    def delta(self) -> np.ndarray:
        """Effective weight update A @ B."""
        return self.A @ self.B


# ---------------------------------------------------------------------------
# rank projection and aggregation
# ---------------------------------------------------------------------------

def project_rank(adapter: LoraAdapter, target_rank: int) -> LoraAdapter:
    """``adapter`` zero-padded or truncated to ``target_rank``.

    The leading ``min(rank, target_rank)`` columns of A and rows of B are
    copied into zero factors of the target rank, so padding leaves A @ B
    unchanged exactly.  The same rank returns ``adapter`` itself.
    """
    if target_rank == adapter.rank:
        return adapter
    if target_rank < 1:
        raise RankError(f"target rank must be >= 1, got {target_rank}")
    r = min(adapter.rank, target_rank)
    a = np.zeros((adapter.d, target_rank))
    a[:, :r] = adapter.A[:, :r]
    b = np.zeros((target_rank, adapter.k))
    b[:r] = adapter.B[:r]
    return LoraAdapter(a, b)


def _padded_sum(parts, n: int, d: int, k: int, r_max: int) -> LoraAdapter:
    """The sum of n weighted adapters zero-padded to rank ``r_max``.

    ``parts`` yields (at, A, B): the weighted factors of the adapters at
    positions ``at``, one write per part (a position and 2-D factors, or an
    array of positions and stacks).  Each factor stack is then folded in
    position order by one cumsum, a left fold: the loop that adds each
    adapter into zeros from +0.0 gives the same bits, as padded zeros add
    nothing and the closing ``+ 0.0`` turns a -0.0, left only where every
    term is -0.0, into that loop's +0.0.  ``np.add.reduce`` would not do:
    over a trailing axis of length 1 it sums pairwise.
    """
    a = np.zeros((n, d, r_max))
    b = np.zeros((n, r_max, k))
    for at, wa, wb in parts:
        r = wa.shape[-1]
        a[at, :, :r] = wa
        b[at, :r] = wb
    return LoraAdapter(a.cumsum(axis=0)[-1] + 0.0, b.cumsum(axis=0)[-1] + 0.0)


def aggregate_hetero(adapters: list[LoraAdapter], weights: list[float]) -> LoraAdapter:
    """Average the factors of all adapters zero-padded to the max rank.

    Each adapter fills the leading columns of A and rows of B only, and
    the sum is ``_padded_sum``'s, in list order.  A- and B-factors are
    averaged separately (server storage stays O(d * r_max)); the induced
    bias versus averaging the products A @ B is a documented property of
    the scheme, measured in tests.
    """
    if not adapters:
        raise ValueError("cannot aggregate an empty adapter list")
    if len(weights) != len(adapters):
        raise ShapeError(f"{len(adapters)} adapters but {len(weights)} weights")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("aggregation weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValueError(f"aggregation weights must sum to 1, got {w.sum()!r}")
    d, k = adapters[0].d, adapters[0].k
    for a in adapters[1:]:
        if (a.d, a.k) != (d, k):
            raise ShapeError(f"adapter dims {(a.d, a.k)} do not match {(d, k)}")
    r_max = max(a.rank for a in adapters)
    parts = ((i, wi * ad.A, wi * ad.B) for i, (wi, ad) in enumerate(zip(w, adapters)))
    return _padded_sum(parts, len(adapters), d, k, r_max)


# ---------------------------------------------------------------------------
# local training step and losses
# ---------------------------------------------------------------------------

def mse_loss(w0: np.ndarray, adapter: LoraAdapter, x: np.ndarray, y: np.ndarray) -> float:
    """Mean over the batch of the squared prediction error norm."""
    w = w0 + adapter.delta()
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"features have dim {x.shape[1]}, model expects {w.shape[1]}")
    if y.shape != (x.shape[0], w.shape[0]):
        raise ShapeError(f"targets shape {y.shape} != {(x.shape[0], w.shape[0])}")
    err = x @ w.T - y
    return float(np.mean(np.sum(err * err, axis=1)))


def lora_sgd_step(
    w0: np.ndarray, adapter: LoraAdapter, x: np.ndarray, y: np.ndarray, lr: float
) -> LoraAdapter:
    """One full-batch gradient step on the factors A and B; W0 untouched.

    Loss is ``mse_loss``; the gradient w.r.t. the effective update is
    (2/m) err^T X, chained into dA = dW B^T and dB = A^T dW.  Leading axes
    broadcast, and the 2-D call is the one-device case: n datasets stacked
    as ``(n, m, k)`` and ``(n, m, d)`` step from one adapter or from a
    stack of n, and each slice of the result is that slice's 2-D call bit
    for bit.  A stacked matmul runs the 2-D call's BLAS product on each
    slice, with the transposes passed as views, as in 2-D.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    m = x.shape[-2]
    if m == 0:
        raise ValueError("batch must be nonempty")
    w = w0 + adapter.delta()
    if x.shape[-1] != w.shape[-1] or y.shape[-2:] != (m, w.shape[-2]):
        raise ShapeError(
            f"batch shapes {x.shape}/{y.shape} do not fit model {w.shape}"
        )
    err = x @ w.swapaxes(-1, -2) - y  # (..., m, d)
    d_w = (2.0 / m) * (err.swapaxes(-1, -2) @ x)  # (..., d, k)
    d_a = d_w @ adapter.B.swapaxes(-1, -2)
    d_b = adapter.A.swapaxes(-1, -2) @ d_w
    return LoraAdapter(adapter.A - lr * d_a, adapter.B - lr * d_b)


# ---------------------------------------------------------------------------
# joint device selection and bandwidth allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the joint selection/allocation solve."""

    selected: tuple[str, ...]
    bandwidth: dict[str, float]  # device id -> Hz of the shared band, ascending ids
    round_latency: float  # slowest participant's compute plus upload
    upload_latency: float  # slowest participant's upload alone


def _fold(values) -> float:
    """Left-to-right float sum.  From Python 3.12 on ``sum`` compensates
    its rounding, which would move the selection's bits with the version."""
    total = 0.0
    for v in values:
        total += v
    return total


def _ranked_needs(profiles: list[DeviceProfile], upload_bits: dict[str, float],
                  comp: dict[str, float], noise_density: float, b_cap: float):
    """The map tau -> [(b_i(tau), id)] ascending, over all devices.

    b_i(tau) is the least bandwidth up to ``b_cap`` for device i to finish
    compute and upload by tau: 0 when there is nothing to upload and the
    compute fits, inf when the compute alone overruns tau, when there are
    bits to send over a dead channel, or when even ``b_cap`` Hz is too slow.
    Otherwise it is ``MinBandwidth.for_rate`` of the upload rate that tau
    leaves, one 52-step bisection over ``netsim``'s rate kernel.
    """
    devices = [
        (p.id, upload_bits[p.id], comp[p.id],
         MinBandwidth(b_cap, p.channel_gain, p.tx_power, noise_density)
         if p.channel_gain * p.tx_power != 0.0 else None)
        for p in profiles
    ]

    def ranked(tau: float) -> list[tuple[float, str]]:
        out = []
        for dev, bits, c, link in devices:
            if bits == 0.0:
                b = 0.0 if c <= tau else math.inf
            elif c >= tau or link is None:
                b = math.inf
            else:
                b = link.for_rate(bits / (tau - c))
            out.append((b, dev))
        out.sort()
        return out

    return ranked


_F64, _I64 = struct.Struct("<d"), struct.Struct("<q")


def _key(x: float) -> int:
    """The bit pattern of a float >= 0, which orders such floats as they compare."""
    return _I64.unpack(_F64.pack(x + 0.0))[0]  # + 0.0 turns -0.0 into 0.0


def _float(key: int) -> float:
    return _F64.unpack(_I64.pack(key))[0]


def _slack(s: float, band: float) -> float | None:
    """u = band / s - 1, the value the secant steps on; None if not finite."""
    if 0.0 < s < math.inf:
        u = band / s - 1.0
        if u < math.inf:
            return u
    return None


def _least_feasible(ranked, k: int, band: float, lo: float, hi: float, at_hi=None):
    """``ranked(tau)`` at the least float tau in (lo, hi) at which the k
    smallest b_i(tau) fit in ``band``, or at ``hi`` if there is none.
    ``at_hi`` is ``ranked(hi)``, if the caller has it.

    Fitting is monotone in tau.  So every search that keeps each tau <= lo
    unfit (or lo the untested start) and hi fit (or hi the untested start)
    ends at the same pair of adjacent floats as a midpoint bisection.
    Each trial folds the k smallest b_i(tau) into s and takes
    u = band / s - 1, near linear in tau as b_i(tau) goes as
    1 / (tau - c_i).  With distinct finite u at both ends the next trial is
    an Illinois regula-falsi step, clamped strictly inside the bracket.
    Otherwise, and after two trials that left more than half the bracket,
    it is the midpoint of the ends' bit patterns.  A bracket of w floats
    therefore takes at most 3 * ceil(log2(w)) trials, 189 from
    [0, float max].
    """
    lo_key, hi_key = _key(lo), _key(hi)
    u_lo = None  # None: lo untested, or its s was 0 or inf
    u_hi = None if at_hi is None else _slack(_fold(b for b, _ in at_hi[:k]), band)
    order = at_hi
    moved = 0  # the end the last trial moved: +1 hi, -1 lo
    stalls = 0
    while (width := hi_key - lo_key) > 1:
        if u_lo is None or u_hi is None or u_lo == u_hi or stalls == 2:
            key = lo_key + width // 2
        else:
            t = hi - u_hi / (u_hi - u_lo) * (hi - lo)
            key = min(max(_key(t), lo_key + 1), hi_key - 1)
        tau = _float(key)
        trial = ranked(tau)
        s = _fold(b for b, _ in trial[:k])
        if s <= band:
            hi, hi_key, u_hi, order = tau, key, _slack(s, band), trial
            if moved == 1 and u_lo is not None:
                u_lo *= 0.5  # Illinois: halve the value at the end that stays
            moved = 1
        else:
            lo, lo_key, u_lo = tau, key, _slack(s, band)
            if moved == -1 and u_hi is not None:
                u_hi *= 0.5
            moved = -1
        # a bit-pattern midpoint always leaves at most ceil(width / 2)
        stalls = stalls + 1 if 2 * (hi_key - lo_key) > width + 1 else 0
    return ranked(hi) if order is None else order


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
    down to adjacent floats by ``_least_feasible``.  Those devices get their
    b_i(tau), scaled up to fill the band, and the round latency is the
    slowest one's compute plus upload time on that split; the upload
    latency is the slowest upload alone.  Raises ``SchedulingError`` when
    no device subset meets the deadline.

    Cost: one ranking at the deadline and 11-15 trial taus in the search
    on the shipped and benchmark configs (at most 3 * 63 by construction),
    each one 52-step bandwidth bisection per device, so about 16 * n * 52
    calls of the unchecked rate kernel, and one ``shannon_rate`` call per
    live device (its rate at the full band) plus one per participant for
    the latency.  Every sum over bandwidths is a left fold, so the bits do
    not depend on the Python version.
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
    by_id = {p.id: p for p in profiles}
    ranked = _ranked_needs(profiles, upload_bits, comp, noise_density, total_bandwidth)

    at_deadline = ranked(deadline)
    k = 0
    used = 0.0
    for b, _ in at_deadline:
        used += b
        if used > total_bandwidth:
            break
        k += 1
    # an infinite deadline searches from the largest float instead
    lo, hi = min(comp.values()), min(deadline, sys.float_info.max)
    at_hi = at_deadline if hi == deadline else None
    while k > 0:
        order = _least_feasible(ranked, k, total_bandwidth, lo, hi, at_hi)
        alloc = dict(sorted((dev, b) for b, dev in order[:k]))
        # hand out the slack: scaling every b_i up never hurts any device
        used = _fold(alloc.values())
        if used > 0.0:
            factor = total_bandwidth / used
            alloc = {dev: b * factor for dev, b in alloc.items()}
            while _fold(alloc.values()) > total_bandwidth:
                worst = max(alloc, key=alloc.get)
                alloc[worst] = math.nextafter(alloc[worst], 0.0)
        upload = {
            dev: comm_latency(upload_bits[dev], shannon_rate(
                b, by_id[dev].channel_gain, by_id[dev].tx_power, noise_density))
            for dev, b in alloc.items()
        }
        latency = max(comp[dev] + t for dev, t in upload.items())
        if latency <= deadline:
            return SelectionResult(tuple(alloc), alloc, latency, max(0.0, *upload.values()))
        k -= 1  # a borderline subset that the search's rounding put past the deadline
    raise SchedulingError("no device subset meets the deadline; raise deadline or bandwidth")


# ---------------------------------------------------------------------------
# synthetic task and the federated round loop
# ---------------------------------------------------------------------------

@dataclass
class FedFtState:
    """Mutable per-run training state.

    The datasets are fixed for the state's life: ``datasets`` becomes a
    read-only mapping, and their concatenation over all devices, in
    mapping order, is built once into ``pooled_x`` and ``pooled_y``.
    """

    round_index: int
    base: np.ndarray  # W0, never written during a run
    global_adapter: LoraAdapter
    device_adapters: dict[str, LoraAdapter]
    datasets: Mapping[str, tuple[np.ndarray, np.ndarray]]  # id -> (X, Y)
    pooled_x: np.ndarray = field(init=False, repr=False)
    pooled_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.datasets = MappingProxyType(dict(self.datasets))
        self.pooled_x = np.concatenate([x for x, _ in self.datasets.values()])
        self.pooled_y = np.concatenate([y for _, y in self.datasets.values()])

    def dataset_sizes(self) -> dict[str, int]:
        return {dev: x.shape[0] for dev, (x, _) in self.datasets.items()}


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
    w0 = 0.1 * base_rng.standard_normal((output_dim, feature_dim))
    truth_rng = stream(seed, "fedft.truth")
    truth = LoraAdapter(
        truth_rng.standard_normal((output_dim, true_rank)) / math.sqrt(true_rank),
        truth_rng.standard_normal((true_rank, feature_dim)),
    )
    w_true = w0 + truth.delta()
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


def global_loss(state: FedFtState) -> float:
    """MSE of the global adapter over the union of all device data."""
    return mse_loss(state.base, state.global_adapter, state.pooled_x, state.pooled_y)


@dataclass(frozen=True)
class RankGroup:
    """The participants of one rank and dataset size, stacked once."""

    ids: tuple[str, ...]
    at: np.ndarray  # their positions among the plan's participants
    x: np.ndarray  # (n_g, m, k), in the order of ``ids``
    y: np.ndarray  # (n_g, m, d)
    weights: np.ndarray  # (n_g, 1, 1) aggregation weights


@dataclass(frozen=True)
class RoundPlan:
    """What every round of a run reuses: the participants, grouped."""

    participants: tuple[str, ...]
    ranks: Mapping[str, int]  # every device's rank, for the dissemination
    groups: tuple[RankGroup, ...]
    r_max: int  # the largest participant rank, the aggregate's


def round_plan(
    state: FedFtState, participants: tuple[str, ...], ranks: Mapping[str, int]
) -> RoundPlan:
    """The plan of ``fedft_round`` for ``participants``, aggregated in that order.

    A participant's weight is its dataset size over the participants'
    total.  The participants are grouped by (rank, dataset size), each
    group's datasets stacked in participant order and its weights kept as
    a column.  ``ranks`` gives every device's rank, participant or not,
    and each participant's adapter has its rank.
    """
    sizes = state.dataset_sizes()
    total = float(sum(sizes[dev] for dev in participants))
    w = np.array([sizes[dev] / total for dev in participants])
    keyed: dict[tuple[int, int], list[int]] = {}
    for i, dev in enumerate(participants):
        keyed.setdefault((ranks[dev], sizes[dev]), []).append(i)
    groups = []
    for at in keyed.values():
        ids = tuple(participants[i] for i in at)
        groups.append(RankGroup(
            ids, np.array(at),
            np.stack([state.datasets[dev][0] for dev in ids]),
            np.stack([state.datasets[dev][1] for dev in ids]),
            w[at][:, None, None],
        ))
    r_max = max(ranks[dev] for dev in participants)
    return RoundPlan(tuple(participants), MappingProxyType(dict(ranks)), tuple(groups), r_max)


def fedft_round(state: FedFtState, plan: RoundPlan, lr: float) -> float:
    """One federated round: local step, aggregate, redistribute; returns the loss.

    Each group of ``plan`` takes one stacked local SGD step: from its
    devices' adapters stacked, or from the one copy they share (every round
    after the first) as it is.  The server sums the weighted stepped
    factors in participant order with ``_padded_sum``, so the round equals
    a loop of per-device steps and adds bit for bit.  Every device in
    ``plan.ranks`` then receives the new global projected to its rank: one
    ``project_rank`` copy per distinct rank, shared by the devices of that
    rank (adapters are never written).  Returns the global loss after the
    round.
    """
    adapters = state.device_adapters
    parts = []
    for g in plan.groups:
        start = adapters[g.ids[0]]
        if any(adapters[dev] is not start for dev in g.ids[1:]):
            start = LoraAdapter(np.stack([adapters[dev].A for dev in g.ids]),
                                np.stack([adapters[dev].B for dev in g.ids]))
        stepped = lora_sgd_step(state.base, start, g.x, g.y, lr)
        parts.append((g.at, g.weights * stepped.A, g.weights * stepped.B))
    d, k = state.base.shape
    new_global = _padded_sum(parts, len(plan.participants), d, k, plan.r_max)

    copies: dict[int, LoraAdapter] = {}
    for dev, rank in plan.ranks.items():
        if rank not in copies:
            copies[rank] = project_rank(new_global, rank)
        adapters[dev] = copies[rank]

    state.global_adapter = new_global
    # count the round only once its loss exists, so an error while
    # computing it leaves round_index at the rounds completed
    loss = global_loss(state)
    state.round_index += 1
    return loss


def run_fedft(
    state: FedFtState,
    profiles: list[DeviceProfile],
    total_bandwidth: float,
    deadline: float,
    lr: float,
    noise_density: float,
    rounds: int,
    bits_per_param: float = 64.0,
) -> tuple[SelectionResult, float, list[float]]:
    """Run ``rounds`` federated rounds: (selection, round latency, losses).

    The selection inputs (device set, ranks, dataset sizes) are constant
    across a run, and dissemination keeps each device's rank, so everything
    the selection fixes is computed once, before the first round: the
    joint selection/allocation, the round latency, and the round plan (the
    participants in ascending id order, grouped by rank with their data
    stacked, and their dataset-size-proportional aggregation weights).  A
    device uploads and downloads ``local_rank * (d + k)`` parameters on its
    own band, so the round latency is the selection's compute-plus-upload
    latency plus its slowest upload again for the downlink.  ``losses[i]``
    is the global loss after round i + 1.  When no device subset meets the
    deadline, ``SchedulingError`` is raised before the first round.
    """
    d, k = state.base.shape
    sizes = state.dataset_sizes()
    ranks = {p.id: p.local_rank for p in profiles}
    upload_bits = {dev: bits_per_param * (r * (d + k)) for dev, r in ranks.items()}
    # rough FLOP count of one full-batch local step (fwd+bwd, LoRA path)
    local_flops = {
        dev: float(sizes[dev]) * (6.0 * (d * r + r * k) + 2.0 * d * k)
        for dev, r in ranks.items()
    }
    selection = select_devices_and_bandwidth(
        profiles, total_bandwidth, upload_bits, local_flops, deadline, noise_density
    )
    plan = round_plan(state, selection.selected, ranks)  # ascending ids
    losses = [fedft_round(state, plan, lr) for _ in range(rounds)]
    return selection, selection.round_latency + selection.upload_latency, losses
