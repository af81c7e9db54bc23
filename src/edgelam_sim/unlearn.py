"""Federated unlearning by gradient projection.

Opt-out devices run gradient *ascent* on their forget data; before
dissemination the server projects each ascent direction onto the orthogonal
complement of the span of the retained devices' gradients (an orthonormal
basis held as one array), so first-order retained loss is untouched.
Cross-entropy is bounded by shifting the logarithm, which caps both the loss
and its gradient.  Optional Gaussian noise on the disseminated update comes
from a seeded stream.

The desk-scale task is a softmax-linear classifier on synthetic clusters;
each opt-out device is a single-class client in its own feature region, so
its influence on the model is distinguishable and removable.  A run has one
opt-out set, fixed when its ``UnlearnState`` is built.
"""

from __future__ import annotations

from collections.abc import Collection, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ShapeError
from .numerics import gram_schmidt, project_out
from .rng import stream, stream_word


@dataclass(frozen=True)
class RetainedSubspace:
    """Orthonormal basis of the retained devices' gradient span."""

    basis: np.ndarray  # n_basis x dim, rows orthonormal; may have 0 rows

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def n_basis(self) -> int:
        return self.basis.shape[0]


def retained_subspace(retained_gradients) -> RetainedSubspace:
    """Gram-Schmidt basis of the retained gradients, one ``(n, dim)`` row per
    retained device (dependents dropped); no device gives a ``(0, dim)`` basis."""
    return RetainedSubspace(gram_schmidt(retained_gradients))


def orthogonal_project(g, subspace: RetainedSubspace) -> np.ndarray:
    """Component of ``g`` orthogonal to the subspace: g - sum <g,u> u.

    Projects twice (``project_out``), keeping dots with the basis at the
    1e-10 contract even for large ||g||; an empty basis gives ``g``'s bytes.
    """
    if subspace.dim != g.size:
        raise ShapeError(f"gradient dim {g.size} != subspace dim {subspace.dim}")
    return project_out(g, subspace.basis)


def add_dp_noise(g, clip_norm: float, sigma: float, rng_seed: int) -> np.ndarray:
    """Clip ``g`` to norm <= clip_norm, then add N(0, sigma^2 clip_norm^2) per coordinate."""
    if clip_norm <= 0:
        raise ValueError("clip_norm must be > 0")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    norm = float(np.linalg.norm(g))
    scale = min(1.0, clip_norm / norm) if norm > 0 else 1.0
    clipped = g * scale
    if sigma == 0.0:
        return clipped
    rng = stream(rng_seed, "unlearn.dp")
    return clipped + sigma * clip_norm * rng.standard_normal(g.size)


# ---------------------------------------------------------------------------
# softmax-linear classification model
# ---------------------------------------------------------------------------

def _softmax(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Max-shifted class probabilities ``(..., m, C)`` of stacked ``w``, ``x``."""
    logits = x @ np.swapaxes(w, -1, -2)
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def bce_dataset_loss(w: np.ndarray, x: np.ndarray, labels: np.ndarray, delta: float) -> float:
    """Mean bounded cross-entropy of the classifier over a dataset."""
    probs = _softmax(w, x)
    p_label = probs[np.arange(x.shape[0]), labels]
    return float(np.mean(-np.log((p_label + delta) / (1.0 + delta))))


def bce_dataset_grad(w: np.ndarray, x: np.ndarray, labels: np.ndarray, delta: float) -> np.ndarray:
    """Gradient of :func:`bce_dataset_loss` w.r.t. the weight matrix.

    Per example the logit gradient is p_y (p_c - 1[c=y]) / (p_y + delta),
    which reduces to the usual softmax-CE gradient as delta -> 0.

    Takes stacks: the leading axes of ``w (..., C, f)``, ``x (..., m, f)``
    and ``labels (..., m)`` broadcast, and the result is ``(..., C, f)``,
    one gradient per dataset.  A 2-D ``w`` and ``x`` is the one-dataset
    case; each slice of a stacked call equals its 2-D call bit for bit.
    """
    m = x.shape[-2]
    probs = _softmax(w, x)
    at_label = labels[..., None]
    p_label = np.take_along_axis(probs, at_label, axis=-1)
    ratio = p_label / (p_label + delta)
    coeff = probs * ratio
    at_coeff = np.take_along_axis(coeff, at_label, axis=-1)
    np.put_along_axis(coeff, at_label, at_coeff - ratio, axis=-1)
    return (np.swapaxes(coeff, -1, -2) @ x) / m


@dataclass
class UnlearnState:
    """Classifier, per-device data, the run's opt-out set, and one unlearned
    model per opt-out device.

    The datasets, which must all have the same shape, are stacked once in
    id order into ``x (D, m, f)`` and ``labels (D, m)``; ``datasets`` then
    becomes a read-only mapping of each id to its slices of the stacks.
    ``opt_out`` names the devices that leave, each unlearning its whole
    local dataset; it is kept as a sorted tuple, and the retained devices'
    stacks are copied out once, in id order, into ``retained_x`` and
    ``retained_labels``.
    """

    global_weights: np.ndarray  # n_classes x feature_dim
    datasets: Mapping[str, tuple[np.ndarray, np.ndarray]]  # id -> (X, labels)
    opt_out: tuple[str, ...]  # any collection of ids on input
    unlearned: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    round_index: int = field(default=0, init=False)
    device_ids: tuple[str, ...] = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    retained_x: np.ndarray = field(init=False, repr=False)
    retained_labels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.opt_out = tuple(sorted(set(self.opt_out)))
        if not self.opt_out:
            raise ValueError("opt-out set must be nonempty")
        unknown = [dev for dev in self.opt_out if dev not in self.datasets]
        if unknown:
            raise ValueError(f"opt-out ids not participating: {unknown}")
        self.device_ids = tuple(sorted(self.datasets))
        self.x = np.stack([self.datasets[dev][0] for dev in self.device_ids])
        self.labels = np.stack([self.datasets[dev][1] for dev in self.device_ids])
        self.datasets = MappingProxyType(
            {dev: (self.x[i], self.labels[i]) for i, dev in enumerate(self.device_ids)}
        )
        keep = [i for i, dev in enumerate(self.device_ids) if dev not in self.opt_out]
        self.retained_x, self.retained_labels = self.x[keep], self.labels[keep]


@dataclass(frozen=True)
class UnlearnRoundRecord:
    round_index: int
    forget_loss: float
    retained_loss: float
    projection_residual_norm: float
    sigma: float
    # max |<update, basis vector>| before noise; not part of the CSV contract
    basis_alignment: float = 0.0


@dataclass(frozen=True)
class DpConfig:
    clip_norm: float
    sigma: float
    seed: int


def make_classification_task(
    seed: int,
    device_ids: list[str],
    opt_out_ids: Collection[str],
    n_classes: int,
    feature_dim: int,
    samples_per_device: int,
) -> UnlearnState:
    """Synthetic clusters with a structurally distinct opt-out influence.

    Retained devices draw class clusters over the first ``feature_dim - 2``
    coordinates and are exactly zero on the last two.  Each opt-out device
    is a single-class client living on the penultimate coordinate (its own
    axis) plus a signature flag on the last one, with only an epsilon-level
    footprint on the shared coordinates.  Its influence on the model is
    therefore present for every seed, concentrated in weights the retained
    gradients barely touch, and removable by projected ascent while the
    projection absorbs the small shared-coordinate leakage.
    """
    if feature_dim < 3:
        raise ValueError("feature_dim must be >= 3 (two coordinates are reserved)")
    shared_dims = feature_dim - 2
    rng = stream(seed, "unlearn.clusters")
    shared_means = rng.standard_normal((n_classes, shared_dims))
    leak = 0.3  # opt-out footprint on the shared coordinates
    spread = 0.4  # std of every sample around its cluster centre
    datasets = {}
    for i, dev in enumerate(device_ids):
        dev_rng = stream(seed, f"unlearn.data.{dev}")
        x = np.zeros((samples_per_device, feature_dim))
        if dev in opt_out_ids:
            labels = np.full(samples_per_device, i % n_classes, dtype=np.int64)
            x[:, :shared_dims] = leak * dev_rng.standard_normal(
                (samples_per_device, shared_dims)
            )
            x[:, shared_dims] = 2.0 + spread * dev_rng.standard_normal(samples_per_device)
            x[:, shared_dims + 1] = 1.0
        else:
            labels = dev_rng.integers(0, n_classes, size=samples_per_device)
            x[:, :shared_dims] = shared_means[labels] + spread * (
                dev_rng.standard_normal((samples_per_device, shared_dims))
            )
        datasets[dev] = (x, labels)
    w0 = np.zeros((n_classes, feature_dim))
    return UnlearnState(w0, datasets, opt_out_ids)


def pretrain(state: UnlearnState, lr: float, rounds: int, delta: float) -> None:
    """Plain federated descent over all devices (size-weighted full batch).

    One stacked gradient call per round.  The weighted gradients are summed
    in id order by one cumsum, a left fold: the per-device adds into zeros
    give the same bits, as the closing ``+ 0.0`` turns a -0.0 (left only
    where every term is -0.0) into their +0.0.
    """
    n_devices, m = state.labels.shape
    share = m / float(n_devices * m)  # one device's size over the total
    for _ in range(rounds):
        grads = bce_dataset_grad(state.global_weights, state.x, state.labels, delta)
        grad = np.cumsum(share * grads, axis=0)[-1] + 0.0
        state.global_weights = state.global_weights - lr * grad


def unlearning_round(
    state: UnlearnState, lr: float, delta: float, dp: DpConfig | None = None
) -> UnlearnRoundRecord:
    """One unlearning round over every opt-out device.

    Retained devices supply descent gradients (evaluated at each opt-out
    model) that span the protected subspace; each opt-out model takes a
    projected (optionally noised) ascent step on its forget data.
    """
    for dev in state.opt_out:
        if dev not in state.unlearned:
            state.unlearned[dev] = state.global_weights.copy()

    shape = state.global_weights.shape
    residual_norm = 0.0
    max_basis_dot = 0.0
    for dev in state.opt_out:
        w_u = state.unlearned[dev]
        retained_grads = bce_dataset_grad(w_u, state.retained_x, state.retained_labels, delta)
        subspace = retained_subspace(retained_grads.reshape(len(retained_grads), w_u.size))
        forget_x, forget_y = state.datasets[dev]
        forget_grad = bce_dataset_grad(w_u, forget_x, forget_y, delta).ravel()
        projected = orthogonal_project(forget_grad, subspace)
        max_basis_dot = max(
            max_basis_dot, float(np.abs(subspace.basis @ projected).max(initial=0.0))
        )
        residual_norm = max(residual_norm, float(np.linalg.norm(projected)))
        update = projected
        if dp is not None:
            # fresh noise per (round, device), reproducible from dp.seed
            draw_seed = dp.seed ^ stream_word(f"unlearn.round{state.round_index}.{dev}")
            update = add_dp_noise(projected, dp.clip_norm, dp.sigma, draw_seed)
        state.unlearned[dev] = w_u + lr * update.reshape(shape)

    state.round_index += 1

    return UnlearnRoundRecord(
        state.round_index,
        forget_loss(state, delta),
        retained_loss(state, delta),
        residual_norm,
        dp.sigma if dp is not None else 0.0,
        max_basis_dot,
    )


def forget_loss(state: UnlearnState, delta: float) -> float:
    """Mean bounded CE of each opt-out model on its own forget data."""
    losses = []
    for dev in state.opt_out:
        w = state.unlearned.get(dev, state.global_weights)
        x, labels = state.datasets[dev]
        losses.append(bce_dataset_loss(w, x, labels, delta))
    return float(np.mean(losses))


def retained_loss(state: UnlearnState, delta: float) -> float:
    """Bounded CE of the unlearned model(s) on the union of retained data."""
    if not len(state.retained_x):
        return 0.0
    x = state.retained_x.reshape(-1, state.retained_x.shape[-1])
    labels = state.retained_labels.reshape(-1)
    losses = []
    for dev in state.opt_out:
        w = state.unlearned.get(dev, state.global_weights)
        losses.append(bce_dataset_loss(w, x, labels, delta))
    return float(np.mean(losses))


def run_unlearning(
    state: UnlearnState, lr: float, delta: float, rounds: int, dp: DpConfig | None = None
) -> list[UnlearnRoundRecord]:
    """Run ``rounds`` unlearning rounds, returning the per-round trace."""
    return [unlearning_round(state, lr, delta, dp) for _ in range(rounds)]
