"""Federated unlearning by gradient projection.

Opt-out devices run gradient *ascent* on their forget data; before
dissemination the server projects each ascent direction onto the orthogonal
complement of the span of the retained devices' gradients, so first-order
retained loss is untouched.  Cross-entropy is bounded by shifting the
logarithm, which caps both the loss and its gradient.  Optional Gaussian
noise on the disseminated update comes from a seeded stream.

The desk-scale task is a softmax-linear classifier on synthetic clusters;
each opt-out device is a single-class client in its own feature region, so
its influence on the model is distinguishable and removable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .numerics import DROP_TOL, as_matrix, as_vector, gram_schmidt
from .rng import stream, stream_word


@dataclass(frozen=True)
class UnlearnRequest:
    """Opt-out declaration: which devices leave, and what they want forgotten.

    ``forget_batches`` optionally narrows the forget data per device; a
    device without an entry unlearns its whole local dataset.
    """

    opt_out_ids: frozenset[str]
    forget_batches: dict[str, tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if not self.opt_out_ids:
            raise ValueError("opt-out set must be nonempty")
        if self.forget_batches is not None:
            extra = set(self.forget_batches) - self.opt_out_ids
            if extra:
                raise ValueError(f"forget batches for non-opt-out devices: {sorted(extra)}")


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


def retained_subspace(retained_gradients, tol: float = DROP_TOL) -> RetainedSubspace:
    """Gram-Schmidt basis of the retained gradients (dependents dropped)."""
    grads = [as_vector(g) for g in retained_gradients]
    if not grads:
        return RetainedSubspace(np.zeros((0, 0)))
    basis = gram_schmidt(grads, tol=tol)
    if not basis:
        return RetainedSubspace(np.zeros((0, grads[0].size)))
    return RetainedSubspace(np.vstack(basis))


def orthogonal_project(g, subspace: RetainedSubspace) -> np.ndarray:
    """Component of ``g`` orthogonal to the subspace: g - sum <g,u> u.

    Projects twice; the second pass scrubs the float residue of the first,
    keeping dots with the basis at the 1e-10 contract even for large ||g||.
    """
    g = as_vector(g)
    if subspace.n_basis == 0:
        return g.copy()
    if subspace.dim != g.size:
        raise ShapeError(f"gradient dim {g.size} != subspace dim {subspace.dim}")
    u = subspace.basis
    out = g - u.T @ (u @ g)
    out = out - u.T @ (u @ out)
    return out


def add_dp_noise(g, clip_norm: float, sigma: float, rng_seed: int) -> np.ndarray:
    """Clip ``g`` to norm <= clip_norm, then add N(0, sigma^2 clip_norm^2) per coordinate."""
    g = as_vector(g)
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

def bce_dataset_loss(weights, features, labels, delta: float) -> float:
    """Mean bounded cross-entropy of the classifier over a dataset."""
    w = as_matrix(weights)
    x = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64)
    logits = x @ w.T
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    p_label = probs[np.arange(x.shape[0]), labels]
    return float(np.mean(-np.log((p_label + delta) / (1.0 + delta))))


def bce_dataset_grad(weights, features, labels, delta: float) -> np.ndarray:
    """Gradient of :func:`bce_dataset_loss` w.r.t. the weight matrix.

    Per example the logit gradient is p_y (p_c - 1[c=y]) / (p_y + delta),
    which reduces to the usual softmax-CE gradient as delta -> 0.
    """
    w = as_matrix(weights)
    x = as_matrix(features)
    labels = np.asarray(labels, dtype=np.int64)
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


@dataclass
class UnlearnState:
    """Classifier, per-device data, and per-opt-out unlearned models."""

    global_weights: np.ndarray  # n_classes x feature_dim
    datasets: dict[str, tuple[np.ndarray, np.ndarray]]  # id -> (X, labels)
    unlearned: dict[str, np.ndarray] = field(default_factory=dict)
    round_index: int = 0


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
    opt_out_ids: set[str],
    n_classes: int,
    feature_dim: int,
    samples_per_device: int,
    cluster_spread: float = 0.4,
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
    datasets = {}
    for i, dev in enumerate(device_ids):
        dev_rng = stream(seed, f"unlearn.data.{dev}")
        x = np.zeros((samples_per_device, feature_dim))
        if dev in opt_out_ids:
            labels = np.full(samples_per_device, i % n_classes, dtype=np.int64)
            x[:, :shared_dims] = leak * dev_rng.standard_normal(
                (samples_per_device, shared_dims)
            )
            x[:, shared_dims] = 2.0 + cluster_spread * dev_rng.standard_normal(
                samples_per_device
            )
            x[:, shared_dims + 1] = 1.0
        else:
            labels = dev_rng.integers(0, n_classes, size=samples_per_device)
            x[:, :shared_dims] = shared_means[labels] + cluster_spread * (
                dev_rng.standard_normal((samples_per_device, shared_dims))
            )
        datasets[dev] = (x, labels)
    w0 = np.zeros((n_classes, feature_dim))
    return UnlearnState(w0, datasets)


def pretrain(state: UnlearnState, lr: float, rounds: int, delta: float) -> None:
    """Plain federated descent over all devices (size-weighted full batch)."""
    sizes = {dev: x.shape[0] for dev, (x, _) in state.datasets.items()}
    total = float(sum(sizes.values()))
    for _ in range(rounds):
        grad = np.zeros_like(state.global_weights)
        for dev in sorted(state.datasets):
            x, labels = state.datasets[dev]
            grad += (sizes[dev] / total) * bce_dataset_grad(
                state.global_weights, x, labels, delta
            )
        state.global_weights = state.global_weights - lr * grad


def unlearning_round(
    state: UnlearnState,
    request: UnlearnRequest,
    lr: float,
    delta: float,
    dp: DpConfig | None = None,
) -> UnlearnRoundRecord:
    """One unlearning round over every opt-out device.

    Retained devices supply descent gradients (evaluated at each opt-out
    model) that span the protected subspace; each opt-out model takes a
    projected (optionally noised) ascent step on its forget data.
    """
    unknown = request.opt_out_ids - set(state.datasets)
    if unknown:
        raise ValueError(f"opt-out ids not participating: {sorted(unknown)}")
    retained_ids = sorted(set(state.datasets) - request.opt_out_ids)
    for dev in request.opt_out_ids:
        if dev not in state.unlearned:
            state.unlearned[dev] = state.global_weights.copy()

    shape = state.global_weights.shape
    residual_norm = 0.0
    max_basis_dot = 0.0
    for dev in sorted(request.opt_out_ids):
        w_u = state.unlearned[dev]
        retained_grads = [
            bce_dataset_grad(w_u, *state.datasets[rid], delta).ravel()
            for rid in retained_ids
        ]
        subspace = retained_subspace(retained_grads)
        forget_x, forget_y = forget_data(state, request, dev)
        forget_grad = bce_dataset_grad(w_u, forget_x, forget_y, delta).ravel()
        projected = orthogonal_project(forget_grad, subspace)
        if subspace.n_basis:
            max_basis_dot = max(
                max_basis_dot, float(np.abs(subspace.basis @ projected).max())
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
        forget_loss(state, request, delta),
        retained_loss(state, request, delta),
        residual_norm,
        dp.sigma if dp is not None else 0.0,
        max_basis_dot,
    )


def forget_data(
    state: UnlearnState, request: UnlearnRequest, dev: str
) -> tuple[np.ndarray, np.ndarray]:
    """The data device ``dev`` asked to forget (its dataset by default)."""
    if request.forget_batches is not None and dev in request.forget_batches:
        return request.forget_batches[dev]
    return state.datasets[dev]


def forget_loss(state: UnlearnState, request: UnlearnRequest, delta: float) -> float:
    """Mean bounded CE of each opt-out model on its own forget data."""
    losses = []
    for dev in sorted(request.opt_out_ids):
        w = state.unlearned.get(dev, state.global_weights)
        x, labels = forget_data(state, request, dev)
        losses.append(bce_dataset_loss(w, x, labels, delta))
    return float(np.mean(losses))


def retained_loss(state: UnlearnState, request: UnlearnRequest, delta: float) -> float:
    """Bounded CE of the unlearned model(s) on the union of retained data."""
    retained_ids = sorted(set(state.datasets) - request.opt_out_ids)
    if not retained_ids:
        return 0.0
    x = np.concatenate([state.datasets[rid][0] for rid in retained_ids])
    labels = np.concatenate([state.datasets[rid][1] for rid in retained_ids])
    losses = []
    for dev in sorted(request.opt_out_ids):
        w = state.unlearned.get(dev, state.global_weights)
        losses.append(bce_dataset_loss(w, x, labels, delta))
    return float(np.mean(losses))


def run_unlearning(
    state: UnlearnState,
    request: UnlearnRequest,
    lr: float,
    delta: float,
    rounds: int,
    dp: DpConfig | None = None,
) -> list[UnlearnRoundRecord]:
    """Run ``rounds`` unlearning rounds, returning the per-round trace."""
    return [unlearning_round(state, request, lr, delta, dp) for _ in range(rounds)]
