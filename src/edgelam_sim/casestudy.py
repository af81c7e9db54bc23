"""Analytical token-budget cost model for split CoT inference.

Attention makes per-device memory and compute grow quadratically in the
token count, while splitting a chain over more devices adds a fixed handoff
delay per hop.  The model captures exactly that trade-off:

    devices        m  = ceil(N / T)
    split memory      = m * (alpha_mem * T^2 + base_mem)
    monolithic memory = alpha_mem * N^2 + base_mem
    split latency     = m * (beta_comp * T^2 / compute_rate) + (m - 1) * gamma_handoff
    monolithic latency= beta_comp * N^2 / compute_rate

``_costs`` is the one place these are computed, in this operation order,
for a sweep row and for the calibration grid alike.  Absolute GPU
measurements are not reproducible at desk scale; instead
``calibrate_casestudy`` grid-searches (N, gamma_handoff, base_mem) so the
model reproduces the reported reduction percentages at the 128-token budget
while 128 stays the best of {64, 128, 256} under the combined normalized
cost (normalized memory plus normalized latency).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import SizeLimitError

MAX_DEVICES = 10
DEFAULT_ALPHA_MEM = 2.0  # bytes/token^2
DEFAULT_BETA_COMP = 2.0  # FLOPs/token^2
DEFAULT_COMPUTE_RATE = 1e6  # FLOP/s
T_STAR = 128  # the budget calibration keeps optimal
BUDGETS = (64, 128, 256)  # the budgets T_STAR must beat
RESIDUAL_LIMIT = 0.02  # largest residual per target that counts as calibrated


@dataclass(frozen=True)
class TokenBudgetModel:
    """Parameters of the quadratic memory/latency trade-off."""

    n_total: int  # tokens of the full reasoning chain
    t_budget: int  # max tokens per device
    alpha_mem: float  # bytes per token^2
    beta_comp: float  # FLOPs per token^2
    gamma_handoff: float  # seconds per inter-device handoff
    base_mem: float  # bytes per participating device
    compute_rate: float = DEFAULT_COMPUTE_RATE  # FLOP/s per device

    def __post_init__(self):
        if self.n_total <= 0 or self.t_budget <= 0:
            raise ValueError("token counts must be positive")
        if self.t_budget > self.n_total:
            raise ValueError("per-device budget cannot exceed the total chain")
        if self.alpha_mem <= 0 or self.beta_comp <= 0 or self.compute_rate <= 0:
            raise ValueError("alpha_mem, beta_comp and compute_rate must be > 0")
        if self.gamma_handoff < 0 or self.base_mem < 0:
            raise ValueError("gamma_handoff and base_mem must be >= 0")
        if device_count(self.n_total, self.t_budget) > MAX_DEVICES:
            raise SizeLimitError(
                f"budget {self.t_budget} needs more than {MAX_DEVICES} devices"
            )


def device_count(n_total: int, t_budget: int) -> int:
    return -(-n_total // t_budget)  # exact ceiling, also beyond the float range


@dataclass(frozen=True)
class SweepRow:
    """One evaluated budget of a sweep."""

    t_budget: int
    device_count: int
    total_memory: float
    monolithic_memory: float
    total_latency: float
    monolithic_latency: float
    mem_reduction: float
    lat_reduction: float

    @property
    def combined_normalized_cost(self) -> float:
        return (
            self.total_memory / self.monolithic_memory
            + self.total_latency / self.monolithic_latency
        )


def _costs(n_total, t_budget, alpha_mem, beta_comp, gamma_handoff, base_mem, compute_rate):
    """(split memory, monolithic memory, split latency, monolithic latency)
    at one budget, for Python floats or numpy arrays of ``gamma_handoff``
    and ``base_mem`` alike."""
    m = device_count(n_total, t_budget)
    return (
        m * (alpha_mem * t_budget**2 + base_mem),
        alpha_mem * n_total**2 + base_mem,
        m * (beta_comp * t_budget**2 / compute_rate) + (m - 1) * gamma_handoff,
        beta_comp * n_total**2 / compute_rate,
    )


def evaluate_budget(model: TokenBudgetModel, t_budget: int) -> SweepRow:
    """Model forward pass at one per-device token budget.

    A value that leaves the float range raises ValueError, never inf or nan.
    """
    if t_budget <= 0 or t_budget > model.n_total:
        raise ValueError(f"budget {t_budget} outside (0, {model.n_total}]")
    m = device_count(model.n_total, t_budget)
    if m > MAX_DEVICES:
        raise SizeLimitError(
            f"budget {t_budget} needs {m} devices, limit is {MAX_DEVICES}"
        )
    try:
        mem, mono_mem, lat, mono_lat = _costs(
            model.n_total, t_budget, model.alpha_mem, model.beta_comp,
            model.gamma_handoff, model.base_mem, model.compute_rate,
        )
        row = SweepRow(t_budget, m, mem, mono_mem, lat, mono_lat,
                       1.0 - mem / mono_mem, 1.0 - lat / mono_lat)
        values = (*astuple(row)[2:], row.combined_normalized_cost)
    except (OverflowError, ZeroDivisionError):
        values = (math.nan,)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"budget {t_budget}: the model's values leave the float range")
    return row


def casestudy_sweep(model: TokenBudgetModel, budgets) -> list[SweepRow]:
    """Evaluate the model at every budget (device-limit errors propagate)."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("budgets must be nonempty")
    return [evaluate_budget(model, t) for t in budgets]


@dataclass(frozen=True)
class CalibrationResult:
    model: TokenBudgetModel
    achieved_mem_reduction: float
    achieved_lat_reduction: float
    residual_mem: float
    residual_lat: float
    success: bool
    message: str


def calibrate_casestudy(targets: tuple[float, float]) -> CalibrationResult:
    """Fit (N, gamma_handoff, base_mem) to the target reductions at ``T_STAR``.

    Grid: N in [256, 640] step 16 (the chains every budget in ``BUDGETS``
    can host on <= ``MAX_DEVICES`` devices), gamma_handoff and base_mem on
    log grids with an explicit zero.  Each cell is scored with
    ``evaluate_budget``'s formulas and operation order: it must keep
    ``T_STAR`` the strict argmin of ``combined_normalized_cost`` among
    ``BUDGETS``, and among those cells the squared residual to the two
    targets is minimized.  Which cells qualify does not depend on the
    targets, and every N has thousands, so there is always a best cell.
    The two log-grid parameters can absorb both targets at many N, so
    near-ties (within 4x of the best squared residual) resolve to the
    largest N, a fixed identifiability rule that keeps the returned N
    stable under small target perturbations.  The achieved reductions are
    the calibrated model's ``T_STAR`` sweep row.  A residual above
    ``RESIDUAL_LIMIT`` per target is reported as a calibration failure,
    not raised.
    """
    mem_target, lat_target = targets
    if not (0 < mem_target < 1 and 0 < lat_target < 1):
        raise ValueError("targets must lie in (0, 1)")

    alpha = DEFAULT_ALPHA_MEM
    beta = DEFAULT_BETA_COMP
    rate = DEFAULT_COMPUTE_RATE
    gamma_grid = np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 160)))
    base_grid = np.concatenate(([0.0], np.geomspace(1.0, 1e6, 160)))
    gamma = gamma_grid[:, None]
    base = base_grid[None, :]

    candidates = []  # (sq_residual, n, gamma, base)
    for n in range(256, min(BUDGETS) * MAX_DEVICES + 1, 16):
        # each budget's normalized memory (1, 161) and latency (161, 1)
        norm = {}
        for t in BUDGETS:
            mem, mono_mem, lat, mono_lat = _costs(n, t, alpha, beta, gamma, base, rate)
            norm[t] = (mem / mono_mem, lat / mono_lat)
        star_mem, star_lat = norm.pop(T_STAR)
        cost_star = star_mem + star_lat
        strictly_best = np.ones(cost_star.shape, dtype=bool)
        for mem, lat in norm.values():
            strictly_best &= cost_star < mem + lat
        if not strictly_best.any():
            continue
        sq = (1.0 - star_mem - mem_target) ** 2 + (1.0 - star_lat - lat_target) ** 2
        sq = np.where(strictly_best, sq, np.inf)
        gi, bi = np.unravel_index(int(np.argmin(sq)), sq.shape)
        candidates.append((float(sq[gi, bi]), n, float(gamma_grid[gi]), float(base_grid[bi])))

    sq_best = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= 4.0 * sq_best + 1e-18]
    _, n, g, b = max(tied, key=lambda c: c[1])
    model = TokenBudgetModel(n, T_STAR, alpha, beta, g, b, rate)
    row = evaluate_budget(model, T_STAR)
    res_mem = abs(row.mem_reduction - mem_target)
    res_lat = abs(row.lat_reduction - lat_target)
    ok = res_mem <= RESIDUAL_LIMIT and res_lat <= RESIDUAL_LIMIT
    message = "calibrated" if ok else (
        f"best residuals ({res_mem:.4f}, {res_lat:.4f}) exceed {RESIDUAL_LIMIT}"
    )
    return CalibrationResult(
        model, row.mem_reduction, row.lat_reduction, res_mem, res_lat, ok, message
    )
