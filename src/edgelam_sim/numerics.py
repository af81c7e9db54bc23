"""Input validation and Gram-Schmidt.

Matrices are 2-D float64 C-order arrays and vectors are 1-D float64
arrays.  All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DROP_TOL = 1e-8  # dependent-vector drop tolerance, relative to input norm


def as_matrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate ``data`` as a finite float64 matrix, optionally of fixed shape."""
    m = np.ascontiguousarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ShapeError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(data, size: int | None = None) -> np.ndarray:
    """Validate ``data`` as a finite float64 vector."""
    v = np.ascontiguousarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got ndim={v.ndim}")
    if size is not None and v.size != size:
        raise ShapeError(f"expected length {size}, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def gram_schmidt(vectors, tol: float = DROP_TOL) -> list[np.ndarray]:
    """Orthonormalize ``vectors`` by modified Gram-Schmidt.

    Each vector's running residual is projected against the basis built so
    far, one basis vector at a time, in two passes (the
    re-orthogonalization pass restores orthogonality to ~1e-15 at desk
    scale), then kept iff its residual norm exceeds ``tol`` times its input
    norm.  Returns an orthonormal list spanning the input span; the empty
    input yields the empty list.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    basis: list[np.ndarray] = []
    dim = None
    for v in vectors:
        v = as_vector(v)
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise ShapeError(f"mixed vector lengths {dim} and {v.size}")
        v_norm = float(np.linalg.norm(v))
        if v_norm == 0.0:
            continue
        residual = v.copy()
        for _ in range(2):
            for u in basis:
                residual = residual - np.dot(residual, u) * u
        r_norm = float(np.linalg.norm(residual))
        if r_norm < tol * v_norm:
            continue
        basis.append(residual / r_norm)
    return basis
