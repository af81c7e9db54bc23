"""Gram-Schmidt orthonormalization of float64 vectors.

The caller passes 1-D float64 arrays built inside the run; a non-finite
entry cannot arrive, because the run raises at the operation that would
make one.  The function is pure and never mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DROP_TOL = 1e-8  # dependent-vector drop tolerance, relative to input norm


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
        if dim is None:
            dim = v.size
        elif v.size != dim:
            raise ShapeError(f"mixed vector lengths {dim} and {v.size}")
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
