"""Gram-Schmidt orthonormalization of float64 vectors.

Each row is first screened against the basis built so far by two passes of
classical Gram-Schmidt (two matrix products each); a row the screen shows
to be dependent is dropped without further work.  A row that may be kept
runs the exact two-pass modified Gram-Schmidt, whose result alone is kept,
so the screen decides drops and never touches the returned bits.

The caller passes 1-D float64 arrays built inside the run; a non-finite
entry cannot arrive, because the run raises at the operation that would
make one.  The function is pure and never mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError

DROP_TOL = 1e-8  # dependent-vector drop tolerance, relative to input norm

# The screen drops a row whose two-pass classical residual is below half the
# drop line.  That residual and the modified one differ by O(k eps) relative
# to the row's norm (about 1e-14 at desk scale), far below the other half,
# so every row the screen drops would also fail the exact keep test.
SCREEN_FRACTION = 0.5


def _mgs_residual(v: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """``v`` projected off ``basis`` by modified Gram-Schmidt, in two passes.

    One basis vector at a time; the re-orthogonalization pass restores
    orthogonality to ~1e-15 at desk scale.  ``a.dot(b)`` is ``np.dot(a, b)``
    without the function's dispatch.
    """
    residual = v
    for _ in range(2):
        for u in basis:
            residual = residual - residual.dot(u) * u
    return residual


def gram_schmidt(vectors) -> list[np.ndarray]:
    """Orthonormalize ``vectors``, dropping those dependent on earlier ones.

    A vector is kept iff its two-pass modified Gram-Schmidt residual
    against the basis built so far has a norm of at least ``DROP_TOL``
    times its input norm; the kept vector is that residual, normalized.
    Before that exact projection, a screen of two classical Gram-Schmidt
    passes (one matrix product each way against the basis so far) drops the
    vectors whose residual is below half that line, which the exact test
    would drop too.  Returns an orthonormal list spanning the input span; the
    empty input yields the empty list.
    """
    rows = list(vectors)
    basis: list[np.ndarray] = []
    kept = None  # the basis as the first len(basis) rows of a buffer
    for v in rows:
        if kept is None:
            kept = np.empty((len(rows), v.size))
        elif v.size != kept.shape[1]:
            raise ShapeError(f"mixed vector lengths {kept.shape[1]} and {v.size}")
        # what np.linalg.norm computes for a 1-D float64 array, bit for bit
        v_norm = math.sqrt(v.dot(v))
        if v_norm == 0.0:
            continue
        if basis:
            b = kept[: len(basis)]
            screened = v - (b @ v) @ b
            screened = screened - (b @ screened) @ b
            if math.sqrt(screened.dot(screened)) < SCREEN_FRACTION * DROP_TOL * v_norm:
                continue
        residual = _mgs_residual(v, basis)
        r_norm = math.sqrt(residual.dot(residual))
        if r_norm < DROP_TOL * v_norm:
            continue
        basis.append(residual / r_norm)
        kept[len(basis) - 1] = basis[-1]
    return basis
