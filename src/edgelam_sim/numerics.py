"""Gram-Schmidt orthonormalization of float64 vectors, and the projection
off an orthonormal basis.

``project_out`` takes a vector off a basis's row span by two passes of
classical Gram-Schmidt.  ``gram_schmidt`` runs two-pass modified
Gram-Schmidt right-looking: the moment a row is kept as a basis vector, one
stacked product takes that vector off every later row, so each row arrives
holding its first pass.  A screen on that residual's norm drops the rows it
shows to be dependent; the rest run the second pass one basis vector at a
time and the exact keep test, so the screen decides drops and never touches
the returned bits.

The caller passes float64 arrays built inside the run; a non-finite entry
cannot arrive, because the run raises at the operation that would make
one.  Both functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

DROP_TOL = 1e-8  # dependent-vector drop tolerance, relative to input norm

# The screen drops a row whose first-pass residual is below half the drop
# line.  The second pass is a near-orthogonal projection, which shrinks that
# residual or grows it by O(k eps) of itself (about 1e-14 at desk scale), so
# every row the screen drops would also fail the exact keep test.  Rounding
# near the underflow range is coarser than that relative bound: below
# SCREEN_FLOOR in squared norm the row goes straight to the exact test.
SCREEN_FRACTION = 0.5
SCREEN_FLOOR = 2.0**-900


def project_out(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``v`` minus its component in the span of ``basis``'s orthonormal rows.

    Projects twice; the second pass scrubs the float residue of the first.
    A ``(0, dim)`` basis returns a new array with ``v``'s bytes.
    """
    out = v - basis.T @ (basis @ v)
    return out - basis.T @ (basis @ out)


def _second_pass(residual: np.ndarray, basis: np.ndarray) -> None:
    """Take ``basis``'s rows off ``residual`` in place, one at a time: the
    re-orthogonalization pass of modified Gram-Schmidt, which restores
    orthogonality to ~1e-15 at desk scale.  ``a.dot(b)`` is ``np.dot(a, b)``
    without the function's dispatch."""
    for u in basis:
        residual -= residual.dot(u) * u


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """Orthonormalize the ``(n, dim)`` rows of ``vectors``, dropping those
    dependent on earlier ones.

    A row is kept iff its two-pass modified Gram-Schmidt residual against
    the basis built so far has a norm of at least ``DROP_TOL`` times its
    input norm; the kept row is that residual, normalized.  The first pass
    runs right-looking: each new basis vector ``u`` comes off all later rows
    of a working copy at once.  Each slice of the stacked ``matmul`` is the
    same BLAS dot as ``residual.dot(u)``, and the scale and subtract are
    elementwise, so every row gets the per-row pass's bits.  The screen drops
    the rows whose first-pass residual is below half the line, which the
    exact test would drop too.  Returns the orthonormal ``(n_basis, dim)``
    leading rows of one ``(n, dim)`` buffer; they span the input span, and
    ``n_basis`` is 0 when no row is kept.
    """
    work = vectors.copy()
    basis = np.empty(vectors.shape)
    n_basis = 0
    for i, v in enumerate(vectors):
        # what np.linalg.norm computes for a 1-D float64 array, bit for bit
        v_norm = math.sqrt(v.dot(v))
        if v_norm == 0.0:
            continue
        residual = work[i]
        first = residual.dot(residual)
        if first >= SCREEN_FLOOR and math.sqrt(first) < SCREEN_FRACTION * DROP_TOL * v_norm:
            continue
        _second_pass(residual, basis[:n_basis])
        r_norm = math.sqrt(residual.dot(residual))
        if r_norm < DROP_TOL * v_norm:
            continue
        u = basis[n_basis]
        np.divide(residual, r_norm, out=u)
        n_basis += 1
        # not ``rest @ u``: BLAS gemv rounds differently from per-row dot
        rest = work[i + 1:]
        rest -= (rest[:, None, :] @ u[:, None])[:, 0] * u
    return basis[:n_basis]
