"""Gram-Schmidt orthonormalization of float64 vectors, and the projection
off an orthonormal basis.

``project_out`` takes a vector off a basis's row span by two passes of
classical Gram-Schmidt.  ``gram_schmidt`` screens each row with it against
the basis built so far and drops the rows it shows to be dependent; a row
that may be kept runs the exact two-pass modified Gram-Schmidt, whose result
alone is kept, so the screen decides drops and never touches the returned
bits.

The caller passes float64 arrays built inside the run; a non-finite entry
cannot arrive, because the run raises at the operation that would make
one.  Both functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math

import numpy as np

DROP_TOL = 1e-8  # dependent-vector drop tolerance, relative to input norm

# The screen drops a row whose two-pass classical residual is below half the
# drop line.  That residual and the modified one differ by O(k eps) relative
# to the row's norm (about 1e-14 at desk scale), far below the other half,
# so every row the screen drops would also fail the exact keep test.
SCREEN_FRACTION = 0.5


def project_out(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``v`` minus its component in the span of ``basis``'s orthonormal rows.

    Projects twice; the second pass scrubs the float residue of the first.
    A ``(0, dim)`` basis returns a new array with ``v``'s bytes.
    """
    out = v - basis.T @ (basis @ v)
    return out - basis.T @ (basis @ out)


def _mgs_residual(v: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``v`` projected off ``basis``'s rows by two-pass modified Gram-Schmidt.

    One basis vector at a time; the re-orthogonalization pass restores
    orthogonality to ~1e-15 at desk scale.  ``a.dot(b)`` is ``np.dot(a, b)``
    without the function's dispatch.
    """
    residual = v.copy()
    for _ in range(2):
        for u in basis:
            residual -= residual.dot(u) * u
    return residual


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """Orthonormalize the ``(n, dim)`` rows of ``vectors``, dropping those
    dependent on earlier ones.

    A row is kept iff its two-pass modified Gram-Schmidt residual against
    the basis built so far has a norm of at least ``DROP_TOL`` times its
    input norm; the kept row is that residual, normalized.  The screen
    (``project_out``) first drops the rows whose residual is below half that
    line, which the exact test would drop too.  Returns the orthonormal
    ``(n_basis, dim)`` leading rows of one ``(n, dim)`` buffer; they span the
    input span, and ``n_basis`` is 0 when no row is kept.
    """
    basis = np.empty(vectors.shape)
    n_basis = 0
    for v in vectors:
        # what np.linalg.norm computes for a 1-D float64 array, bit for bit
        v_norm = math.sqrt(v.dot(v))
        if v_norm == 0.0:
            continue
        screened = project_out(v, basis[:n_basis])
        if math.sqrt(screened.dot(screened)) < SCREEN_FRACTION * DROP_TOL * v_norm:
            continue
        residual = _mgs_residual(v, basis[:n_basis])
        r_norm = math.sqrt(residual.dot(residual))
        if r_norm < DROP_TOL * v_norm:
            continue
        basis[n_basis] = residual / r_norm
        n_basis += 1
    return basis[:n_basis]
