"""Linear algebra and probability helpers against naive oracles."""

import numpy as np
import pytest

from edgelam_sim.errors import ShapeError
from edgelam_sim.numerics import gram_schmidt

from oracles import as_prob_vector, softmax


def span_projector(vectors):
    """Normal-equations projector onto span(vectors): A^T (A A^T)^-1 A."""
    a = np.vstack(vectors)
    return a.T @ np.linalg.pinv(a @ a.T) @ a


class TestGramSchmidt:
    def test_already_orthogonal(self):
        basis = gram_schmidt([np.array([1.0, 0.0]), np.array([0.0, 2.0])])
        assert np.allclose(basis[0], [1.0, 0.0])
        assert np.allclose(basis[1], [0.0, 1.0])

    def test_duplicate_dropped(self):
        basis = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 0.0])], tol=1e-8)
        assert len(basis) == 1
        assert np.allclose(basis[0], [1.0, 0.0])

    def test_empty_input(self):
        assert gram_schmidt([]) == []

    def test_projector_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(6) for _ in range(4)]
        basis = gram_schmidt(vectors)
        u = np.vstack(basis)
        assert np.max(np.abs(u.T @ u - span_projector(vectors))) <= 1e-9

    def test_orthonormality_contract(self):
        rng = np.random.default_rng(4)
        basis = gram_schmidt([rng.standard_normal(8) for _ in range(5)])
        u = np.vstack(basis)
        gram = u @ u.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        basis = gram_schmidt([rng.standard_normal(7) for _ in range(4)])
        again = gram_schmidt(basis)
        assert len(again) == len(basis)
        for v, w in zip(basis, again):
            assert np.max(np.abs(v - w)) <= 1e-10

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ShapeError):
            gram_schmidt([np.ones(3), np.ones(4)])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_closed_form(self):
        out = softmax([np.log(1.0), np.log(3.0)])
        assert np.max(np.abs(out - [0.25, 0.75])) <= 1e-12

    def test_no_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.allclose(out, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(9)
        assert np.max(np.abs(softmax(z) - softmax(z + 123.456))) <= 1e-12

    def test_output_is_probability(self):
        as_prob_vector(softmax(np.random.default_rng(7).standard_normal(5)))
