"""Linear algebra and probability helpers against naive oracles."""

import numpy as np
import pytest

from edgelam_sim.errors import ShapeError
from edgelam_sim.numerics import frobenius_norm, gram_schmidt, matmul

from oracles import as_prob_vector, softmax


def naive_matmul(a, b):
    """Triple-loop reference product."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def span_projector(vectors):
    """Normal-equations projector onto span(vectors): A^T (A A^T)^-1 A."""
    a = np.vstack(vectors)
    return a.T @ np.linalg.pinv(a @ a.T) @ a


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_hand_checked_2x2(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
        assert np.array_equal(out, [[2.0], [4.0]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((3, 4))
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dims = rng.integers(1, 6, size=4)
            a = rng.standard_normal((dims[0], dims[1]))
            b = rng.standard_normal((dims[1], dims[2]))
            c = rng.standard_normal((dims[2], dims[3]))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            denom = max(frobenius_norm(left), 1e-30)
            assert frobenius_norm(left - right) / denom <= 1e-9

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matmul([[np.nan, 0.0]], [[1.0], [1.0]])


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


class TestFrobeniusNorm:
    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm([[3.0, 4.0]]) == 5.0

    def test_matches_naive_sum_oracle(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 4))
        acc = 0.0
        for i in range(4):
            for j in range(4):
                acc += m[i, j] ** 2
        assert abs(frobenius_norm(m) - np.sqrt(acc)) <= 1e-12
