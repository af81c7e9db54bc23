"""Linear algebra and probability helpers against naive oracles."""

import random

import numpy as np
import pytest

from edgelam_sim import numerics, unlearn
from edgelam_sim.numerics import DROP_TOL, SCREEN_FRACTION, gram_schmidt

from oracles import as_prob_vector, gram_schmidt_unscreened, softmax


def span_projector(vectors):
    """Normal-equations projector onto span(vectors): A^T (A A^T)^-1 A."""
    a = np.vstack(vectors)
    return a.T @ np.linalg.pinv(a @ a.T) @ a


class TestGramSchmidt:
    def test_already_orthogonal(self):
        basis = gram_schmidt(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(basis[0], [1.0, 0.0])
        assert np.allclose(basis[1], [0.0, 1.0])

    def test_duplicate_dropped(self):
        basis = gram_schmidt(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert len(basis) == 1
        assert np.allclose(basis[0], [1.0, 0.0])

    def test_empty_input(self):
        basis = gram_schmidt(np.zeros((0, 3)))
        assert basis.shape == (0, 3) and basis.dtype == np.float64

    def test_no_row_kept(self):
        assert gram_schmidt(np.zeros((2, 3))).shape == (0, 3)

    def test_projector_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 6))
        u = gram_schmidt(vectors)
        assert np.max(np.abs(u.T @ u - span_projector(vectors))) <= 1e-9

    def test_orthonormality_contract(self):
        rng = np.random.default_rng(4)
        u = gram_schmidt(rng.standard_normal((5, 8)))
        assert u.shape == (5, 8)
        assert np.max(np.abs(u @ u.T - np.eye(5))) <= 1e-10

    def test_idempotence(self):
        rng = np.random.default_rng(5)
        basis = gram_schmidt(rng.standard_normal((4, 7)))
        again = gram_schmidt(basis)
        assert again.shape == basis.shape == (4, 7)
        assert np.max(np.abs(basis - again)) <= 1e-10

    def test_input_left_unchanged(self):
        vectors = np.random.default_rng(11).standard_normal((6, 4))
        before = vectors.copy()
        gram_schmidt(vectors)
        assert vectors.tobytes() == before.tobytes()


def power_of_two_scaled(vectors):
    """Each row times the power of two that puts its largest |entry| in
    [0.5, 1), an exact scaling: the rows ``gram_schmidt`` orthonormalizes."""
    _, exponents = np.frexp(np.abs(vectors).max(axis=1, initial=0.0))
    return np.ldexp(vectors, -exponents[:, None])


def same_basis(vectors):
    """``gram_schmidt`` on ``vectors``, checked bit for bit against the
    unscreened two-pass MGS of the same exactly scaled rows at the same drop
    line: the same number of rows, each with the same bytes."""
    vectors = np.array(vectors)
    basis = gram_schmidt(vectors)
    oracle = gram_schmidt_unscreened(power_of_two_scaled(vectors), DROP_TOL)
    assert len(basis) == len(oracle)
    for got, want in zip(basis, oracle):
        assert got.tobytes() == want.tobytes()
    return basis


def unlearning_run(seed, n_devices, n_opt_out, pretrain_rounds, rounds=25):
    """One unlearning run shaped like the benchmark's: 3 classes, 10
    features, 40 samples per device, lr 0.5, delta 0.05, DP noise."""
    rng = random.Random(seed)
    ids = [f"d{i:02d}" for i in range(n_devices)]
    opt_out = set(rng.sample(ids, n_opt_out))
    state = unlearn.make_classification_task(rng.randrange(1, 2**31), ids, opt_out, 3, 10, 40)
    unlearn.pretrain(state, 0.5, pretrain_rounds, 0.05)
    dp = unlearn.DpConfig(1.0, rng.uniform(0.05, 0.2), seed)
    unlearn.run_unlearning(state, 0.5, 0.05, rounds, dp)


@pytest.fixture
def projections(monkeypatch):
    """The basis size at each second MGS pass ``gram_schmidt`` runs."""
    sizes = []
    real = numerics._second_pass

    def counted(residual, basis):
        sizes.append(len(basis))
        return real(residual, basis)

    monkeypatch.setattr(numerics, "_second_pass", counted)
    return sizes


class TestScreenedGramSchmidtMatchesUnscreened:
    """The screen only drops rows the exact keep test would drop, so the
    basis is the unscreened MGS basis bit for bit."""

    @pytest.mark.parametrize(
        "seed, n_devices, n_opt_out, pretrain_rounds",
        [(0, 32, 4, 100), (1, 32, 4, 100), (2, 16, 2, 100), (3, 16, 2, 100),
         (4, 12, 3, 2000)],
    )
    def test_every_unlearning_call(self, monkeypatch, seed, n_devices, n_opt_out,
                                   pretrain_rounds):
        calls = []

        def checked(vectors):
            calls.append(len(vectors))
            return same_basis(vectors)

        monkeypatch.setattr(unlearn, "gram_schmidt", checked)
        unlearning_run(seed, n_devices, n_opt_out, pretrain_rounds)
        assert calls == [n_devices - n_opt_out] * (25 * n_opt_out)

    def test_more_vectors_than_dim(self):
        rng = np.random.default_rng(8)
        basis = same_basis([rng.standard_normal(30) for _ in range(40)])
        assert len(basis) == 30

    def test_zero_vectors_mixed_in(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        zero = np.zeros(6)
        basis = same_basis([zero, a, zero, 3.0 * a, b, zero, a - 2.0 * b, zero])
        assert len(basis) == 2

    @pytest.mark.parametrize("ratio", [0.3, 0.6, 0.9, 1.1, 2.0])
    def test_residual_ratio_around_both_lines(self, projections, ratio):
        # three independent rows, then one whose residual off their span is
        # ratio * tol of its norm: below half the line the screen drops it,
        # between half and the line the exact test does, above it is kept
        q, _ = np.linalg.qr(np.random.default_rng(10).standard_normal((8, 8)))
        rows = [q[:, 0] + q[:, 1], q[:, 1] - 2.0 * q[:, 2], q[:, 0] + 3.0 * q[:, 2]]
        in_span = 0.7 * rows[0] - 1.3 * rows[1] + 0.4 * rows[2]
        rows.append(in_span + ratio * DROP_TOL * np.linalg.norm(in_span) * q[:, 5])
        basis = same_basis(rows)
        assert len(basis) == 3 + (ratio >= 1.0)
        assert projections == [0, 1, 2] + [3] * (ratio >= SCREEN_FRACTION)


def scaled_family(seed, lo, hi, count):
    """``count`` seeded rank-deficient inputs of 2-16 rows of 2-16 entries,
    each row nudged off the span by 0.2-2x the drop line with even odds, and
    each input scaled by 10**e for e uniform in [lo, hi].  Inputs where a
    row's ``v.dot(v)`` overflows are skipped."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, dim = (int(x) for x in rng.integers(2, 17, size=2))
        rank = int(rng.integers(1, min(n, dim) + 1))
        vectors = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, dim))
        nudge = rng.standard_normal((n, dim))
        nudge *= (rng.uniform(0.2, 2.0, n) * DROP_TOL * np.linalg.norm(vectors, axis=1)
                  / np.linalg.norm(nudge, axis=1))[:, None]
        vectors += nudge * (rng.random(n) < 0.5)[:, None]
        vectors *= 10.0 ** rng.uniform(lo, hi)
        with np.errstate(over="ignore"):
            if all(np.isfinite(v.dot(v)) for v in vectors):
                yield vectors


@pytest.mark.parametrize(
    "seed, lo, hi, count",
    [(0, -5, 5, 500), (0, 100, 150, 500), (4, -175, -140, 3000), (6, -300, 300, 1000),
     (7, -320, -300, 500)],
    ids=["desk", "huge", "subnormal-squares", "full-range", "subnormal-entries"],
)
def test_scaled_families_match_unscreened(seed, lo, hi, count):
    # unscaled, the squared norms near 1e-161 are subnormal, a kept row's
    # norm is off by up to tens of percent, and a screen that trusts the
    # basis to be orthonormal can drop a row the exact test keeps; seeds 4
    # and 6 draw such inputs (4 and 2 of them), and at 1e-320..1e-300 every
    # entry is subnormal
    for vectors in scaled_family(seed, lo, hi, count):
        same_basis(vectors)


def test_subnormal_squares_give_a_unit_row():
    # 3e-162**2 and 4e-162**2 are subnormal, and normalized from those
    # squares the row had a norm of 1.006; the scaled row's squares are not
    basis = gram_schmidt(np.array([[3e-162, 4e-162, 0.0]]))
    assert basis.shape == (1, 3)
    assert np.max(np.abs(basis - [0.6, 0.8, 0.0])) <= 2.0**-52


@pytest.mark.parametrize("seed, lo, hi, count", [(4, -175, -140, 3000), (7, -320, -300, 500)],
                         ids=["subnormal-squares", "subnormal-entries"])
def test_every_kept_row_is_a_unit_vector(seed, lo, hi, count):
    # the first nonzero row is always kept, however small its squared norm
    for vectors in scaled_family(seed, lo, hi, count):
        basis = gram_schmidt(vectors)
        assert len(basis) >= vectors.any()
        for row in basis:
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-15


def test_stacked_matmul_is_per_row_dot():
    # gram_schmidt's batched first pass rests on this: each (1, d) @ (d, 1)
    # slice of a stacked matmul is the BLAS dot that ``ndarray.dot`` runs
    rng = np.random.default_rng(12)
    for dim in range(1, 65):
        block = rng.standard_normal((41, dim))
        u = rng.standard_normal((3, dim))[1]
        for start in (1, 3, 17, 40):
            rows = block[start:]
            got = (rows[:, None, :] @ u[:, None])[:, 0]
            want = np.array([[r.dot(u)] for r in rows])
            assert got.tobytes() == want.tobytes(), (dim, start)


def test_screen_leaves_exact_projection_to_kept_rows(monkeypatch, projections):
    # a 28-row call of the benchmark's 32-device, 4-opt-out unlearning runs:
    # the retained gradients span 16 dimensions, and the 12 dependent rows
    # are dropped by the screen without the exact projection
    calls = []

    def capture(vectors):
        calls.append(vectors.copy())
        return gram_schmidt(vectors)

    monkeypatch.setattr(unlearn, "gram_schmidt", capture)
    unlearning_run(0, 32, 4, 100, rounds=1)
    projections.clear()
    basis = gram_schmidt(calls[0])
    assert (len(calls[0]), len(basis)) == (28, 16)
    assert projections == list(range(16))


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
