"""Gradient projection, bounded loss, DP noise, and the unlearning loop."""

import math

import numpy as np
import pytest

from edgelam_sim.errors import ShapeError
from edgelam_sim.unlearn import (
    DpConfig,
    UnlearnRequest,
    add_dp_noise,
    bce_dataset_grad,
    bce_dataset_loss,
    forget_loss,
    make_classification_task,
    orthogonal_project,
    pretrain,
    retained_loss,
    retained_subspace,
    run_unlearning,
    unlearning_round,
)

from oracles import bounded_ce_plabel_grad, bounded_cross_entropy, softmax


class TestRetainedSubspace:
    def test_single_gradient_normalized(self):
        g = np.array([3.0, 4.0])
        sub = retained_subspace([g])
        assert sub.n_basis == 1
        assert np.allclose(sub.basis[0], [0.6, 0.8])

    def test_parallel_gradients_one_dim(self):
        g = np.array([1.0, 2.0, -1.0])
        sub = retained_subspace([g, 2.5 * g])
        assert sub.n_basis == 1

    def test_projector_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(8) for _ in range(3)]
        sub = retained_subspace(grads)
        a = np.vstack(grads)
        oracle = a.T @ np.linalg.pinv(a @ a.T) @ a
        ours = sub.basis.T @ sub.basis
        assert np.max(np.abs(ours - oracle)) <= 1e-9

    def test_empty(self):
        assert retained_subspace([]).n_basis == 0


class TestOrthogonalProject:
    def test_vector_in_span_vanishes(self):
        rng = np.random.default_rng(1)
        grads = [rng.standard_normal(6) for _ in range(2)]
        sub = retained_subspace(grads)
        g = 1.3 * grads[0] - 0.4 * grads[1]
        assert np.max(np.abs(orthogonal_project(g, sub))) <= 1e-10

    def test_orthogonal_vector_unchanged(self):
        sub = retained_subspace([np.array([1.0, 0.0, 0.0])])
        g = np.array([0.0, 2.0, -1.0])
        assert np.max(np.abs(orthogonal_project(g, sub) - g)) <= 1e-12

    def test_matches_explicit_projector_oracle(self):
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal(6) for _ in range(2)]
        sub = retained_subspace(grads)
        u = sub.basis
        g = rng.standard_normal(6)
        oracle = (np.eye(6) - u.T @ u) @ g
        assert np.max(np.abs(orthogonal_project(g, sub) - oracle)) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        sub = retained_subspace([rng.standard_normal(7) for _ in range(3)])
        g = rng.standard_normal(7)
        once = orthogonal_project(g, sub)
        twice = orthogonal_project(once, sub)
        assert np.max(np.abs(twice - once)) <= 1e-10

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sub = retained_subspace([rng.standard_normal(9) for _ in range(3)])
            g = rng.standard_normal(9)
            residual = orthogonal_project(g, sub)
            in_span = g - residual
            lhs = np.dot(g, g)
            rhs = np.dot(in_span, in_span) + np.dot(residual, residual)
            assert abs(lhs - rhs) / lhs <= 1e-9

    def test_empty_subspace_identity(self):
        g = np.array([1.0, -2.0])
        out = orthogonal_project(g, retained_subspace([]))
        assert np.array_equal(out, g)

    def test_dim_mismatch(self):
        sub = retained_subspace([np.ones(3)])
        with pytest.raises(ShapeError):
            orthogonal_project(np.ones(4), sub)


class TestBoundedCrossEntropy:
    def test_certain_correct_is_zero(self):
        assert bounded_cross_entropy([1.0, 0.0], 0, 0.01) == 0.0

    def test_worst_case_is_the_bound(self):
        loss = bounded_cross_entropy([0.0, 1.0], 0, 0.01)
        assert loss == pytest.approx(math.log(101.0), abs=1e-12)

    def test_derivative_matches_finite_difference(self):
        delta, h = 0.01, 1e-7
        p = 0.5
        fd = (
            bounded_cross_entropy([p + h, 1 - p - h], 0, delta)
            - bounded_cross_entropy([p - h, 1 - p + h], 0, delta)
        ) / (2 * h)
        analytic = bounded_ce_plabel_grad(p, delta)
        assert abs(fd - analytic) / abs(analytic) <= 1e-6

    def test_never_exceeds_bound_over_sweep(self):
        delta = 0.03
        bound = math.log((1 + delta) / delta)
        for p in np.linspace(0.0, 1.0, 10**4):
            loss = bounded_cross_entropy([p, 1.0 - p], 0, delta)
            assert 0.0 <= loss <= bound + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            bounded_cross_entropy([0.5, 0.5], 0, 0.0)
        with pytest.raises(ValueError):
            bounded_cross_entropy([0.5, 0.5], 2, 0.1)


class TestDpNoise:
    def test_sigma_zero_within_clip_unchanged(self):
        g = np.array([0.3, 0.4])
        out = add_dp_noise(g, 1.0, 0.0, 99)
        assert np.array_equal(out, g)

    def test_sigma_zero_clipping(self):
        g = np.array([3.0, 4.0])  # norm 5, clip at 2.5
        out = add_dp_noise(g, 2.5, 0.0, 99)
        assert np.allclose(out, g / 2)

    def test_noise_std_statistical(self):
        g = np.zeros(1000)
        out = add_dp_noise(g, 1.0, 1.0, 1234)
        assert 0.9 <= out.std() <= 1.1

    def test_bitwise_deterministic(self):
        g = np.linspace(-1, 1, 50)
        a = add_dp_noise(g, 1.0, 0.7, 5)
        b = add_dp_noise(g, 1.0, 0.7, 5)
        assert np.array_equal(a, b)
        c = add_dp_noise(g, 1.0, 0.7, 6)
        assert not np.array_equal(a, c)


class TestClassifierGradients:
    def test_bce_grad_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        delta, h = 0.05, 1e-6
        for _ in range(10):
            w = rng.standard_normal((3, 4))
            x = rng.standard_normal((6, 4))
            labels = rng.integers(0, 3, size=6)
            grad = bce_dataset_grad(w, x, labels, delta)
            for idx in np.ndindex(3, 4):
                up = w.copy()
                down = w.copy()
                up[idx] += h
                down[idx] -= h
                fd = (
                    bce_dataset_loss(up, x, labels, delta)
                    - bce_dataset_loss(down, x, labels, delta)
                ) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_bce_loss_matches_scalar_op(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 3))
        x = rng.standard_normal((4, 3))
        labels = rng.integers(0, 2, size=4)
        expected = np.mean(
            [
                bounded_cross_entropy(softmax(w @ xi), int(yi), 0.1)
                for xi, yi in zip(x, labels)
            ]
        )
        assert bce_dataset_loss(w, x, labels, 0.1) == pytest.approx(expected, abs=1e-12)


class TestUnlearningRound:
    def make_state(self, seed=7):
        ids = ["d0", "d1", "d2", "d3"]
        state = make_classification_task(seed, ids, {"d3"}, 2, 6, 40)
        pretrain(state, 0.5, 300, 0.05)
        return state, UnlearnRequest(frozenset({"d3"}))

    def test_all_opt_out_equals_plain_ascent(self):
        # no retained devices: projection is the identity
        ids = ["a", "b"]
        state = make_classification_task(3, ids, {"a", "b"}, 2, 4, 20)
        pretrain(state, 0.5, 50, 0.05)
        w0 = state.global_weights.copy()
        grads = {
            dev: bce_dataset_grad(w0, *state.datasets[dev], 0.05) for dev in ids
        }
        request = UnlearnRequest(frozenset(ids))
        unlearning_round(state, request, lr=0.2, delta=0.05)
        for dev in ids:
            expected = w0 + 0.2 * grads[dev]
            assert np.max(np.abs(state.unlearned[dev] - expected)) <= 1e-12

    def test_parallel_gradients_give_zero_update(self):
        # identical retained and forget datasets: forget gradient sits in
        # the retained span, so the projected update must vanish
        ids = ["r", "f"]
        state = make_classification_task(9, ids, set(), 2, 4, 30)
        state.datasets["f"] = (
            state.datasets["r"][0].copy(),
            state.datasets["r"][1].copy(),
        )
        pretrain(state, 0.5, 100, 0.05)
        w0 = state.global_weights.copy()
        request = UnlearnRequest(frozenset({"f"}))
        before = retained_loss(state, request, 0.05)
        record = unlearning_round(state, request, lr=0.5, delta=0.05)
        assert record.projection_residual_norm <= 1e-10
        assert np.max(np.abs(state.unlearned["f"] - w0)) <= 1e-10
        assert abs(retained_loss(state, request, 0.05) - before) <= 1e-9

    def test_orthogonality_every_round(self):
        state, request = self.make_state()
        records = run_unlearning(state, request, 0.5, 0.05, 30)
        assert max(r.basis_alignment for r in records) <= 1e-10

    def test_forget_rises_retained_stays(self):
        state, request = self.make_state()
        pre_f = forget_loss(state, request, 0.05)
        pre_r = retained_loss(state, request, 0.05)
        records = run_unlearning(state, request, 0.5, 0.05, 100)
        assert records[-1].forget_loss >= 2.0 * pre_f
        assert abs(records[-1].retained_loss - pre_r) / pre_r <= 0.05

    def test_dp_noise_keeps_determinism(self):
        state_a, request = self.make_state()
        state_b, _ = self.make_state()
        dp = DpConfig(clip_norm=1.0, sigma=0.3, seed=77)
        rec_a = run_unlearning(state_a, request, 0.3, 0.05, 10, dp=dp)
        rec_b = run_unlearning(state_b, request, 0.3, 0.05, 10, dp=dp)
        assert [r.forget_loss for r in rec_a] == [r.forget_loss for r in rec_b]
        assert np.array_equal(state_a.unlearned["d3"], state_b.unlearned["d3"])

    def test_unknown_opt_out_rejected(self):
        state, _ = self.make_state()
        with pytest.raises(ValueError):
            unlearning_round(state, UnlearnRequest(frozenset({"zz"})), 0.1, 0.05)

    def test_forget_batches_narrow_the_ascent(self):
        state, _ = self.make_state()
        x, y = state.datasets["d3"]
        narrow = UnlearnRequest(frozenset({"d3"}), {"d3": (x[:5], y[:5])})
        full = UnlearnRequest(frozenset({"d3"}))
        state_narrow, _ = self.make_state()
        unlearning_round(state_narrow, narrow, 0.5, 0.05)
        state_full, _ = self.make_state()
        unlearning_round(state_full, full, 0.5, 0.05)
        assert not np.array_equal(
            state_narrow.unlearned["d3"], state_full.unlearned["d3"]
        )

    def test_forget_batches_for_non_opt_out_rejected(self):
        with pytest.raises(ValueError):
            UnlearnRequest(frozenset({"a"}), {"b": (np.zeros((1, 2)), np.zeros(1, dtype=int))})
