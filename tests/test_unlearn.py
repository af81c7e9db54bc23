"""Gradient projection, bounded loss, DP noise, and the unlearning loop."""

import dataclasses
import math
import random

import numpy as np
import pytest

from edgelam_sim.errors import ShapeError
from edgelam_sim.unlearn import (
    DpConfig,
    UnlearnState,
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

from oracles import (
    bce_grad_one_dataset,
    bounded_ce_plabel_grad,
    bounded_cross_entropy,
    pretrain_per_device,
    retained_loss_concatenated,
    softmax,
    unlearning_round_per_device,
)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRetainedSubspace:
    def test_single_gradient_normalized(self):
        g = np.array([3.0, 4.0])
        sub = retained_subspace(np.array([g]))
        assert sub.n_basis == 1
        assert np.allclose(sub.basis[0], [0.6, 0.8])

    def test_parallel_gradients_one_dim(self):
        g = np.array([1.0, 2.0, -1.0])
        sub = retained_subspace(np.array([g, 2.5 * g]))
        assert sub.n_basis == 1

    def test_projector_matches_least_squares_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 8))
        sub = retained_subspace(a)
        oracle = a.T @ np.linalg.pinv(a @ a.T) @ a
        ours = sub.basis.T @ sub.basis
        assert np.max(np.abs(ours - oracle)) <= 1e-9

    def test_empty(self):
        sub = retained_subspace(np.zeros((0, 5)))
        assert (sub.n_basis, sub.dim) == (0, 5)


class TestOrthogonalProject:
    def test_vector_in_span_vanishes(self):
        rng = np.random.default_rng(1)
        grads = rng.standard_normal((2, 6))
        sub = retained_subspace(grads)
        g = 1.3 * grads[0] - 0.4 * grads[1]
        assert np.max(np.abs(orthogonal_project(g, sub))) <= 1e-10

    def test_orthogonal_vector_unchanged(self):
        sub = retained_subspace(np.array([[1.0, 0.0, 0.0]]))
        g = np.array([0.0, 2.0, -1.0])
        assert np.max(np.abs(orthogonal_project(g, sub) - g)) <= 1e-12

    def test_matches_explicit_projector_oracle(self):
        rng = np.random.default_rng(2)
        sub = retained_subspace(rng.standard_normal((2, 6)))
        u = sub.basis
        g = rng.standard_normal(6)
        oracle = (np.eye(6) - u.T @ u) @ g
        assert np.max(np.abs(orthogonal_project(g, sub) - oracle)) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        sub = retained_subspace(rng.standard_normal((3, 7)))
        g = rng.standard_normal(7)
        once = orthogonal_project(g, sub)
        twice = orthogonal_project(once, sub)
        assert np.max(np.abs(twice - once)) <= 1e-10

    def test_pythagoras(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            sub = retained_subspace(rng.standard_normal((3, 9)))
            g = rng.standard_normal(9)
            residual = orthogonal_project(g, sub)
            in_span = g - residual
            lhs = np.dot(g, g)
            rhs = np.dot(in_span, in_span) + np.dot(residual, residual)
            assert abs(lhs - rhs) / lhs <= 1e-9

    def test_empty_subspace_identity(self):
        g = np.array([1.0, -2.0, -0.0, 3e-300])
        out = orthogonal_project(g, retained_subspace(np.zeros((0, 4))))
        assert same_bits(out, g) and out is not g

    def test_dim_mismatch(self):
        sub = retained_subspace(np.ones((1, 3)))
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
        return state

    def test_all_opt_out_equals_plain_ascent(self):
        # no retained devices: projection is the identity
        ids = ["a", "b"]
        state = make_classification_task(3, ids, {"a", "b"}, 2, 4, 20)
        pretrain(state, 0.5, 50, 0.05)
        w0 = state.global_weights.copy()
        grads = {
            dev: bce_dataset_grad(w0, *state.datasets[dev], 0.05) for dev in ids
        }
        unlearning_round(state, lr=0.2, delta=0.05)
        for dev in ids:
            expected = w0 + 0.2 * grads[dev]
            assert np.max(np.abs(state.unlearned[dev] - expected)) <= 1e-12

    def test_parallel_gradients_give_zero_update(self):
        # identical retained and forget datasets: forget gradient sits in
        # the retained span, so the projected update must vanish
        task = make_classification_task(9, ["r", "o"], {"o"}, 2, 4, 30)
        x, labels = task.datasets["r"]
        state = UnlearnState(np.zeros((2, 4)), {"r": (x, labels), "f": (x, labels)}, {"f"})
        pretrain(state, 0.5, 100, 0.05)
        w0 = state.global_weights.copy()
        before = retained_loss(state, 0.05)
        record = unlearning_round(state, lr=0.5, delta=0.05)
        assert record.projection_residual_norm <= 1e-10
        assert np.max(np.abs(state.unlearned["f"] - w0)) <= 1e-10
        assert abs(retained_loss(state, 0.05) - before) <= 1e-9

    def test_orthogonality_every_round(self):
        state = self.make_state()
        records = run_unlearning(state, 0.5, 0.05, 30)
        assert max(r.basis_alignment for r in records) <= 1e-10

    def test_forget_rises_retained_stays(self):
        state = self.make_state()
        pre_f = forget_loss(state, 0.05)
        pre_r = retained_loss(state, 0.05)
        records = run_unlearning(state, 0.5, 0.05, 100)
        assert records[-1].forget_loss >= 2.0 * pre_f
        assert abs(records[-1].retained_loss - pre_r) / pre_r <= 0.05

    def test_dp_noise_keeps_determinism(self):
        state_a = self.make_state()
        state_b = self.make_state()
        dp = DpConfig(clip_norm=1.0, sigma=0.3, seed=77)
        rec_a = run_unlearning(state_a, 0.3, 0.05, 10, dp=dp)
        rec_b = run_unlearning(state_b, 0.3, 0.05, 10, dp=dp)
        assert [r.forget_loss for r in rec_a] == [r.forget_loss for r in rec_b]
        assert np.array_equal(state_a.unlearned["d3"], state_b.unlearned["d3"])

    def test_bad_opt_out_rejected_at_construction(self):
        data = {dev: (np.zeros((4, 3)), np.zeros(4, int)) for dev in ("d0", "d3")}
        for opt_out, message in [
            (set(), "opt-out set must be nonempty"),
            ({"d3", "zz", "aa"}, r"opt-out ids not participating: \['aa', 'zz'\]"),
        ]:
            with pytest.raises(ValueError, match=message):
                UnlearnState(np.zeros((2, 3)), data, opt_out)
            with pytest.raises(ValueError, match=message):
                make_classification_task(7, ["d0", "d3"], opt_out, 2, 6, 40)

    def test_opt_out_sorted_and_retained_stacks_copied(self):
        state = make_classification_task(5, ["d2", "d0", "d3", "d1"], ["d3", "d1", "d3"], 2, 6, 8)
        assert state.opt_out == ("d1", "d3")
        assert same_bits(state.retained_x, np.stack([state.datasets[d][0] for d in ("d0", "d2")]))
        assert same_bits(state.retained_labels,
                         np.stack([state.datasets[d][1] for d in ("d0", "d2")]))
        assert not np.shares_memory(state.retained_x, state.x)


class TestStackedGradient:
    @pytest.mark.parametrize("seed", range(20))
    def test_each_slice_equals_the_2d_call(self, seed):
        rng = np.random.default_rng(seed)
        d, c = int(rng.integers(1, 8)), int(rng.integers(2, 13))
        f, m = int(rng.integers(3, 15)), int(rng.integers(1, 46))
        x = 3.0 * rng.standard_normal((d, m, f))
        labels = rng.integers(0, c, size=(d, m))
        # one weight matrix for every dataset, then one per dataset
        for w in (rng.standard_normal((c, f)), rng.standard_normal((d, c, f))):
            stacked = bce_dataset_grad(w, x, labels, 0.05)
            assert stacked.shape == (d, c, f)
            for i in range(d):
                w_i = w if w.ndim == 2 else w[i]
                alone = bce_dataset_grad(w_i, x[i], labels[i], 0.05)
                assert same_bits(stacked[i], alone)
                oracle = bce_grad_one_dataset(w_i, x[i].copy(), labels[i].copy(), 0.05)
                assert same_bits(stacked[i], oracle)

    def test_unequal_datasets_rejected(self):
        w = np.zeros((2, 3))
        with pytest.raises(ValueError):
            UnlearnState(w, {"a": (np.zeros((4, 3)), np.zeros(4, int)),
                             "b": (np.zeros((5, 3)), np.zeros(5, int))}, {"a"})


def oracle_configs():
    """Seeded unlearning runs, the edge cases first."""
    base = dict(seed=11, n_devices=4, n_opt_out=1, classes=3, feature_dim=5, samples=20,
                pretrain_rounds=5, rounds=3, lr=0.5, delta=0.05, dp=None)
    configs = [
        dict(base, n_devices=3, n_opt_out=3),  # no retained device
        dict(base, n_devices=5, n_opt_out=4, dp=(1.0, 0.2)),  # exactly one retained device
        dict(base, pretrain_rounds=0),
        dict(base, n_devices=1, n_opt_out=1, pretrain_rounds=0, dp=(0.5, 0.0)),
    ]
    rng = random.Random(20)
    for _ in range(56):
        n = rng.randint(1, 12)
        configs.append(dict(
            seed=rng.randrange(2**31), n_devices=n, n_opt_out=rng.randint(1, n),
            classes=rng.randint(2, 11), feature_dim=rng.randint(3, 14),
            samples=rng.randint(1, 45), pretrain_rounds=rng.randint(0, 8),
            rounds=rng.randint(1, 4), lr=rng.choice([0.1, 0.5, 2.0]),
            delta=rng.choice([0.01, 0.05, 0.5]),
            dp=(rng.uniform(0.1, 2.0), rng.choice([0.0, 0.3])) if rng.random() < 0.5 else None,
        ))
    return configs


class TestBatchedMatchesPerDevice:
    """The stacked gradient path against the per-device loops, bit for bit."""

    @pytest.mark.parametrize(
        "cfg", oracle_configs(), ids=lambda c: f"seed{c['seed']}-n{c['n_devices']}"
    )
    def test_weights_models_and_records(self, cfg):
        rng = random.Random(cfg["seed"])
        ids = [f"d{i}" for i in range(cfg["n_devices"])]
        rng.shuffle(ids)  # stacks follow id order, not the order given
        opt_out = set(rng.sample(ids, cfg["n_opt_out"]))

        def build():
            return make_classification_task(
                cfg["seed"], ids, opt_out, cfg["classes"], cfg["feature_dim"], cfg["samples"]
            )

        ours, ref = build(), build()
        lr, delta = cfg["lr"], cfg["delta"]
        pretrain(ours, lr, cfg["pretrain_rounds"], delta)
        pretrain_per_device(ref, lr, cfg["pretrain_rounds"], delta)
        assert same_bits(ours.global_weights, ref.global_weights)

        assert same_bits(retained_loss(ours, delta), retained_loss_concatenated(ref, delta))
        dp = None if cfg["dp"] is None else DpConfig(*cfg["dp"], seed=cfg["seed"])
        for _ in range(cfg["rounds"]):
            got = unlearning_round(ours, lr, delta, dp)
            want = unlearning_round_per_device(ref, lr, delta, dp)
            assert got.round_index == want.round_index
            assert same_bits(dataclasses.astuple(got), dataclasses.astuple(want))
        assert sorted(ours.unlearned) == sorted(ref.unlearned) == sorted(opt_out)
        for dev in opt_out:
            assert same_bits(ours.unlearned[dev], ref.unlearned[dev])
