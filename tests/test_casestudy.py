"""Token-budget cost model and its calibration."""

import math

import pytest

from edgelam_sim.casestudy import (
    TokenBudgetModel,
    calibrate_casestudy,
    casestudy_sweep,
    device_count,
    evaluate_budget,
)
from edgelam_sim.errors import SizeLimitError


def model(n=512, t=128, gamma=0.0, base=0.0):
    return TokenBudgetModel(n, t, 2.0, 2.0, gamma, base, 1e6)


class TestSweepFormulas:
    def test_degenerate_split_equals_monolithic(self):
        m = model(n=256, t=256)
        row = evaluate_budget(m, 256)
        assert row.device_count == 1
        assert row.total_memory == row.monolithic_memory
        assert row.total_latency == row.monolithic_latency
        assert row.mem_reduction == 0.0
        assert row.lat_reduction == 0.0

    def test_halving_budget_halves_memory(self):
        # with base_mem == 0 the split memory is alpha*N*T (the N*T law)
        m = model(n=512)
        full = evaluate_budget(m, 128).total_memory
        half = evaluate_budget(m, 64).total_memory
        assert half == pytest.approx(full / 2, rel=1e-12)

    def test_memory_monotone_in_budget_and_below_monolithic(self):
        m = model(n=1024)
        budgets = [128, 256, 512]
        rows = casestudy_sweep(m, budgets)
        mems = [r.total_memory for r in rows]
        assert mems[0] < mems[1] < mems[2]
        for r in rows:
            assert r.total_memory <= r.monolithic_memory

    def test_reduction_self_consistency(self):
        m = model(n=640, gamma=0.02, base=3e3)
        for row in casestudy_sweep(m, [64, 128, 256]):
            expected_mem = 1.0 - row.total_memory / row.monolithic_memory
            expected_lat = 1.0 - row.total_latency / row.monolithic_latency
            assert abs(row.mem_reduction - expected_mem) <= 1e-12
            assert abs(row.lat_reduction - expected_lat) <= 1e-12

    def test_handoff_counting(self):
        m = model(n=512, gamma=0.5)
        row = evaluate_budget(m, 128)  # 4 devices -> 3 handoffs
        no_handoff = evaluate_budget(model(n=512), 128)
        assert row.total_latency == pytest.approx(
            no_handoff.total_latency + 3 * 0.5, rel=1e-12
        )

    def test_device_limit(self):
        with pytest.raises(SizeLimitError):
            evaluate_budget(model(n=2048), 64)  # 32 devices
        with pytest.raises(SizeLimitError):
            TokenBudgetModel(2048, 64, 2.0, 2.0, 0.0, 0.0, 1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBudgetModel(100, 128, 2.0, 2.0, 0.0, 0.0, 1e6)  # T > N
        with pytest.raises(ValueError):
            model(n=0)
        assert device_count(608, 128) == 5

    def test_values_beyond_float_range_raise(self):
        huge_alpha = TokenBudgetModel(640, 128, 1e305, 2.0, 0.0, 0.0, 1e6)
        with pytest.raises(ValueError, match="float range"):
            evaluate_budget(huge_alpha, 128)  # memory overflows to inf
        with pytest.raises(ValueError, match="float range"):
            evaluate_budget(model(n=10**400, t=10**400), 10**400)  # no float value
        assert device_count(10**400, 10**399) == 10


class TestCalibration:
    def test_hits_reported_reductions(self):
        res = calibrate_casestudy((0.708, 0.596))
        assert res.success
        assert res.residual_mem <= 0.02
        assert res.residual_lat <= 0.02
        rows = casestudy_sweep(res.model, [64, 128, 256])
        by_budget = {r.t_budget: r for r in rows}
        star = by_budget[128]
        assert abs(star.mem_reduction - 0.708) <= 0.10
        assert abs(star.lat_reduction - 0.596) <= 0.10
        assert star.combined_normalized_cost < by_budget[64].combined_normalized_cost
        assert star.combined_normalized_cost < by_budget[256].combined_normalized_cost
        assert max(r.device_count for r in rows) <= 10

    def test_fixed_point_round_trip(self):
        first = calibrate_casestudy((0.708, 0.596))
        targets = (first.achieved_mem_reduction, first.achieved_lat_reduction)
        again = calibrate_casestudy(targets)
        assert again.residual_mem <= 1e-12
        assert again.residual_lat <= 1e-12

    def test_target_perturbation_moves_n_little(self):
        base = calibrate_casestudy((0.708, 0.596))
        shifted = calibrate_casestudy((0.718, 0.606))
        assert abs(shifted.model.n_total - base.model.n_total) <= 2 * 16

    def test_unreachable_targets_fail_without_crash(self):
        res = calibrate_casestudy((0.999, 0.001))
        assert not res.success
        assert "residual" in res.message

    def test_target_validation(self):
        with pytest.raises(ValueError):
            calibrate_casestudy((1.2, 0.5))
