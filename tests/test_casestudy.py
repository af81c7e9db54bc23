"""Token-budget cost model and its calibration."""

import csv
import json
import math
import random

import pytest

from edgelam_sim.casestudy import (
    BUDGETS,
    T_STAR,
    TokenBudgetModel,
    calibrate_casestudy,
    casestudy_sweep,
    device_count,
    evaluate_budget,
)
from edgelam_sim.errors import SizeLimitError
from edgelam_sim.scenarios import run_scenario


# calibrated (n_total, gamma_handoff.hex(), base_mem.hex(), success) by target:
# the shipped one, the ones the tests above use, and eight seeded in
# (0.3, 0.9)^2; each holds with numpy's AVX-512 ``power`` on and off
PINNED_MODELS = {
    (0.708, 0.596): (640, "0x1.52a49dcbdf5cep-5", "0x1.e2891652b64bcp+13", True),
    (0.718, 0.606): (640, "0x1.3f957b6de40b1p-5", "0x1.ba60bdbc9ea97p+13", True),
    (0.999, 0.001): (640, "0x1.53fb5ad075ecfp-3", "0x0.0p+0", False),
    (0.5778044146890129, 0.5239871588370253):
        (464, "0x1.921f0b9822a1fp-6", "0x1.ba60bdbc9ea97p+13", True),
    (0.3831236475086731, 0.8199371099918049): (640, "0x0.0p+0", "0x1.3a5ae3288d0d2p+16", True),
    (0.30386103244867396, 0.601669248031325):
        (528, "0x1.dd7f9913b5a5dp-7", "0x1.972a69e583aadp+15", True),
    (0.838978782019163, 0.3484887883098006): (640, "0x1.7cfd66e32c574p-4", "0x0.0p+0", False),
    (0.6325622809069718, 0.6699900256101712):
        (624, "0x1.7b7d52b4dce05p-6", "0x1.965cfa4f01023p+14", True),
    (0.3245374592908869, 0.5274117626372614):
        (512, "0x1.3f957b6de40b1p-5", "0x1.0835ad250cff6p+16", True),
    (0.7220882353762483, 0.5712125522700155):
        (592, "0x1.1c9f9076dfd18p-5", "0x1.94c351e31d8b2p+12", True),
    (0.7350392211493255, 0.3942942969579755):
        (512, "0x1.fbf9baee5ea40p-5", "0x1.059dc31aac025p+11", True),
}


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

    @pytest.mark.parametrize("targets", list(PINNED_MODELS), ids=str)
    def test_calibrated_model_is_pinned(self, targets):
        res = calibrate_casestudy(targets)
        m = res.model
        got = (m.n_total, m.gamma_handoff.hex(), m.base_mem.hex(), res.success)
        assert got == PINNED_MODELS[targets]

    def test_achieved_is_the_sweep_row_at_t_star(self):
        # the grid is scored with the sweep's own formulas, so what the
        # calibration reports is the row the CSV writes, bit for bit
        rng = random.Random(7)
        for _ in range(50):
            targets = (rng.uniform(0.3, 0.9), rng.uniform(0.3, 0.9))
            res = calibrate_casestudy(targets)
            rows = {t: evaluate_budget(res.model, t) for t in BUDGETS}
            star = rows[T_STAR]
            assert (res.achieved_mem_reduction, res.achieved_lat_reduction) == (
                star.mem_reduction, star.lat_reduction), targets
            assert res.residual_mem == abs(res.achieved_mem_reduction - targets[0])
            assert res.residual_lat == abs(res.achieved_lat_reduction - targets[1])
            for t, row in rows.items():
                if t != T_STAR:
                    assert star.combined_normalized_cost < row.combined_normalized_cost

    def test_summary_achieved_equals_the_csv_row(self, tmp_path):
        # a target whose latency reduction the grid once rounded differently
        targets = [0.70824, 0.556555]
        config = tmp_path / "casestudy.json"
        config.write_text(json.dumps({"kind": "casestudy", "seed": 0, "casestudy": {
            "budgets": list(BUDGETS), "calibrate": True, "targets": targets}}))
        out = tmp_path / "out"
        assert run_scenario(str(config), str(out)) == 0
        cal = json.loads((out / "casestudy_summary.json").read_text())["calibration"]
        with open(out / "casestudy_sweep.csv", newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["max_tokens"] == str(T_STAR))
        assert cal["achieved"] == {
            "mem_reduction": float(row["mem_reduction"]),
            "lat_reduction": float(row["lat_reduction"]),
        }
        assert cal["residuals"] == {
            "mem": abs(cal["achieved"]["mem_reduction"] - targets[0]),
            "lat": abs(cal["achieved"]["lat_reduction"] - targets[1]),
        }
