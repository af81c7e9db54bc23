"""Channel and latency accounting."""

import math
import sys

import numpy as np
import pytest

from edgelam_sim.errors import DomainError
from edgelam_sim.netsim import (
    DeviceProfile,
    MinBandwidth,
    comm_latency,
    comp_latency,
    shannon_rate,
)
from edgelam_sim.moe_orchestrator import fading_sequence
from edgelam_sim.rng import stream
from oracles import min_bandwidth


class TestShannonRate:
    def test_zero_snr(self):
        assert shannon_rate(1e6, 0.0, 1.0, 1e-9) == 0.0
        assert shannon_rate(1e6, 1.0, 0.0, 1e-9) == 0.0

    def test_zero_bandwidth(self):
        assert shannon_rate(0.0, 1.0, 1.0, 1e-9) == 0.0

    def test_unit_snr(self):
        # gain*power/(N0*B) == 1 -> rate == B
        assert shannon_rate(1e6, 1.0, 1e-3, 1e-9) == pytest.approx(1e6, rel=1e-12)

    def test_snr_three(self):
        # log2(4) == 2 -> rate == 2B
        assert shannon_rate(2e6, 1.0, 6e-3, 1e-9) == pytest.approx(4e6, rel=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            shannon_rate(-1.0, 1.0, 1.0, 1e-9)
        with pytest.raises(DomainError):
            shannon_rate(1.0, 1.0, 1.0, 0.0)

    def test_strictly_increasing_in_bandwidth(self):
        grid = np.linspace(1e3, 5e6, 40)
        rates = [shannon_rate(b, 1.5, 0.5, 1e-9) for b in grid]
        assert all(r2 > r1 for r1, r2 in zip(rates, rates[1:]))

    def test_concavity_on_sampled_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            b1, b2 = rng.uniform(1e3, 1e7, size=2)
            mid = shannon_rate((b1 + b2) / 2, 2.0, 0.3, 1e-9)
            ends = shannon_rate(b1, 2.0, 0.3, 1e-9) + shannon_rate(b2, 2.0, 0.3, 1e-9)
            assert mid >= ends / 2 - 1e-6

    @pytest.mark.parametrize("gain", [4.0, np.float64(4.0)], ids=["float", "numpy"])
    def test_overflowing_snr_stays_finite(self, gain):
        # N0*B = 3e-310 is subnormal and g*p/(N0*B) overflows; the rate is
        # B*log2(g*p/(N0*B)) taken in logs, not inf (and no RuntimeWarning)
        b = 3e-301
        expected = b * (math.log2(2.0) - math.log2(1e-9) - math.log2(b))
        assert shannon_rate(b, gain, 0.5, 1e-9) == pytest.approx(expected, rel=1e-12)
        assert 0.0 < shannon_rate(b, gain, 0.5, 1e-9) < shannon_rate(1e-3, gain, 0.5, 1e-9)
        # a finite SNR keeps the plain formula, bit for bit
        assert shannon_rate(3e5, gain, 0.5, 1e-9) == 3e5 * math.log2(1.0 + 2.0 / (1e-9 * 3e5))

    @pytest.mark.parametrize("bandwidth", [1e100, 1e300])
    def test_wide_band_keeps_its_rate(self, bandwidth):
        # the SNR (5e-92 at 1e100 Hz) is below 2^-53, so 1 + snr rounds to 1;
        # log1p keeps the rate at its wide-band limit g*p/(N0 ln 2)
        limit = 1.0 * 0.5 / (1e-9 * math.log(2.0))
        assert shannon_rate(bandwidth, 1.0, 0.5, 1e-9) == pytest.approx(limit, rel=1e-12)


class TestMinBandwidth:
    def test_matches_bisection_over_shannon_rate_bit_for_bit(self):
        # the oracle calls shannon_rate at every step; the evaluator repeats
        # its arithmetic inline, so the two must agree exactly, on each of
        # shannon_rate's branches and at a zero midpoint
        rng = np.random.default_rng(31)
        seen = dict.fromkeys(
            ["log_branch", "plain", "zero_mid", "short", "int_gain", "below_unit_snr"], 0)
        for _ in range(400):
            gain = [float(rng.uniform(0.1, 3.0)), 2, np.float64(1.5), 1e200][rng.integers(4)]
            power = [float(rng.uniform(0.1, 1.0)), 1][rng.integers(2)]
            n0 = [1e-9, 1e-20, 1.0][rng.integers(3)]
            b_cap = [float(rng.uniform(1e5, 5e6)), 1e-300, 3e-310, 5e-324,
                     1e100][rng.integers(5)]
            link = MinBandwidth(b_cap, gain, power, n0)
            full = shannon_rate(b_cap, gain, power, n0)
            for required in (full * float(rng.uniform(0.01, 1.0)), full * 1.5, -1.0):
                if required == 0.0:
                    continue
                got = link.for_rate(required)
                want = min_bandwidth(required, gain, power, n0, 1.0, b_cap)
                assert type(got) is type(want)
                assert float(got).hex() == float(want).hex()
                seen["short"] += got == math.inf
            noise = n0 * b_cap
            snr = float(gain) * float(power) / noise if noise > 0.0 else math.inf
            seen["log_branch" if snr == math.inf else "plain"] += 1
            seen["below_unit_snr"] += snr < 1.0
            seen["zero_mid"] += 0.5 * b_cap == 0.0
            seen["int_gain"] += type(gain) is int
        assert min(seen.values()) >= 10, seen

    def test_never_shrinks_as_the_rate_grows(self):
        # the selection's search over tau rests on this: at the first of the
        # 52 steps where two rates turn differently the larger keeps the
        # upper half, so its result is never below the smaller's
        rng = np.random.default_rng(28)
        seen = dict.fromkeys(["log_branch", "plain", "subnormal_n0", "equal", "larger"], 0)
        for _ in range(60):
            gain = [float(rng.uniform(0.1, 3.0)), 1e200][rng.integers(2)]
            n0 = [1e-9, 1e-310, 5e-324][rng.integers(3)]
            b_cap = [float(rng.uniform(1e5, 5e6)), 1e-300][rng.integers(2)]
            link = MinBandwidth(b_cap, gain, 0.5, n0)
            full = shannon_rate(b_cap, gain, 0.5, n0)
            rates = [full * float(f) for f in rng.uniform(0.0, 1.05, size=40)]
            rates = sorted(rates + [math.nextafter(r, math.inf) for r in rates])
            needs = [link.for_rate(r) for r in rates]
            for b1, b2 in zip(needs, needs[1:]):
                assert b1 <= b2, (rates, needs)
                seen["equal" if b1 == b2 else "larger"] += 1
            for b in needs:
                if 0.0 < b < math.inf:
                    noise = n0 * b
                    snr = gain * 0.5 / noise if noise > 0.0 else math.inf
                    seen["log_branch" if snr == math.inf else "plain"] += 1
            seen["subnormal_n0"] += n0 < sys.float_info.min
        assert min(seen.values()) >= 10, seen

    def test_domain_error_waits_for_the_first_rate(self):
        # the full-band rate is taken at the first for_rate, where a direct
        # shannon_rate call would raise
        link = MinBandwidth(1e6, 1.0, 0.5, 0.0)
        with pytest.raises(DomainError):
            link.for_rate(1e5)


class TestLatencyEnergy:
    def test_comm_zero_bits(self):
        assert comm_latency(0.0, 1e6) == 0.0

    def test_comm_one_second(self):
        assert comm_latency(1e6, 1e6) == 1.0

    def test_comm_starved_link(self):
        assert comm_latency(1.0, 0.0) == math.inf

    def test_comp_cases(self):
        assert comp_latency(0.0, 1e9) == 0.0
        assert comp_latency(1e9, 1e9) == 1.0
        assert comp_latency(3e8, 1.5e8) == 2.0

    def test_latency_additivity(self):
        comp = comp_latency(3e9, 2e9)
        comm = comm_latency(4e6, 8e6)
        assert comp + comm == 1.5 + 0.5


class TestTypes:
    def test_device_validation(self):
        with pytest.raises(DomainError):
            DeviceProfile("x", 0.0, 1.0, 1.0, 1.0, 1)
        with pytest.raises(DomainError):
            DeviceProfile("x", 1.0, 1.0, -0.1, 1.0, 1)
        with pytest.raises(DomainError):
            DeviceProfile("x", 1.0, 1.0, 1.0, 1.0, 0)


class TestFading:
    def test_deterministic_per_seed(self):
        a = fading_sequence(9, "dev", 100, 0.2)
        b = fading_sequence(9, "dev", 100, 0.2)
        assert np.array_equal(a, b)

    def test_distinct_devices_differ(self):
        a = fading_sequence(9, "dev-a", 100, 0.2)
        b = fading_sequence(9, "dev-b", 100, 0.2)
        assert not np.array_equal(a, b)

    def test_positive_gains(self):
        assert np.all(fading_sequence(9, "dev", 1000, 0.2) > 0)

    def test_draws_from_the_device_stream(self):
        # the stream name fixes the bits of every faded MoE run
        want = np.exp(0.3 * stream(9, "netsim.fading.dev").standard_normal(50))
        assert fading_sequence(9, "dev", 50, 0.3).tobytes() == want.tobytes()

    def test_range_checks(self):
        with pytest.raises(DomainError):
            fading_sequence(9, "dev", -1, 0.2)
        with pytest.raises(DomainError):
            fading_sequence(9, "dev", 10, -0.1)
