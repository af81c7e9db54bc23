"""Wireless edge-network model: devices, Shannon-rate channels, and latency
accounting.

The channel is a standard FDMA link budget: a device allocated bandwidth B
sees noise power N0*B, so its uplink rate is B*log2(1 + g*p/(N0*B)); this
is a deliberate Shannon-capacity stand-in, not a measured radio model.
Channels are static here; the MoE scheduler's optional per-slot fading
scales a device's gain by a seeded sequence of its own.

The module also holds the value types a scenario config describes, so the
config parser builds them without loading a solver or numpy: the device
(``DeviceProfile``), an MoE expert (``ExpertMicroservice``) and a CoT chain
(``CotStep``, ``CotChain``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class DeviceProfile:
    """Static capabilities of one edge device."""

    id: str
    compute_rate: float  # FLOP/s
    memory_capacity: float  # bytes
    channel_gain: float  # dimensionless power gain
    tx_power: float  # watts
    local_rank: int = 1  # LoRA rank this device trains

    def __post_init__(self):
        if self.compute_rate <= 0:
            raise DomainError(f"device {self.id}: compute_rate must be > 0")
        if self.memory_capacity <= 0:
            raise DomainError(f"device {self.id}: memory_capacity must be > 0")
        if self.channel_gain < 0:
            raise DomainError(f"device {self.id}: channel_gain must be >= 0")
        if self.tx_power < 0:
            raise DomainError(f"device {self.id}: tx_power must be >= 0")
        if self.local_rank < 1:
            raise DomainError(f"device {self.id}: local_rank must be >= 1")


@dataclass(frozen=True)
class ExpertMicroservice:
    """One virtualized expert: its cost per call and where replicas live."""

    id: str
    workload_per_call: float  # FLOPs
    output_size: float  # bits
    replicas: tuple[str, ...]

    def __post_init__(self):
        if self.workload_per_call <= 0:
            raise ValueError(f"expert {self.id}: workload must be > 0")
        if self.output_size < 0:
            raise ValueError(f"expert {self.id}: output_size must be >= 0")
        if not self.replicas:
            raise ValueError(f"expert {self.id}: replica set must be nonempty")


@dataclass(frozen=True)
class CotStep:
    workload: float  # FLOPs
    handoff_size: float  # bits shipped to the next step

    def __post_init__(self):
        if self.workload <= 0:
            raise ValueError("step workload must be > 0")
        if self.handoff_size < 0:
            raise ValueError("handoff_size must be >= 0")


@dataclass(frozen=True)
class CotChain:
    """Ordered reasoning steps; as a graph, a path."""

    steps: tuple[CotStep, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("chain needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)


def shannon_rate(bandwidth: float, gain: float, power: float, noise_density: float) -> float:
    """Uplink rate in bit/s: B*log2(1 + g*p/(N0*B)).

    Zero bandwidth or zero received power means zero rate.  Where the SNR
    overflows (N0*B underflowing, say), the rate is B*log2(g*p/(N0*B))
    taken in logs, which stays finite; the 1 is negligible there.  Below an
    SNR of 1 the log is ``log1p(snr) / ln 2``, so a very wide band, where
    ``1 + snr`` would round to 1, keeps its rate of about g*p/(N0 ln 2).
    """
    if bandwidth < 0 or gain < 0 or power < 0:
        raise DomainError("bandwidth, gain and power must be >= 0")
    if noise_density <= 0:
        raise DomainError("noise_density must be > 0")
    if bandwidth == 0.0 or gain * power == 0.0:
        return 0.0
    # in Python floats an overflow is inf, not a numpy RuntimeWarning
    noise = float(noise_density) * float(bandwidth)
    snr = float(gain) * float(power) / noise if noise > 0.0 else math.inf
    if snr == math.inf:
        logs = math.log2(gain) + math.log2(power) - math.log2(noise_density)
        return bandwidth * (logs - math.log2(bandwidth))
    if snr < 1.0:
        return bandwidth * (math.log1p(snr) / _LN2)
    return bandwidth * math.log2(1.0 + snr)


class MinBandwidth:
    """The least bandwidth up to ``b_cap`` at which one live link meets a rate.

    ``for_rate(required)`` is inf when ``shannon_rate(b_cap, ...)`` is below
    ``required``; otherwise it halves ``[0, b_cap]`` 52 times on
    ``shannon_rate(mid, ...) >= required`` and returns the upper end.  The
    link must be live (``gain * power != 0``): a dead one carries nothing.

    One object serves many rates.  The rate at ``b_cap`` is one
    ``shannon_rate`` call, made at the first ``for_rate``, so it raises where
    a direct call would.  The 52 steps repeat ``shannon_rate``'s arithmetic
    inline, with its float conversions and logs taken once, so every result
    equals the bisection over ``shannon_rate`` bit for bit at a 52nd of the
    calls.
    """

    __slots__ = ("b_cap", "gain", "power", "noise_density", "_full", "_consts")

    def __init__(self, b_cap: float, gain: float, power: float, noise_density: float):
        self.b_cap, self.gain, self.power = b_cap, gain, power
        self.noise_density = noise_density
        self._full = None

    def for_rate(self, required: float) -> float:
        if self._full is None:
            gain, power, n0 = self.gain, self.power, self.noise_density
            self._full = shannon_rate(self.b_cap, gain, power, n0)
            # shannon_rate has checked the domain; these are its constants
            self._consts = (float(gain) * float(power), float(n0),
                            math.log2(gain) + math.log2(power) - math.log2(n0))
        if self._full < required:
            return math.inf
        gp, n0, logs = self._consts
        inf, log2, log1p = math.inf, math.log2, math.log1p
        lo, hi = 0.0, self.b_cap
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            if mid == 0.0:
                rate = 0.0
            else:
                noise = n0 * mid
                snr = gp / noise if noise > 0.0 else inf
                if snr == inf:
                    rate = mid * (logs - log2(mid))
                elif snr < 1.0:
                    rate = mid * (log1p(snr) / _LN2)
                else:
                    rate = mid * log2(1.0 + snr)
            if rate >= required:
                hi = mid
            else:
                lo = mid
        return hi


def comm_latency(bits: float, rate: float) -> float:
    """Transfer time in seconds; +inf on a starved (zero-rate) link."""
    if bits < 0:
        raise DomainError("bits must be >= 0")
    if bits == 0.0:
        return 0.0
    if rate == 0.0:
        return math.inf
    return bits / rate


def comp_latency(flops: float, compute_rate: float) -> float:
    """Compute time in seconds."""
    if flops < 0:
        raise DomainError("flops must be >= 0")
    if compute_rate <= 0:
        raise DomainError("compute_rate must be > 0")
    return flops / compute_rate

