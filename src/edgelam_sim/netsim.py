"""Wireless edge-network model: devices, Shannon-rate channels, and latency
accounting.

The channel is a standard FDMA link budget: a device allocated bandwidth B
sees noise power N0*B, so its uplink rate is B*log2(1 + g*p/(N0*B)); this
is a deliberate Shannon-capacity stand-in, not a measured radio model.
Channels are static within a run; optional per-slot fading is a seeded
multiplicative gain sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rng import stream


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


def shannon_rate(bandwidth: float, gain: float, power: float, noise_density: float) -> float:
    """Uplink rate in bit/s: B*log2(1 + g*p/(N0*B)).

    Zero bandwidth or zero received power means zero rate.  Where the SNR
    overflows (N0*B underflowing, say), the rate is B*log2(g*p/(N0*B))
    taken in logs, which stays finite; the 1 is negligible there.
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
    return bandwidth * math.log2(1.0 + snr)


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


def fading_sequence(seed: int, device_id: str, n_slots: int, sigma: float = 0.2) -> np.ndarray:
    """Seeded per-slot multiplicative channel gains (unit-median lognormal).

    Only used when a scenario enables fading; channels are otherwise static.
    """
    if n_slots < 0:
        raise DomainError("n_slots must be >= 0")
    if sigma < 0:
        raise DomainError("sigma must be >= 0")
    rng = stream(seed, f"netsim.fading.{device_id}")
    return np.exp(sigma * rng.standard_normal(n_slots))

