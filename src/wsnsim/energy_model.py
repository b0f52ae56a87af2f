"""First-order radio energy model.

Transmission costs an electronics term per bit plus an amplifier term that
scales with d^2 (free space) below the crossover distance and d^4
(multipath) above it. Reception costs the electronics term only; data
aggregation costs a fixed amount per bit per report. All values are joules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class RadioParams:
    """Radio hardware constants, in joules per bit (per m^2 / m^4 for amps)."""

    e_elec: float = 50e-9       # TX/RX electronics, J/bit
    e_fs: float = 10e-12        # free-space amplifier, J/bit/m^2
    e_mp: float = 0.0013e-12    # multipath amplifier, J/bit/m^4
    e_da: float = 5e-9          # aggregation, J/bit/report

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{f.name} must be strictly positive, got {value!r}")


def crossover_distance(params: RadioParams) -> float:
    """Distance at which the free-space and multipath amplifier costs meet."""
    return math.sqrt(params.e_fs / params.e_mp)


def tx_energy(params: RadioParams, bits: int, distance):
    """Energy to transmit `bits` over `distance` meters.

    Uses the d^2 amplifier below the crossover distance and d^4 at or
    beyond it; the two branches agree at the crossover. `distance` may be
    an array, priced element by element with the same float operations as
    a scalar; a scalar distance gives a Python float.
    """
    d = np.asarray(distance, dtype=float)
    d_sq = d * d
    amp = params.e_fs * d_sq
    near = d < crossover_distance(params)
    if not near.all():
        amp = np.where(near, amp, params.e_mp * d_sq * d_sq)
    energy = bits * params.e_elec + bits * amp
    return energy if energy.ndim else float(energy)


def rx_energy(params: RadioParams, bits: int) -> float:
    """Energy to receive `bits` (electronics only)."""
    return bits * params.e_elec


def aggregation_energy(params: RadioParams, bits: int, reports: int) -> float:
    """Energy to fuse `reports` data reports of `bits` each into one packet."""
    return bits * params.e_da * reports
