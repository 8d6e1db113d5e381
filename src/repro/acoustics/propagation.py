"""Acoustic propagation loss models.

Two models are provided:

* :class:`PropagationModel` — open-water propagation: spherical
  spreading plus frequency-dependent absorption.  Used for the paper's
  Section 5 discussion of long-range attacks (e.g. a 500 Hz tone losing
  only 0.038 dB/km in the Baltic, so range is spreading-limited).
* :class:`TankModel` — the laboratory tank of the case study: spreading
  from the speaker face with a small reverberation floor from tank-wall
  reflections.  Over the 1-25 cm distances of Tables 1-2, absorption is
  negligible and spreading dominates, which is what produces the sharp
  distance cliff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import UnitError
from repro.units import KM

from .absorption import absorption_for_conditions
from .medium import WaterConditions

__all__ = ["spherical_spreading_db", "PropagationModel", "TankModel"]


def spherical_spreading_db(distance_m: float, reference_m: float = 1.0) -> float:
    """Spreading loss in dB from ``reference_m`` out to ``distance_m``.

    Distances inside the reference sphere are clamped to zero loss: the
    source level is already defined there.
    """
    if not (distance_m > 0.0):  # rejects NaN as well as <= 0
        raise UnitError(f"distance must be positive: {distance_m}")
    if not (reference_m > 0.0):
        raise UnitError(f"reference distance must be positive: {reference_m}")
    if distance_m <= reference_m:
        return 0.0
    return 20.0 * math.log10(distance_m / reference_m)


@dataclass
class PropagationModel:
    """Open-water transmission loss: spreading + absorption.

    ``TL(r, f) = 20 log10(r / r0) + alpha(f) * r``
    """

    conditions: WaterConditions = field(default_factory=WaterConditions.tank)
    reference_m: float = 0.01

    def absorption_db_per_km(self, frequency_hz: float) -> float:
        """Absorption coefficient at ``frequency_hz`` for these conditions."""
        return absorption_for_conditions(frequency_hz, self.conditions)

    def transmission_loss_db(self, distance_m: float, frequency_hz: float) -> float:
        """Total one-way transmission loss in dB at ``distance_m``."""
        spreading = spherical_spreading_db(distance_m, self.reference_m)
        absorption = self.absorption_db_per_km(frequency_hz) * (distance_m / KM)
        return spreading + absorption

    def received_level_db(
        self, source_level_db: float, distance_m: float, frequency_hz: float
    ) -> float:
        """Received SPL (dB re 1 uPa) at ``distance_m`` from the source."""
        if math.isinf(source_level_db) and source_level_db < 0:
            return -math.inf
        return source_level_db - self.transmission_loss_db(distance_m, frequency_hz)


@dataclass
class TankModel(PropagationModel):
    """The case-study water tank.

    A small tank is a reverberant space: wall reflections add an
    incoherent floor ``reverberation_floor_db`` below the source level.
    The direct path still dominates at the centimetre distances used in
    the paper, so the floor mostly matters for sanity checks (received
    level never drops unboundedly inside the tank).
    """

    reverberation_floor_db: float = 55.0
    tank_length_m: float = 1.2

    def received_level_db(
        self, source_level_db: float, distance_m: float, frequency_hz: float
    ) -> float:
        if math.isinf(source_level_db) and source_level_db < 0:
            return -math.inf
        if distance_m > self.tank_length_m:
            raise UnitError(
                f"distance {distance_m} m exceeds tank length {self.tank_length_m} m"
            )
        direct = super().received_level_db(source_level_db, distance_m, frequency_hz)
        floor = source_level_db - self.reverberation_floor_db
        # Incoherent sum of the direct path and the reverberant field.
        return 10.0 * math.log10(10.0 ** (direct / 10.0) + 10.0 ** (floor / 10.0))
