"""The underwater environment: tank or open water.

Binds the water conditions to a propagation model and answers the only
question the rest of the chain asks: what pressure amplitude (Pa, peak)
arrives at the enclosure wall for a given source level, frequency, and
distance?
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.acoustics.medium import WaterConditions
from repro.acoustics.propagation import PropagationModel, TankModel
from repro.acoustics.spl import spl_to_pressure
from repro.errors import UnitError

__all__ = ["UnderwaterEnvironment"]

#: RMS -> peak amplitude factor for a sinusoid.
_SQRT2 = math.sqrt(2.0)


@dataclass
class UnderwaterEnvironment:
    """Water conditions plus a propagation model.

    Attributes:
        conditions: temperature/salinity/depth of the water.
        propagation: the loss model; defaults to the case-study tank.
    """

    conditions: WaterConditions = field(default_factory=WaterConditions.tank)
    propagation: Optional[PropagationModel] = None

    def __post_init__(self) -> None:
        if self.propagation is None:
            self.propagation = TankModel(conditions=self.conditions)
        elif self.propagation.conditions is not self.conditions:
            # Keep the models consistent: the propagation conditions win.
            self.conditions = self.propagation.conditions

    @staticmethod
    def tank() -> "UnderwaterEnvironment":
        """The paper's laboratory tank environment."""
        return UnderwaterEnvironment(conditions=WaterConditions.tank())

    @staticmethod
    def open_water(conditions: WaterConditions) -> "UnderwaterEnvironment":
        """Open-water environment (Section 5 range discussions)."""
        return UnderwaterEnvironment(
            conditions=conditions, propagation=PropagationModel(conditions=conditions)
        )

    def received_level_db(
        self, source_level_db: float, distance_m: float, frequency_hz: float
    ) -> float:
        """SPL (dB re 1 uPa) arriving at ``distance_m`` from the source."""
        if distance_m <= 0.0:
            raise UnitError(f"distance must be positive: {distance_m}")
        return self.propagation.received_level_db(
            source_level_db, distance_m, frequency_hz
        )

    def pressure_amplitude_pa(
        self, source_level_db: float, distance_m: float, frequency_hz: float
    ) -> float:
        """Peak pressure amplitude (Pa) of the tone at the target.

        SPL is an RMS measure; the sinusoid's displacement-driving peak
        amplitude is sqrt(2) higher.
        """
        level = self.received_level_db(source_level_db, distance_m, frequency_hz)
        if math.isinf(level) and level < 0:
            return 0.0
        return _SQRT2 * spl_to_pressure(level)
