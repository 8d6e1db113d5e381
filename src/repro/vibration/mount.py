"""HDD mounting structures.

Scenario 1 places the drive directly on the container floor; Scenarios
2-3 hold it in the second bay of a Supermicro CSE-M35TQB 5-in-3 storage
tower (simulating a data-center rack).  A :class:`Mount` turns enclosure
frame motion into drive chassis motion; sheet-metal towers add their own
resonances, which is one reason the paper varies the scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import UnitError

from .modes import ModalResponse, VibrationMode

__all__ = ["Mount", "DirectPlacement", "StorageTower"]


@dataclass
class Mount:
    """Base mount: a broadband coupling gain plus optional resonances."""

    name: str = "rigid mount"
    base_gain: float = 1.0
    modes: Optional[ModalResponse] = None

    def __post_init__(self) -> None:
        if self.base_gain <= 0.0:
            raise UnitError(f"base gain must be positive: {self.base_gain}")

    def transmissibility(self, frequency_hz: float) -> float:
        """Drive-chassis displacement per unit frame displacement."""
        if not (0.0 < frequency_hz < math.inf):  # also rejects NaN
            raise UnitError(f"frequency must be positive and finite: {frequency_hz}")
        if self.modes is None:
            return self.base_gain
        return self.base_gain * self.modes.response(frequency_hz)


class DirectPlacement(Mount):
    """Scenario 1: drive resting on the container bottom.

    Nearly rigid contact: unity coupling with a mild stiffness-controlled
    resonance from the drive sitting on the plastic floor.
    """

    def __init__(self) -> None:
        super().__init__(
            name="direct placement",
            base_gain=1.0,
            modes=ModalResponse([VibrationMode(frequency_hz=650.0, damping_ratio=0.6, gain=1.0)]),
        )


class StorageTower(Mount):
    """Scenarios 2-3: 5-in-3 hot-swap storage tower (rack stand-in).

    The sheet-metal chassis and drive caddy rails add structural modes in
    the mid-hundreds of hertz that amplify frame motion near resonance,
    with a slight rolloff above — measured rack enclosures behave the
    same way.

    Args:
        bay: which of the five bays holds the drive (0 = bottom).  The
            paper uses the second level from the bottom; higher bays sit
            further up the tower cantilever and couple slightly more.
    """

    BAYS = 5

    def __init__(self, bay: int = 1) -> None:
        if not 0 <= bay < self.BAYS:
            raise UnitError(f"bay must be in [0, {self.BAYS}): {bay}")
        self.bay = bay
        # Cantilever amplification grows modestly with bay height.
        height_gain = 1.0 + 0.06 * bay
        super().__init__(
            name=f"storage tower (bay {bay})",
            base_gain=height_gain,
            modes=ModalResponse(
                [
                    VibrationMode(frequency_hz=480.0, damping_ratio=0.35, gain=1.0),
                    VibrationMode(frequency_hz=1050.0, damping_ratio=0.30, gain=0.55),
                ]
            ),
        )
