"""Attack waveform generation.

The paper drives its underwater speaker with sine waves produced by GNU
Radio on a laptop.  This module is the equivalent software source: the
pure tone the attack plays, which reports its instantaneous
frequency/amplitude for the coupling model, and the paper's sweep plan
(100 Hz to 16.9 kHz, narrowing to 50 Hz steps near vulnerable bands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import UnitError

__all__ = ["SineTone", "sweep_plan"]


@dataclass
class SineTone:
    """A constant-frequency sine tone — the paper's attack waveform."""

    frequency_hz: float
    duration: float = math.inf
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise UnitError(f"frequency must be positive: {self.frequency_hz}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise UnitError(f"relative amplitude must be in [0, 1]: {self.amplitude}")
        if self.duration <= 0.0:
            raise UnitError(f"duration must be positive: {self.duration}")

    def frequency_at(self, t: float) -> float:
        """Instantaneous frequency in Hz at time ``t`` (seconds)."""
        return self.frequency_hz

    def envelope_at(self, t: float) -> float:
        """Relative amplitude envelope in [0, 1] at time ``t``."""
        return self.amplitude if 0.0 <= t <= self.duration else 0.0


def sweep_plan(
    start_hz: float,
    stop_hz: float,
    coarse_step_hz: float = 100.0,
    fine_step_hz: float = 50.0,
    fine_bands: "Sequence[Tuple[float, float]] | None" = None,
) -> List[float]:
    """Frequencies to test, mirroring the paper's sweep methodology.

    The paper sweeps 100 Hz - 16.9 kHz and narrows to 50 Hz increments
    between vulnerable frequencies.  ``fine_bands`` lists (low, high)
    ranges that get the fine step; everywhere else uses the coarse step.
    """
    if start_hz <= 0.0 or stop_hz <= start_hz:
        raise UnitError("need 0 < start_hz < stop_hz")
    if coarse_step_hz <= 0.0 or fine_step_hz <= 0.0:
        raise UnitError("steps must be positive")
    bands = list(fine_bands or [])
    frequencies: List[float] = []
    f = start_hz
    while f <= stop_hz + 1e-9:
        frequencies.append(round(f, 6))
        in_fine = any(low <= f < high for low, high in bands)
        f += fine_step_hz if in_fine else coarse_step_hz
    return frequencies
