"""Modal vibration response.

Rigid structures respond to forcing through a set of resonant modes
(Section 2.1's "causality": attacks work by matching resonant
frequencies).  :class:`VibrationMode` is a single-degree-of-freedom
resonance; :class:`ModalResponse` superimposes several modes into the
broadband transfer functions used for the head-stack assembly and for
mounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

from repro.errors import ConfigurationError, UnitError

__all__ = ["VibrationMode", "ModalResponse"]


def _mode_magnitude(
    frequency_hz: float, f0_hz: float, damping_ratio: float, gain: float
) -> float:
    """``|H(f)| = gain / sqrt((1 - r^2)^2 + (2 zeta r)^2)``, ``r = f / f0``.

    Peaks at ~``gain / (2 zeta)`` near resonance and rolls off
    12 dB/octave above.
    """
    r = frequency_hz / f0_hz
    return gain / math.sqrt((1.0 - r * r) ** 2 + (2.0 * damping_ratio * r) ** 2)


@dataclass(frozen=True)
class VibrationMode:
    """One resonant mode of a structure.

    Attributes:
        frequency_hz: natural frequency of the mode.
        damping_ratio: viscous damping ratio zeta in (0, 1).
        gain: DC (static) gain of the mode, dimensionless.
    """

    frequency_hz: float
    damping_ratio: float = 0.05
    gain: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0.0:
            raise UnitError(f"mode frequency must be positive: {self.frequency_hz}")
        if not 0.0 < self.damping_ratio < 1.0:
            raise UnitError(f"damping ratio must be in (0, 1): {self.damping_ratio}")
        if self.gain < 0.0:
            raise UnitError(f"mode gain must be non-negative: {self.gain}")


class ModalResponse:
    """Superposition of several :class:`VibrationMode` objects.

    Magnitudes are combined in quadrature (incoherent sum), a standard
    envelope approximation when mode phases are unknown.
    """

    def __init__(self, modes: Iterable[VibrationMode]) -> None:
        self.modes: List[VibrationMode] = list(modes)
        if not self.modes:
            raise ConfigurationError("modal response needs at least one mode")

    def response(self, frequency_hz: float) -> float:
        """Combined magnitude at ``frequency_hz``.

        Each mode's magnitude, summed in quadrature left to right over
        :attr:`modes`.
        """
        if not (0.0 < frequency_hz < math.inf):  # also rejects NaN
            raise UnitError(f"frequency must be positive and finite: {frequency_hz}")
        total_sq = 0
        for mode in self.modes:
            total_sq += _mode_magnitude(
                frequency_hz, mode.frequency_hz, mode.damping_ratio, mode.gain
            ) ** 2
        return math.sqrt(total_sq)

    @staticmethod
    def head_stack_assembly() -> "ModalResponse":
        """Default head-stack assembly modes of a 3.5" desktop drive.

        Calibrated (see :mod:`repro.core.calibration`) so that, combined
        with the wall and servo responses, the vulnerable band of the
        paper's Figure 2 emerges: strong response from ~300 Hz up to
        ~1.5 kHz with a rolloff above.  Real drives show suspension and
        arm bending modes in exactly this low-kilohertz range.
        """
        return ModalResponse(
            [
                VibrationMode(frequency_hz=520.0, damping_ratio=0.25, gain=1.0),
                VibrationMode(frequency_hz=900.0, damping_ratio=0.22, gain=0.75),
                VibrationMode(frequency_hz=1350.0, damping_ratio=0.18, gain=0.42),
            ]
        )
