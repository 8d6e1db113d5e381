"""Attack waveform generation.

The paper drives its underwater speaker with sine waves produced by GNU
Radio on a laptop.  This module is the equivalent software source: pure
tones, linear/logarithmic frequency sweeps (the paper sweeps 100 Hz to
16.9 kHz, narrowing to 50 Hz steps near vulnerable bands), and composite
multi-tone signals.  Signals can be sampled to flat ``array('d')``
buffers for inspection and report their instantaneous
frequency/amplitude for the coupling model.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError, UnitError

__all__ = [
    "Signal",
    "SineTone",
    "FrequencySweep",
    "CompositeSignal",
    "Silence",
    "sweep_plan",
]


class Signal:
    """Base class for time-domain signals with unit peak amplitude.

    Subclasses report instantaneous frequency and a relative amplitude
    envelope in [0, 1]; the absolute pressure scale is applied later by
    the speaker/amplifier chain.
    """

    duration: float

    def frequency_at(self, t: float) -> float:
        """Instantaneous frequency in Hz at time ``t`` (seconds)."""
        raise NotImplementedError

    def envelope_at(self, t: float) -> float:
        """Relative amplitude envelope in [0, 1] at time ``t``."""
        raise NotImplementedError

    def sample(self, sample_rate_hz: float, duration: "float | None" = None) -> array:
        """Render the waveform to an ``array('d')`` at ``sample_rate_hz``.

        Uses phase accumulation so sweeps are continuous in phase.
        ``duration`` defaults to the signal's own, so an endless tone
        needs an explicit one.
        """
        if not 0.0 < sample_rate_hz < math.inf:  # also rejects NaN
            raise UnitError(f"sample rate must be positive and finite: {sample_rate_hz}")
        total = self.duration if duration is None else duration
        if not 0.0 < total < math.inf:
            raise UnitError(f"sample duration must be positive and finite: {total}")
        n = max(1, int(round(total * sample_rate_hz)))
        dt = 1.0 / sample_rate_hz
        out = array("d")
        phase = 0.0
        for i in range(n):
            t = i * dt
            freq = self.frequency_at(t)
            out.append(self.envelope_at(t) * math.sin(phase))
            phase += 2.0 * math.pi * freq * dt
        return out


@dataclass
class SineTone(Signal):
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
        return self.frequency_hz

    def envelope_at(self, t: float) -> float:
        return self.amplitude if 0.0 <= t <= self.duration else 0.0


@dataclass
class FrequencySweep(Signal):
    """A frequency sweep (chirp), linear or logarithmic in frequency."""

    start_hz: float
    stop_hz: float
    duration: float
    logarithmic: bool = False
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.start_hz <= 0.0 or self.stop_hz <= 0.0:
            raise UnitError("sweep frequencies must be positive")
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise UnitError(f"sweep duration must be finite positive: {self.duration}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise UnitError(f"relative amplitude must be in [0, 1]: {self.amplitude}")

    def frequency_at(self, t: float) -> float:
        frac = min(max(t / self.duration, 0.0), 1.0)
        if self.logarithmic:
            log_f = math.log(self.start_hz) + frac * (
                math.log(self.stop_hz) - math.log(self.start_hz)
            )
            return math.exp(log_f)
        return self.start_hz + frac * (self.stop_hz - self.start_hz)

    def envelope_at(self, t: float) -> float:
        return self.amplitude if 0.0 <= t <= self.duration else 0.0


@dataclass
class CompositeSignal(Signal):
    """Several signals played back-to-back (e.g. a stepped sweep)."""

    parts: Sequence[Signal] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.parts:
            raise ConfigurationError("composite signal needs at least one part")
        for part in self.parts:
            if not math.isfinite(part.duration):
                raise ConfigurationError("composite parts must have finite duration")
        self.duration = sum(part.duration for part in self.parts)

    def _locate(self, t: float) -> Tuple[Signal, float]:
        offset = t
        for part in self.parts:
            if offset <= part.duration:
                return part, offset
            offset -= part.duration
        return self.parts[-1], self.parts[-1].duration

    def frequency_at(self, t: float) -> float:
        part, local_t = self._locate(t)
        return part.frequency_at(local_t)

    def envelope_at(self, t: float) -> float:
        if t < 0.0 or t > self.duration:
            return 0.0
        part, local_t = self._locate(t)
        return part.envelope_at(local_t)


@dataclass
class Silence(Signal):
    """A gap in the transmission (speaker keyed off)."""

    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise UnitError(f"duration must be positive: {self.duration}")

    def frequency_at(self, t: float) -> float:
        return 1.0  # arbitrary; envelope is zero

    def envelope_at(self, t: float) -> float:
        return 0.0


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
