"""Baffled circular-piston radiation: the speaker's true field.

The propagation model treats the source as a point with spherical
spreading from a reference distance.  A real transducer like the AQ339
is closer to a baffled circular piston, whose field differs in two ways
that matter to close-range attacks:

* **near field** — inside the Rayleigh distance ``z_r = a^2 / lambda``
  the on-axis pressure oscillates instead of falling as 1/r (the paper
  operates at 1-25 cm with an ~20 cm transducer: solidly near-field);
* **directivity** — off-axis response falls as ``2 J1(x) / x`` with
  ``x = k a sin(theta)``, so a large piston at high frequency beams.

Implemented exactly (a pure-Python Bessel J1, :func:`bessel_j1`), with
helpers the coupling ablations use to sanity-check the point-source
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import UnitError

__all__ = ["CircularPiston", "bessel_j1"]


def bessel_j1(x: float) -> float:
    """Bessel function of the first kind of order one, ``J1(x)``.

    Trapezoid rule on Bessel's integral
    ``J1(x) = (1/pi) * integral_0^pi cos(tau - x sin(tau)) dtau``.  The
    integrand extends to a smooth 2 pi-periodic function, so the rule
    converges geometrically once the panel count exceeds ``|x|``;
    ``max(32, |x| + 32)`` panels give double precision (within 1e-15 of
    the series value over [0, 40]).

    >>> bessel_j1(1.0)
    0.44005058574493355
    """
    if not math.isfinite(x):
        raise UnitError(f"J1 argument must be finite: {x}")
    n = max(32, int(abs(x)) + 32)
    h = math.pi / n
    total = 0.5 * (1.0 + math.cos(math.pi - x * math.sin(math.pi)))
    for k in range(1, n):
        tau = k * h
        total += math.cos(tau - x * math.sin(tau))
    return total / n


@dataclass(frozen=True)
class CircularPiston:
    """A baffled circular piston source.

    Attributes:
        radius_m: piston radius (the AQ339 disc is ~0.1 m).
        sound_speed: medium sound speed, m/s.
    """

    radius_m: float = 0.10
    sound_speed: float = 1485.0

    def __post_init__(self) -> None:
        if self.radius_m <= 0.0:
            raise UnitError(f"radius must be positive: {self.radius_m}")
        if self.sound_speed <= 0.0:
            raise UnitError(f"sound speed must be positive: {self.sound_speed}")

    def wavenumber(self, frequency_hz: float) -> float:
        """k = 2 pi f / c."""
        if frequency_hz <= 0.0:
            raise UnitError(f"frequency must be positive: {frequency_hz}")
        return 2.0 * math.pi * frequency_hz / self.sound_speed

    def rayleigh_distance_m(self, frequency_hz: float) -> float:
        """Near-field/far-field boundary ``a^2 / lambda``."""
        wavelength = self.sound_speed / frequency_hz
        return self.radius_m ** 2 / wavelength

    def on_axis_pressure_ratio(self, distance_m: float, frequency_hz: float) -> float:
        """|p(z)| relative to the surface pressure ``rho c v``.

        Exact axial solution of the baffled piston:
        ``|p| = 2 |sin(k/2 (sqrt(z^2 + a^2) - z))|``.
        Oscillates between 0 and 2 in the near field; decays ~1/z in the
        far field.
        """
        if distance_m < 0.0:
            raise UnitError(f"distance must be non-negative: {distance_m}")
        k = self.wavenumber(frequency_hz)
        path_difference = math.sqrt(distance_m ** 2 + self.radius_m ** 2) - distance_m
        return 2.0 * abs(math.sin(0.5 * k * path_difference))

    def directivity(self, frequency_hz: float, angle_rad: float) -> float:
        """Far-field pattern ``|2 J1(x) / x|`` with ``x = k a sin(theta)``."""
        x = self.wavenumber(frequency_hz) * self.radius_m * math.sin(angle_rad)
        if abs(x) < 1e-9:
            return 1.0
        return abs(2.0 * bessel_j1(x) / x)

    def beamwidth_deg(self, frequency_hz: float) -> float:
        """Full -3 dB beamwidth; 360 when the piston is omnidirectional.

        Solved numerically on the monotone first lobe.
        """
        target = 10.0 ** (-3.0 / 20.0)
        low, high = 0.0, math.pi / 2.0
        if self.directivity(frequency_hz, high) > target:
            return 360.0
        for _ in range(60):
            mid = (low + high) / 2.0
            if self.directivity(frequency_hz, mid) > target:
                low = mid
            else:
                high = mid
        return 2.0 * math.degrees(low)

    def point_source_error_db(self, distance_m: float, frequency_hz: float) -> float:
        """How far the 1/r point model strays from the piston, in dB.

        Compares the true axial ratio against a 1/r law anchored in the
        far field (10 Rayleigh distances out).  Large values inside the
        near field justify the calibrated coupling constant absorbing
        the difference.
        """
        if distance_m <= 0.0:
            raise UnitError(f"distance must be positive: {distance_m}")
        anchor = 10.0 * max(self.rayleigh_distance_m(frequency_hz), self.radius_m)
        true_ratio = self.on_axis_pressure_ratio(distance_m, frequency_hz)
        anchor_ratio = self.on_axis_pressure_ratio(anchor, frequency_hz)
        if true_ratio <= 0.0:  # an axial null: the point model is "infinitely" wrong
            return float("inf")
        point_ratio = anchor_ratio * (anchor / distance_m)
        return 20.0 * math.log10(point_ratio / true_ratio)
