"""Frequency-dependent sound absorption in water.

The paper cites Fisher & Simmons (1977) [15] for the absorption
coefficient and van Moll, Ainslie & van Vossen (2009) [47] — who
recommend the Ainslie & McColm (1998) formula — for the "0.038 dB/km at
500 Hz in the Baltic at 50 m" example.  The simulation uses Ainslie &
McColm.

Absorption in sea water has three contributions:

* boric acid relaxation (dominates below ~1 kHz in sea water),
* magnesium sulfate relaxation (~10 kHz-100 kHz),
* pure-water viscous absorption (above ~100 kHz).

In the paper's fresh-water tank only the viscous term survives, which is
why absorption is negligible over the 25 cm attack range and spreading
loss dominates the distance results of Table 1.

All functions return the absorption coefficient **alpha in dB/km**.
"""

from __future__ import annotations

import math

from repro.errors import UnitError

from .medium import WaterConditions

__all__ = [
    "absorption_ainslie_mccolm",
    "absorption_for_conditions",
]


def _check_frequency(frequency_hz: float) -> float:
    # `not (0 < f < inf)` also rejects NaN and +inf, which `f <= 0`
    # would wave through and turn into NaN absorption downstream.
    if not (0.0 < frequency_hz < math.inf):
        raise UnitError(f"frequency must be positive and finite: {frequency_hz}")
    return frequency_hz / 1000.0  # both formulas work in kHz


def absorption_ainslie_mccolm(
    frequency_hz: float,
    temperature_c: float = 20.0,
    salinity_ppt: float = 35.0,
    depth_m: float = 0.0,
    ph: float = 8.0,
) -> float:
    """Ainslie & McColm (1998) absorption in dB/km.

    This is the "simple and accurate" formula endorsed by van Moll et
    al. (2009), the paper's reference [47].  Valid for 100 Hz - 1 MHz,
    -6 to 35 C, 5-50 ppt, 0-7 km depth, pH 7.7-8.3 (extrapolates
    smoothly outside).
    """
    f = _check_frequency(frequency_hz)
    t = temperature_c
    s = salinity_ppt
    z_km = depth_m / 1000.0

    # Boric acid relaxation frequency (kHz).
    f1 = 0.78 * math.sqrt(s / 35.0) * math.exp(t / 26.0)
    # Magnesium sulfate relaxation frequency (kHz).
    f2 = 42.0 * math.exp(t / 17.0)

    boric = (
        0.106
        * (f1 * f * f) / (f1 * f1 + f * f)
        * math.exp((ph - 8.0) / 0.56)
    )
    magnesium = (
        0.52
        * (1.0 + t / 43.0)
        * (s / 35.0)
        * (f2 * f * f) / (f2 * f2 + f * f)
        * math.exp(-z_km / 6.0)
    )
    viscous = 0.00049 * f * f * math.exp(-(t / 27.0 + z_km / 17.0))
    return boric + magnesium + viscous


def absorption_for_conditions(frequency_hz: float, conditions: WaterConditions) -> float:
    """Absorption in dB/km for a :class:`WaterConditions`, in dB/km.

    Fresh water (salinity below 0.5 ppt) has no boric/magnesium
    relaxation, so only the viscous term of Ainslie & McColm applies.
    """
    if conditions.salinity_ppt < 0.5:
        f = _check_frequency(frequency_hz)
        z_km = conditions.depth_m / 1000.0
        return 0.00049 * f * f * math.exp(
            -(conditions.temperature_c / 27.0 + z_km / 17.0)
        )
    return absorption_ainslie_mccolm(
        frequency_hz,
        temperature_c=conditions.temperature_c,
        salinity_ppt=conditions.salinity_ppt,
        depth_m=conditions.depth_m,
        ph=conditions.ph,
    )
