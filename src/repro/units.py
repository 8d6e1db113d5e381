"""Physical constants and unit conversions used throughout the package.

Every module stores quantities in SI units internally (pascals, metres,
hertz, seconds, kilograms).  Decibel quantities are only ever produced or
consumed at the edges, through the helpers in :mod:`repro.acoustics.spl`.
"""

from __future__ import annotations

from .errors import UnitError

__all__ = [
    "P_REF_AIR",
    "P_REF_WATER",
    "DENSITY_FRESH_WATER",
    "DENSITY_AIR",
    "DENSITY_NITROGEN",
    "SOUND_SPEED_AIR",
    "SOUND_SPEED_NITROGEN",
    "KIB",
    "MIB",
    "GIB",
    "SECTOR_SIZE",
    "BLOCK_4K",
    "NM",
    "CM",
    "KM",
    "rpm_to_rev_time",
]

# --------------------------------------------------------------------------
# Reference pressures (the air/water +26 dB shift in the paper comes from
# the ratio of these two references: 20 * log10(20 uPa / 1 uPa) ~= 26 dB).
# --------------------------------------------------------------------------

#: Reference pressure for SPL in air (20 micropascal), in Pa.
P_REF_AIR = 20e-6

#: Reference pressure for SPL in water (1 micropascal), in Pa.
P_REF_WATER = 1e-6

# --------------------------------------------------------------------------
# Medium properties at room conditions.
# --------------------------------------------------------------------------

#: Density of fresh water at ~20 C, kg/m^3.
DENSITY_FRESH_WATER = 998.0

#: Density of air at 20 C, kg/m^3.
DENSITY_AIR = 1.204

#: Density of nitrogen gas at 20 C / 1 atm, kg/m^3 (data-center fill gas).
DENSITY_NITROGEN = 1.165

#: Speed of sound in air at 20 C, m/s.
SOUND_SPEED_AIR = 343.0

#: Speed of sound in nitrogen at 20 C, m/s.
SOUND_SPEED_NITROGEN = 349.0

# --------------------------------------------------------------------------
# Sizes and lengths.
# --------------------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

SECTOR_SIZE = 512
BLOCK_4K = 4 * KIB

#: Nanometre in metres (track pitches and off-track thresholds).
NM = 1e-9

CM = 1e-2
KM = 1e3


def rpm_to_rev_time(rpm: float) -> float:
    """Rotation period in seconds of a spindle turning at ``rpm``.

    >>> rpm_to_rev_time(6000.0)
    0.01
    >>> round(rpm_to_rev_time(7200.0) * 1e3, 3)  # the victim drive, in ms
    8.333
    """
    if rpm <= 0.0:
        raise UnitError(f"spindle speed must be positive, got {rpm!r}")
    return 60.0 / rpm
