"""Sound pressure level algebra.

SPL is a ratio of a measured RMS pressure to a *reference* pressure, and
the reference differs between media: 20 uPa in air, 1 uPa in water.  The
paper's Section 2.2 uses exactly this to convert in-air attack levels to
their underwater equivalents:

    SPL_water = SPL_air + 20 * log10(20 uPa / 1 uPa) = SPL_air + 26 dB

so the 140 dB (re 1 uPa) underwater source used in the case study carries
the same pressure as a ~114 dB SPL source in air — comparable to the
Blue Note in-air attack levels.
"""

from __future__ import annotations

import math

from repro.errors import UnitError
from repro.units import P_REF_AIR, P_REF_WATER

__all__ = ["pressure_to_spl", "spl_to_pressure", "AIR_WATER_REFERENCE_SHIFT_DB"]

#: 20*log10(20 uPa / 1 uPa): the reference shift between air and water SPL.
AIR_WATER_REFERENCE_SHIFT_DB = 20.0 * math.log10(P_REF_AIR / P_REF_WATER)


def pressure_to_spl(pressure_pa: float, reference_pa: float = P_REF_WATER) -> float:
    """Convert an RMS pressure in Pa to SPL in dB re ``reference_pa``.

    >>> pressure_to_spl(1e-6)  # the underwater reference itself
    0.0
    >>> round(pressure_to_spl(1.0), 1)  # 1 Pa RMS underwater
    120.0
    """
    if not (pressure_pa > 0.0):  # rejects NaN as well as <= 0
        raise UnitError(f"pressure must be positive: {pressure_pa}")
    if not (reference_pa > 0.0):
        raise UnitError(f"reference pressure must be positive: {reference_pa}")
    return 20.0 * math.log10(pressure_pa / reference_pa)


def spl_to_pressure(spl_db: float, reference_pa: float = P_REF_WATER) -> float:
    """Convert SPL in dB re ``reference_pa`` to RMS pressure in Pa.

    >>> round(spl_to_pressure(120.0), 9)  # 120 dB re 1 uPa is 1 Pa
    1.0
    >>> round(spl_to_pressure(140.0), 6)  # the paper's attack level
    10.0
    """
    if not (reference_pa > 0.0):  # rejects NaN as well as <= 0
        raise UnitError(f"reference pressure must be positive: {reference_pa}")
    return reference_pa * 10.0 ** (spl_db / 20.0)
