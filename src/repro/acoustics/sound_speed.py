"""Speed of sound in water.

The paper's Section 5 discusses how temperature, salinity, and depth all
raise the speed of sound and hence can change the attack range.
:func:`sound_speed_medwin` implements Medwin (1975), the "simple
equation for realistic parameters" the paper cites ([30]), in metres per
second.
"""

from __future__ import annotations

from repro.errors import UnitError

__all__ = ["sound_speed_medwin"]


def _validate(temperature_c: float, salinity_ppt: float, depth_m: float) -> None:
    if not -4.0 <= temperature_c <= 60.0:
        raise UnitError(f"temperature out of range: {temperature_c} C")
    if not 0.0 <= salinity_ppt <= 45.0:
        raise UnitError(f"salinity out of range: {salinity_ppt} ppt")
    if not 0.0 <= depth_m <= 11_000.0:
        raise UnitError(f"depth out of range: {depth_m} m")


def sound_speed_medwin(
    temperature_c: float, salinity_ppt: float = 0.0, depth_m: float = 0.0
) -> float:
    """Medwin (1975) sound speed, valid for 0-35 C, 0-45 ppt, 0-1000 m.

    c = 1449.2 + 4.6 T - 0.055 T^2 + 0.00029 T^3
        + (1.34 - 0.010 T)(S - 35) + 0.016 z
    """
    _validate(temperature_c, salinity_ppt, depth_m)
    t = temperature_c
    return (
        1449.2
        + 4.6 * t
        - 0.055 * t * t
        + 0.00029 * t * t * t
        + (1.34 - 0.010 * t) * (salinity_ppt - 35.0)
        + 0.016 * depth_m
    )
