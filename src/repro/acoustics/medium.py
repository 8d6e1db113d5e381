"""Acoustic media: water columns, air, and the nitrogen fill gas.

A medium is characterised by its density and sound speed.  Water
conditions (temperature, salinity, depth, pH) drive the sound speed and
absorption models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.errors import UnitError

__all__ = ["WaterConditions", "Medium", "FRESH_WATER", "SEA_WATER", "AIR", "NITROGEN"]


@dataclass(frozen=True)
class WaterConditions:
    """Environmental parameters of a water column.

    Attributes:
        temperature_c: water temperature in Celsius.
        salinity_ppt: salinity in parts per thousand (0 for fresh water,
            ~35 for open ocean).
        depth_m: depth of the acoustic path below the surface, metres.
        ph: acidity, relevant to the boric-acid absorption term.
    """

    temperature_c: float = 20.0
    salinity_ppt: float = 0.0
    depth_m: float = 0.5
    ph: float = 7.7

    def __post_init__(self) -> None:
        if not -4.0 <= self.temperature_c <= 60.0:
            raise UnitError(f"unsupported water temperature: {self.temperature_c} C")
        if not 0.0 <= self.salinity_ppt <= 45.0:
            raise UnitError(f"unsupported salinity: {self.salinity_ppt} ppt")
        if self.depth_m < 0.0:
            raise UnitError(f"depth must be non-negative: {self.depth_m}")
        if not 6.0 <= self.ph <= 9.0:
            raise UnitError(f"unsupported pH: {self.ph}")

    @staticmethod
    def tank() -> "WaterConditions":
        """The paper's laboratory tank: fresh water at room temperature."""
        return WaterConditions(temperature_c=21.0, salinity_ppt=0.0, depth_m=0.3)

    @staticmethod
    def baltic_50m() -> "WaterConditions":
        """Baltic Sea at 50 m, used for the paper's attenuation example."""
        return WaterConditions(temperature_c=6.0, salinity_ppt=8.0, depth_m=50.0, ph=7.9)

    @staticmethod
    def natick_site() -> "WaterConditions":
        """Conditions near Microsoft's ~36 m Project Natick deployment."""
        return WaterConditions(temperature_c=10.0, salinity_ppt=35.0, depth_m=36.0, ph=8.0)


@dataclass(frozen=True)
class Medium:
    """A homogeneous acoustic medium.

    Attributes:
        name: human-readable label.
        density: kg/m^3.
        sound_speed: m/s.
        conditions: for water media, the environmental parameters the
            density/speed were derived from; None for gases.
    """

    name: str
    density: float
    sound_speed: float
    conditions: "WaterConditions | None" = field(default=None)

    def __post_init__(self) -> None:
        if self.density <= 0.0:
            raise UnitError(f"density must be positive: {self.density}")
        if self.sound_speed <= 0.0:
            raise UnitError(f"sound speed must be positive: {self.sound_speed}")

    @staticmethod
    def water(conditions: WaterConditions) -> "Medium":
        """Build a water medium whose sound speed follows Medwin (1975)."""
        from .sound_speed import sound_speed_medwin

        speed = sound_speed_medwin(
            conditions.temperature_c, conditions.salinity_ppt, conditions.depth_m
        )
        # Density rises roughly 0.8 kg/m^3 per ppt of salinity.
        density = units.DENSITY_FRESH_WATER + 0.8 * conditions.salinity_ppt
        name = "sea water" if conditions.salinity_ppt > 0.5 else "fresh water"
        return Medium(name=name, density=density, sound_speed=speed, conditions=conditions)


#: Fresh water at the tank conditions used in the paper's experiments.
FRESH_WATER = Medium.water(WaterConditions.tank())

#: Open-ocean sea water (35 ppt) at a Natick-like site.
SEA_WATER = Medium.water(WaterConditions.natick_site())

#: Room air.
AIR = Medium("air", units.DENSITY_AIR, units.SOUND_SPEED_AIR)

#: The nitrogen atmosphere inside a sealed subsea data-center vessel.
NITROGEN = Medium("nitrogen", units.DENSITY_NITROGEN, units.SOUND_SPEED_NITROGEN)
