"""Wall transmission physics.

Two transmission paths exist from the water into the enclosure:

* the **airborne path** — pressure transmitted through the wall into the
  nitrogen/air fill gas.  The enormous impedance mismatch between water
  (~1.5 MRayl) and gas (~400 Rayl) makes this path weak; the classic
  normal-incidence coefficients quantify it.
* the **structure-borne path** — the wall itself is driven as a forced
  panel; its vibration shakes the mount and the HDD.  This is the path
  the paper identifies as the attack mechanism, modelled here by
  :class:`PanelWall` as a single-degree-of-freedom forced plate with a
  water-loading added mass.

The mass law (:func:`mass_law_tl_db`) is also provided: it shows that in
water thin walls are nearly transparent (``pi f m / Z_water`` is tiny at
audio frequencies), i.e. a submerged container offers far less acoustic
protection than the same wall would in air — one reason the underwater
attack is feasible at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import UnitError

from .materials import Material

__all__ = [
    "intensity_transmission_coefficient",
    "pressure_transmission_coefficient",
    "mass_law_tl_db",
    "PanelWall",
]


def intensity_transmission_coefficient(z1: float, z2: float) -> float:
    """Normal-incidence intensity transmission between impedances z1, z2.

    ``T_I = 4 z1 z2 / (z1 + z2)^2`` — symmetric, in [0, 1].
    """
    if z1 <= 0.0 or z2 <= 0.0:
        raise UnitError("impedances must be positive")
    return 4.0 * z1 * z2 / ((z1 + z2) ** 2)


def pressure_transmission_coefficient(z1: float, z2: float) -> float:
    """Normal-incidence pressure transmission from medium 1 into medium 2.

    ``T_p = 2 z2 / (z1 + z2)`` — can exceed 1 when entering a stiffer
    medium (pressure doubling), while intensity is always conserved.
    """
    if z1 <= 0.0 or z2 <= 0.0:
        raise UnitError("impedances must be positive")
    return 2.0 * z2 / (z1 + z2)


def mass_law_tl_db(frequency_hz: float, surface_density: float, medium_impedance: float) -> float:
    """Normal-incidence mass-law transmission loss of a limp wall, in dB.

    ``TL = 10 log10(1 + (pi f m / Z)^2)``.  In air this is the familiar
    ~6 dB/octave barrier law; in water the same wall gives almost no loss
    because ``Z_water`` is ~3600x larger than ``Z_air``.
    """
    if frequency_hz <= 0.0:
        raise UnitError(f"frequency must be positive: {frequency_hz}")
    if surface_density <= 0.0:
        raise UnitError(f"surface density must be positive: {surface_density}")
    if medium_impedance <= 0.0:
        raise UnitError(f"impedance must be positive: {medium_impedance}")
    x = math.pi * frequency_hz * surface_density / medium_impedance
    return 10.0 * math.log10(1.0 + x * x)


@dataclass
class PanelWall:
    """A container wall driven by an external pressure wave.

    The wall is modelled as its fundamental plate mode: a mass-spring-
    damper with surface density ``m`` (plus water-loading added mass),
    stiffness set by the plate's bending rigidity and span, and damping
    from the material loss factor plus radiation into the water.

    :meth:`displacement_per_pascal` returns the wall displacement
    amplitude (m) per pascal of incident pressure at a given frequency —
    the quantity the mount/HDD chain consumes.

    Attributes:
        material: wall material.
        thickness_m: wall thickness.
        span_m: characteristic panel dimension (smaller wall span).
        fluid_impedance: impedance of the outside fluid (water), used
            for radiation damping.
        fluid_density: density of the outside fluid, for added mass.
    """

    material: Material
    thickness_m: float
    span_m: float = 0.30
    fluid_impedance: float = 1.48e6
    fluid_density: float = 998.0

    def __post_init__(self) -> None:
        if self.thickness_m <= 0.0:
            raise UnitError(f"thickness must be positive: {self.thickness_m}")
        if self.span_m <= 0.0:
            raise UnitError(f"span must be positive: {self.span_m}")

    @property
    def surface_density(self) -> float:
        """Structural mass per unit area, kg/m^2."""
        return self.material.surface_density(self.thickness_m)

    @property
    def added_mass(self) -> float:
        """Water-loading added mass per unit area, kg/m^2.

        For a baffled panel below coincidence the fluid loading is
        approximately ``rho * a / pi`` with ``a`` the panel span.
        """
        return self.fluid_density * self.span_m / math.pi

    @property
    def effective_surface_density(self) -> float:
        """Vibrating mass per unit area including water loading."""
        return self.surface_density + self.added_mass

    @property
    def fundamental_frequency_hz(self) -> float:
        """Fundamental (1,1) mode of the water-loaded simply-supported panel."""
        rigidity = self.material.bending_stiffness(self.thickness_m)
        area_term = 2.0 / (self.span_m ** 2)  # 1/a^2 + 1/b^2 with a = b
        in_vacuo = (math.pi / 2.0) * math.sqrt(rigidity / self.surface_density) * area_term
        # Water loading lowers the mode by sqrt(m / (m + m_added)).
        return in_vacuo * math.sqrt(self.surface_density / self.effective_surface_density)

    def damping_ratio(self, frequency_hz: float) -> float:
        """Total damping ratio: structural loss + radiation into the water."""
        structural = self.material.loss_factor / 2.0
        omega = 2.0 * math.pi * frequency_hz
        radiation = self.fluid_impedance / (2.0 * self.effective_surface_density * omega)
        # Radiation damping is capped: a heavily over-damped panel model
        # would otherwise under-predict transmission at low frequency.
        return structural + min(radiation, 2.0)

    def displacement_per_pascal(self, frequency_hz: float) -> float:
        """Wall displacement amplitude (m/Pa) at ``frequency_hz``.

        SDOF response of the fundamental mode:
        ``X/p = 1 / (m_eff * sqrt((w0^2 - w^2)^2 + (2 zeta w0 w)^2))``.
        Below resonance it is stiffness-controlled, above resonance it
        falls 12 dB/octave (mass-controlled) — which is what closes the
        attack band at high frequency, sooner for the heavier aluminum
        wall than for plastic.
        """
        if not (0.0 < frequency_hz < math.inf):  # also rejects NaN
            raise UnitError(f"frequency must be positive and finite: {frequency_hz}")
        omega = 2.0 * math.pi * frequency_hz
        omega0 = 2.0 * math.pi * self.fundamental_frequency_hz
        zeta = self.damping_ratio(frequency_hz)
        m_eff = self.effective_surface_density
        denom = math.sqrt((omega0 ** 2 - omega ** 2) ** 2 + (2.0 * zeta * omega0 * omega) ** 2)
        if denom <= 0.0:  # exactly on an undamped resonance (zeta == 0 impossible)
            denom = 1e-12
        return 1.0 / (m_eff * denom)

    def velocity_per_pascal(self, frequency_hz: float) -> float:
        """Wall velocity amplitude (m/s per Pa) at ``frequency_hz``."""
        omega = 2.0 * math.pi * frequency_hz
        return omega * self.displacement_per_pascal(frequency_hz)

    def airborne_tl_db(self, frequency_hz: float, gas_impedance: float = 403.0) -> float:
        """Transmission loss of the airborne path into the fill gas, dB.

        Water -> wall (mass law) -> gas impedance mismatch.  This path is
        typically 30+ dB weaker than the structural path and is reported
        for completeness/ablations.
        """
        wall = mass_law_tl_db(frequency_hz, self.surface_density, self.fluid_impedance)
        mismatch = -10.0 * math.log10(
            intensity_transmission_coefficient(self.fluid_impedance, gas_impedance)
        )
        return wall + mismatch
