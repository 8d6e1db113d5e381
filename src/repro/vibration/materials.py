"""Structural materials for containers, racks, and defenses.

Each material carries the properties needed by the panel-transmission
model: density, Young's modulus, Poisson ratio, and a structural loss
factor (internal damping).  The library ships the two container
materials of the paper's case study (hard plastic and aluminum) plus
materials discussed in Section 5 (steel data-center vessels, acoustic
damping polymers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnitError

__all__ = [
    "Material",
    "HARD_PLASTIC",
    "ACRYLIC",
    "ALUMINUM",
    "STEEL",
    "TITANIUM",
    "DAMPING_POLYMER",
]


@dataclass(frozen=True)
class Material:
    """An isotropic structural material.

    Attributes:
        name: label used in reports.
        density: kg/m^3.
        youngs_modulus: Pa.
        poisson_ratio: dimensionless, in (0, 0.5).
        loss_factor: structural damping loss factor eta (dimensionless).
    """

    name: str
    density: float
    youngs_modulus: float
    poisson_ratio: float = 0.33
    loss_factor: float = 0.01

    def __post_init__(self) -> None:
        if self.density <= 0.0:
            raise UnitError(f"density must be positive: {self.density}")
        if self.youngs_modulus <= 0.0:
            raise UnitError(f"Young's modulus must be positive: {self.youngs_modulus}")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise UnitError(f"Poisson ratio must be in (0, 0.5): {self.poisson_ratio}")
        if not 0.0 < self.loss_factor < 1.0:
            raise UnitError(f"loss factor must be in (0, 1): {self.loss_factor}")

    def surface_density(self, thickness_m: float) -> float:
        """Mass per unit area of a panel of this material, kg/m^2."""
        if thickness_m <= 0.0:
            raise UnitError(f"thickness must be positive: {thickness_m}")
        return self.density * thickness_m

    def bending_stiffness(self, thickness_m: float) -> float:
        """Flexural rigidity ``D = E h^3 / (12 (1 - nu^2))`` in N*m."""
        if thickness_m <= 0.0:
            raise UnitError(f"thickness must be positive: {thickness_m}")
        h3 = thickness_m ** 3
        return self.youngs_modulus * h3 / (12.0 * (1.0 - self.poisson_ratio ** 2))


#: Hard polypropylene-like plastic (the paper's plastic container).
HARD_PLASTIC = Material(
    "hard plastic", density=905.0, youngs_modulus=1.5e9, poisson_ratio=0.42, loss_factor=0.05
)

#: Acrylic (PMMA), a common watertight enclosure material.
ACRYLIC = Material(
    "acrylic", density=1180.0, youngs_modulus=3.2e9, poisson_ratio=0.37, loss_factor=0.04
)

#: Aluminum (the paper's metal container).
ALUMINUM = Material(
    "aluminum", density=2700.0, youngs_modulus=69e9, poisson_ratio=0.33, loss_factor=0.004
)

#: Structural steel (Natick-style pressure vessels).
STEEL = Material(
    "steel", density=7850.0, youngs_modulus=200e9, poisson_ratio=0.30, loss_factor=0.002
)

#: Titanium, used in deep-sea housings.
TITANIUM = Material(
    "titanium", density=4500.0, youngs_modulus=114e9, poisson_ratio=0.34, loss_factor=0.003
)

#: Viscoelastic damping polymer (Section 5 defense material).
DAMPING_POLYMER = Material(
    "damping polymer", density=1100.0, youngs_modulus=0.02e9, poisson_ratio=0.45, loss_factor=0.4
)
