"""Submerged container (enclosure) models.

The paper submerges the victim HDD in a hard plastic container
(Scenarios 1-2) or an aluminum container (Scenario 3), anchored to the
tank floor.  An :class:`Enclosure` combines a :class:`PanelWall` facing
the sound source with the internal fill gas and exposes the structural
transfer (wall displacement per pascal of incident pressure) that the
mount and drive models chain onto.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.acoustics.medium import AIR, NITROGEN, Medium
from repro.errors import UnitError

from .materials import ALUMINUM, HARD_PLASTIC, Material
from .transmission import PanelWall

__all__ = ["Enclosure"]


@dataclass
class Enclosure:
    """A watertight container housing the victim storage.

    Attributes:
        name: label used in reports.
        wall: the forced-panel model of the wall facing the speaker.
        fill_gas: internal atmosphere (air for the plastic tub, nitrogen
            for a Natick-style vessel).
        interior_span_m: internal size along the sound axis; the paper
            placed the HDD 3 cm behind the wall facing the speaker.
        structural_gain: dimensionless fudge for how well wall motion
            couples into the floor/frame the mount stands on (1.0 =
            perfect rigid coupling).
        stiffness_rolloff_hz: optional first-order corner above which a
            stiff wall shunts progressively less bending motion into
            the frame (used for the aluminum container; None disables).
    """

    name: str
    wall: PanelWall
    fill_gas: Medium = NITROGEN
    interior_span_m: float = 0.25
    structural_gain: float = 1.0
    stiffness_rolloff_hz: "float | None" = None

    def __post_init__(self) -> None:
        if self.interior_span_m <= 0.0:
            raise UnitError(f"interior span must be positive: {self.interior_span_m}")
        if self.structural_gain <= 0.0:
            raise UnitError(f"structural gain must be positive: {self.structural_gain}")
        if self.stiffness_rolloff_hz is not None and self.stiffness_rolloff_hz <= 0.0:
            raise UnitError(
                f"stiffness rolloff must be positive: {self.stiffness_rolloff_hz}"
            )

    @property
    def material(self) -> Material:
        """Wall material."""
        return self.wall.material

    def frame_displacement_per_pascal(self, frequency_hz: float) -> float:
        """Displacement (m/Pa) of the internal frame for incident pressure.

        This is the structure-borne path: wall displacement times the
        wall-to-frame coupling gain, with the optional stiffness
        rolloff applied above its corner.
        """
        displacement = self.structural_gain * self.wall.displacement_per_pascal(
            frequency_hz
        )
        if self.stiffness_rolloff_hz is not None:
            r2 = (frequency_hz / self.stiffness_rolloff_hz) ** 2
            displacement /= 1.0 + r2
        return displacement

    # -- factory methods for the paper's containers -------------------------

    @staticmethod
    def hard_plastic(thickness_m: float = 0.004, span_m: float = 0.30) -> "Enclosure":
        """The paper's hard plastic container (Scenarios 1 and 2)."""
        wall = PanelWall(material=HARD_PLASTIC, thickness_m=thickness_m, span_m=span_m)
        return Enclosure(name="plastic container", wall=wall, fill_gas=AIR)

    @staticmethod
    def aluminum(thickness_m: float = 0.003, span_m: float = 0.30) -> "Enclosure":
        """The paper's aluminum container (Scenario 3)."""
        wall = PanelWall(material=ALUMINUM, thickness_m=thickness_m, span_m=span_m)
        return Enclosure(name="metal container", wall=wall, fill_gas=AIR)
