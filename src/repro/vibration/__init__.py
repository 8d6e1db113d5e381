"""Structure-borne vibration substrate.

Models how an underwater pressure wave arriving at the container wall
becomes mechanical vibration at the victim HDD: material properties,
forced-panel wall response, impedance-mismatch transmission, mount
(rack/tower) coupling, and the modal response of the head-stack
assembly.  These are the mechanisms the paper identifies ("acoustic
waves induce mechanical vibrations in the HDD and container structure;
these vibrations jostle the HDD's internal components").
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "materials": (
            "Material",
            "HARD_PLASTIC",
            "ALUMINUM",
            "STEEL",
            "ACRYLIC",
            "TITANIUM",
        ),
        "transmission": (
            "PanelWall",
            "intensity_transmission_coefficient",
            "pressure_transmission_coefficient",
            "mass_law_tl_db",
        ),
        "modes": ("VibrationMode", "ModalResponse"),
        "enclosure": ("Enclosure",),
        "mount": ("Mount", "DirectPlacement", "StorageTower"),
    },
)
