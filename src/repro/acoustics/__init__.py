"""Underwater acoustics substrate.

Implements the physics that Section 2.2 of the paper relies on: acoustic
media, sound speed in water (Medwin's equation), frequency-dependent
absorption (Ainslie & McColm 1998 as used by van Moll et al. 2009),
sound pressure level algebra including the air-to-water +26 dB
reference shift, the attack tone, speaker and amplifier models, and
propagation loss in open water and in the test tank.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "medium": (
            "AIR",
            "FRESH_WATER",
            "NITROGEN",
            "SEA_WATER",
            "Medium",
            "WaterConditions",
        ),
        "sound_speed": ("sound_speed_medwin",),
        "absorption": ("absorption_ainslie_mccolm",),
        "spl": ("pressure_to_spl", "spl_to_pressure"),
        "signals": ("SineTone",),
        "source": ("UnderwaterSpeaker", "Amplifier", "SignalChain"),
        "propagation": ("PropagationModel", "TankModel", "spherical_spreading_db"),
        "ambient": ("AmbientNoise",),
    },
)
