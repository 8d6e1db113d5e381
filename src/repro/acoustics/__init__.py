"""Underwater acoustics substrate.

Implements the physics that Section 2.2 of the paper relies on: acoustic
media, sound speed in water (Medwin's equation), frequency-dependent
absorption (Fisher & Simmons 1977; Ainslie & McColm 1998 as used by
van Moll et al. 2009), sound pressure level algebra including the
air-to-water +26 dB reference shift, signal generation, speaker and
amplifier models, and propagation loss in open water and in the test
tank.
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
        "sound_speed": (
            "sound_speed_medwin",
            "sound_speed_mackenzie",
            "sound_speed_leroy",
        ),
        "absorption": ("absorption_fisher_simmons", "absorption_ainslie_mccolm"),
        "spl": (
            "pressure_to_spl",
            "spl_to_pressure",
            "spl_air_to_water",
            "spl_water_to_air",
            "spl_sum",
        ),
        "signals": (
            "Signal",
            "SineTone",
            "FrequencySweep",
            "CompositeSignal",
            "Silence",
        ),
        "source": ("UnderwaterSpeaker", "Amplifier", "SignalChain"),
        "propagation": ("PropagationModel", "TankModel", "spherical_spreading_db"),
        "ambient": ("AmbientNoise",),
    },
)
