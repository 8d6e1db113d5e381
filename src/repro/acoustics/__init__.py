"""Underwater acoustics substrate.

Implements the physics that Section 2.2 of the paper relies on: acoustic
media, sound speed in water (Medwin's equation), frequency-dependent
absorption (Fisher & Simmons 1977; Ainslie & McColm 1998 as used by
van Moll et al. 2009), sound pressure level algebra including the
air-to-water +26 dB reference shift, signal generation, speaker and
amplifier models, and propagation loss in open water and in the test
tank.
"""

from .medium import AIR, FRESH_WATER, NITROGEN, SEA_WATER, Medium, WaterConditions
from .sound_speed import sound_speed_leroy, sound_speed_mackenzie, sound_speed_medwin
from .absorption import absorption_ainslie_mccolm, absorption_fisher_simmons
from .spl import (
    pressure_to_spl,
    spl_air_to_water,
    spl_sum,
    spl_to_pressure,
    spl_water_to_air,
)
from .signals import CompositeSignal, FrequencySweep, Silence, SineTone, Signal
from .source import Amplifier, SignalChain, UnderwaterSpeaker
from .propagation import PropagationModel, TankModel, spherical_spreading_db
from .ambient import AmbientNoise

__all__ = [
    "AIR",
    "FRESH_WATER",
    "NITROGEN",
    "SEA_WATER",
    "Medium",
    "WaterConditions",
    "sound_speed_medwin",
    "sound_speed_mackenzie",
    "sound_speed_leroy",
    "absorption_fisher_simmons",
    "absorption_ainslie_mccolm",
    "pressure_to_spl",
    "spl_to_pressure",
    "spl_air_to_water",
    "spl_water_to_air",
    "spl_sum",
    "Signal",
    "SineTone",
    "FrequencySweep",
    "CompositeSignal",
    "Silence",
    "UnderwaterSpeaker",
    "Amplifier",
    "SignalChain",
    "PropagationModel",
    "TankModel",
    "spherical_spreading_db",
    "AmbientNoise",
]
