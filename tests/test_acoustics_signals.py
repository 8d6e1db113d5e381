"""Signal generation, sources, and propagation."""

import math

import pytest

from repro.acoustics.propagation import PropagationModel, TankModel, spherical_spreading_db
from repro.acoustics.medium import WaterConditions
from repro.acoustics.signals import SineTone, sweep_plan
from repro.acoustics.source import Amplifier, SignalChain, UnderwaterSpeaker
from repro.errors import UnitError


class TestSineTone:
    def test_constant_frequency(self):
        tone = SineTone(650.0)
        assert tone.frequency_at(0.0) == 650.0
        assert tone.frequency_at(100.0) == 650.0

    def test_envelope_inside_duration(self):
        tone = SineTone(650.0, duration=2.0)
        assert tone.envelope_at(1.0) == 1.0
        assert tone.envelope_at(3.0) == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(UnitError):
            SineTone(0.0)
        with pytest.raises(UnitError):
            SineTone(100.0, amplitude=1.5)


class TestSweepPlan:
    def test_coarse_only(self):
        freqs = sweep_plan(100.0, 500.0, coarse_step_hz=100.0)
        assert freqs == [100.0, 200.0, 300.0, 400.0, 500.0]

    def test_fine_band_narrows_step(self):
        freqs = sweep_plan(
            100.0, 600.0, coarse_step_hz=200.0, fine_step_hz=50.0, fine_bands=[(300.0, 400.0)]
        )
        assert 350.0 in freqs
        assert 150.0 not in freqs

    def test_mirrors_paper_sweep_boundaries(self):
        freqs = sweep_plan(100.0, 16_900.0, coarse_step_hz=400.0)
        assert freqs[0] == 100.0
        assert freqs[-1] <= 16_900.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(UnitError):
            sweep_plan(500.0, 100.0)


class TestSourceChain:
    def test_full_drive_hits_140db_at_midband(self):
        chain = SignalChain(signal=SineTone(650.0))
        assert chain.source_level_db(0.0) == pytest.approx(140.0, abs=0.2)

    def test_band_edges_droop(self):
        speaker = UnderwaterSpeaker()
        assert speaker.band_response_db(20.0) == pytest.approx(-3.01, abs=0.1)
        assert speaker.band_response_db(17_000.0) == pytest.approx(-3.01, abs=0.1)
        assert speaker.band_response_db(650.0) == pytest.approx(0.0, abs=0.05)

    def test_amplifier_gain_scales_output(self):
        amp = Amplifier(gain=0.5)
        assert amp.output_vrms(1.0) == pytest.approx(15.5)

    def test_silence_emits_negative_infinity(self):
        chain = SignalChain(signal=SineTone(650.0, duration=1.0))
        assert chain.source_level_db(5.0) == -math.inf


class TestPropagation:
    def test_spreading_is_6db_per_doubling(self):
        assert spherical_spreading_db(0.02, 0.01) == pytest.approx(6.02, abs=0.01)
        assert spherical_spreading_db(0.04, 0.01) == pytest.approx(12.04, abs=0.01)

    def test_no_loss_inside_reference(self):
        assert spherical_spreading_db(0.005, 0.01) == 0.0

    def test_received_level_monotone_in_distance(self):
        model = PropagationModel(conditions=WaterConditions.tank())
        levels = [model.received_level_db(140.0, d, 650.0) for d in (0.01, 0.05, 0.10, 0.25)]
        assert levels == sorted(levels, reverse=True)

    def test_tank_reverberation_floor(self):
        tank = TankModel(conditions=WaterConditions.tank())
        direct_only = PropagationModel(conditions=WaterConditions.tank())
        # Far from the source the tank's reverberant floor dominates.
        assert tank.received_level_db(140.0, 1.0, 650.0) > direct_only.received_level_db(
            140.0, 1.0, 650.0
        )

    def test_tank_rejects_distances_beyond_walls(self):
        tank = TankModel(conditions=WaterConditions.tank())
        with pytest.raises(UnitError):
            tank.received_level_db(140.0, 5.0, 650.0)
