"""Media, sound speed, absorption, and SPL algebra."""

import pytest

from repro.acoustics.absorption import absorption_ainslie_mccolm, absorption_for_conditions
from repro.acoustics.medium import AIR, FRESH_WATER, SEA_WATER, WaterConditions
from repro.acoustics.sound_speed import sound_speed_medwin
from repro.acoustics.spl import (
    AIR_WATER_REFERENCE_SHIFT_DB,
    pressure_to_spl,
    spl_to_pressure,
)
from repro.errors import UnitError
from repro.units import P_REF_AIR


class TestMedium:
    def test_water_is_much_denser_than_air(self):
        assert FRESH_WATER.density > 800 * AIR.density

    def test_sea_water_denser_and_faster_than_fresh(self):
        assert SEA_WATER.density > FRESH_WATER.density
        assert SEA_WATER.sound_speed != FRESH_WATER.sound_speed

    def test_conditions_validation(self):
        with pytest.raises(UnitError):
            WaterConditions(temperature_c=99.0)
        with pytest.raises(UnitError):
            WaterConditions(salinity_ppt=80.0)
        with pytest.raises(UnitError):
            WaterConditions(depth_m=-5.0)


class TestSoundSpeed:
    def test_medwin_fresh_water_room_temp(self):
        # ~1481-1486 m/s around 20-21 C in fresh water.
        speed = sound_speed_medwin(21.0, 0.0, 0.3)
        assert 1430 < speed < 1500

    def test_temperature_raises_speed(self):
        # Section 5: "As temperature increases, sound speed increases".
        assert sound_speed_medwin(25.0) > sound_speed_medwin(10.0)

    def test_salinity_raises_speed(self):
        assert sound_speed_medwin(15.0, 35.0) > sound_speed_medwin(15.0, 0.0)

    def test_depth_raises_speed(self):
        assert sound_speed_medwin(10.0, 35.0, 1000.0) > sound_speed_medwin(10.0, 35.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(UnitError):
            sound_speed_medwin(100.0)
        with pytest.raises(UnitError):
            sound_speed_medwin(10.0, salinity_ppt=-1.0)


class TestAbsorption:
    def test_rises_with_frequency(self):
        low = absorption_ainslie_mccolm(500.0)
        high = absorption_ainslie_mccolm(50_000.0)
        assert high > low * 10

    def test_baltic_example_order_of_magnitude(self):
        # The paper cites ~0.038 dB/km for 500 Hz at 50 m in the Baltic
        # (van Moll et al.); our implementation should land in that
        # regime (tens of milli-dB per km).
        alpha = absorption_ainslie_mccolm(
            500.0, temperature_c=6.0, salinity_ppt=8.0, depth_m=50.0, ph=7.9
        )
        assert 0.005 < alpha < 0.12

    def test_fresh_water_lacks_chemical_relaxation(self):
        fresh = absorption_for_conditions(1000.0, WaterConditions.tank())
        sea = absorption_for_conditions(1000.0, WaterConditions.natick_site())
        assert fresh < sea / 10

    def test_negligible_over_tank_distances(self):
        # 25 cm of water absorbs practically nothing at 650 Hz.
        alpha = absorption_for_conditions(650.0, WaterConditions.tank())
        assert alpha * 0.25e-3 < 1e-5  # dB over 25 cm

    def test_rejects_bad_frequency(self):
        with pytest.raises(UnitError):
            absorption_ainslie_mccolm(0.0)


class TestSPL:
    def test_reference_shift_is_26db(self):
        assert AIR_WATER_REFERENCE_SHIFT_DB == pytest.approx(26.02, abs=0.01)

    def test_air_to_water_adds_26db(self):
        # Section 2.2: a ~114 dB in-air level is the 140 dB underwater one.
        assert 114.0 + AIR_WATER_REFERENCE_SHIFT_DB == pytest.approx(140.02, abs=0.01)

    def test_140db_re_1upa_is_10pa_rms(self):
        assert spl_to_pressure(140.0) == pytest.approx(10.0)

    def test_pressure_to_spl_roundtrip(self):
        for level in (60.0, 100.0, 140.0, 220.0):
            assert pressure_to_spl(spl_to_pressure(level)) == pytest.approx(level)

    def test_same_pressure_different_references(self):
        pressure = 1.0  # Pa
        in_water = pressure_to_spl(pressure)
        in_air = pressure_to_spl(pressure, reference_pa=P_REF_AIR)
        assert in_water - in_air == pytest.approx(AIR_WATER_REFERENCE_SHIFT_DB)

    def test_pressure_must_be_positive(self):
        with pytest.raises(UnitError):
            pressure_to_spl(0.0)
