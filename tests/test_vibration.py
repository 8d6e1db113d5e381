"""Materials, wall transmission, modes, enclosures, mounts."""

import math

import pytest

from repro.errors import ConfigurationError, UnitError
from repro.vibration.enclosure import Enclosure
from repro.vibration.materials import ALUMINUM, DAMPING_POLYMER, HARD_PLASTIC, Material
from repro.vibration.modes import ModalResponse, VibrationMode
from repro.vibration.mount import DirectPlacement, Mount, StorageTower
from repro.vibration.transmission import PanelWall


class TestMaterials:
    def test_surface_density(self):
        assert ALUMINUM.surface_density(0.003) == pytest.approx(8.1)

    def test_bending_stiffness_grows_cubically(self):
        thin = HARD_PLASTIC.bending_stiffness(0.002)
        thick = HARD_PLASTIC.bending_stiffness(0.004)
        assert thick == pytest.approx(8.0 * thin)

    def test_aluminum_much_stiffer_than_plastic(self):
        assert ALUMINUM.youngs_modulus > 20 * HARD_PLASTIC.youngs_modulus

    def test_damping_polymer_is_lossy(self):
        assert DAMPING_POLYMER.loss_factor > 5 * HARD_PLASTIC.loss_factor

    def test_validation(self):
        with pytest.raises(UnitError):
            Material("bad", -1.0, 1e9)
        with pytest.raises(UnitError):
            Material("bad", 1000.0, 1e9, poisson_ratio=0.7)


class TestPanelWall:
    def test_water_loading_dominates_effective_mass(self):
        wall = PanelWall(material=HARD_PLASTIC, thickness_m=0.004)
        assert wall.added_mass > 10 * wall.surface_density

    def test_water_loading_lowers_fundamental(self):
        wall = PanelWall(material=HARD_PLASTIC, thickness_m=0.004)
        dry = PanelWall(
            material=HARD_PLASTIC, thickness_m=0.004, fluid_density=1e-6, fluid_impedance=413.0
        )
        assert wall.fundamental_frequency_hz < dry.fundamental_frequency_hz

    def test_displacement_falls_mass_controlled_above_resonance(self):
        wall = PanelWall(material=HARD_PLASTIC, thickness_m=0.004)
        d650 = wall.displacement_per_pascal(650.0)
        d1300 = wall.displacement_per_pascal(1300.0)
        # ~12 dB/octave: one octave up, ~4x less displacement.
        assert d650 / d1300 == pytest.approx(4.0, rel=0.2)

class TestModes:
    def test_mode_peaks_at_resonance(self):
        mode = ModalResponse([VibrationMode(frequency_hz=500.0, damping_ratio=0.1)])
        assert mode.response(500.0) > mode.response(250.0)
        assert mode.response(500.0) > mode.response(1000.0)

    def test_modal_sum_in_quadrature(self):
        response = ModalResponse(
            [VibrationMode(500.0, 0.2, 1.0), VibrationMode(500.0, 0.2, 1.0)]
        )
        single = ModalResponse([VibrationMode(500.0, 0.2, 1.0)]).response(500.0)
        assert response.response(500.0) == pytest.approx(single * math.sqrt(2.0))

    def test_empty_modal_response_rejected(self):
        with pytest.raises(ConfigurationError):
            ModalResponse([])

    def test_mode_validation(self):
        with pytest.raises(UnitError):
            VibrationMode(0.0)
        with pytest.raises(UnitError):
            VibrationMode(100.0, damping_ratio=1.5)


class TestEnclosure:
    def test_factories_use_paper_materials(self):
        assert Enclosure.hard_plastic().material is HARD_PLASTIC
        assert Enclosure.aluminum().material is ALUMINUM

    def test_stiffness_rolloff_attenuates_high_frequencies(self):
        enclosure = Enclosure.aluminum()
        plain = enclosure.frame_displacement_per_pascal(2000.0)
        enclosure.stiffness_rolloff_hz = 700.0
        rolled = enclosure.frame_displacement_per_pascal(2000.0)
        assert rolled < plain / 5

    def test_structural_gain_scales_linearly(self):
        enclosure = Enclosure.hard_plastic()
        base = enclosure.frame_displacement_per_pascal(650.0)
        enclosure.structural_gain = 2.0
        assert enclosure.frame_displacement_per_pascal(650.0) == pytest.approx(2 * base)

    def test_bad_rolloff_rejected(self):
        from repro.vibration.transmission import PanelWall

        with pytest.raises(UnitError):
            Enclosure(
                name="bad",
                wall=PanelWall(material=HARD_PLASTIC, thickness_m=0.004),
                stiffness_rolloff_hz=-1.0,
            )


class TestMounts:
    def test_direct_placement_near_unity_coupling(self):
        mount = DirectPlacement()
        assert 0.5 < mount.transmissibility(300.0) < 2.0

    def test_tower_amplifies_near_its_modes(self):
        tower = StorageTower(bay=1)
        assert tower.transmissibility(480.0) > tower.transmissibility(3000.0)

    def test_higher_bays_couple_more(self):
        low = StorageTower(bay=0)
        high = StorageTower(bay=4)
        assert high.transmissibility(650.0) > low.transmissibility(650.0)

    def test_bay_bounds(self):
        with pytest.raises(UnitError):
            StorageTower(bay=5)

    def test_plain_mount_without_modes_is_flat(self):
        mount = Mount(base_gain=1.5)
        assert mount.transmissibility(100.0) == 1.5
        assert mount.transmissibility(5000.0) == 1.5
