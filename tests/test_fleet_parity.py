"""Rack surfaces, per-bay probabilities and pool transport of fleet rows.

The rack contract mirrors :mod:`tests.test_vecphys`: *exact* equality,
never approximate.  ``DriveRack.sweep_surface`` (the batched
:func:`repro.vecphys.fleet_surface`) must reproduce the per-bay scalar
reference loop, run with every hot-path optimization off, float for
float across bay counts, wall materials, and water conditions; and fleet
rows must cross the pool boundary bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.acoustics.medium import WaterConditions
from repro.core.attack import SweepPoint
from repro.core.attacker import AttackConfig
from repro.core.environment import UnderwaterEnvironment
from repro.core.fleet import DriveRack, RackOutcome
from repro.errors import ConfigurationError
from repro.hdd.profiles import make_laptop_profile
from repro.runtime.runner import SweepRunner

GRID = [float(f) for f in range(100, 2100, 100)]

ENVIRONMENTS = {
    "tank": UnderwaterEnvironment.tank(),
    "baltic": UnderwaterEnvironment.open_water(WaterConditions.baltic_50m()),
    "natick": UnderwaterEnvironment.open_water(WaterConditions.natick_site()),
}

#: 300 Hz at 3 cm grazes the rack: bay 0 sits at p(write) ~ 0.99985 —
#: measurably degraded, not stalled (see TestHealthyBays).
GRAZING = AttackConfig(frequency_hz=300.0, source_level_db=140.0, distance_m=0.03)


def _scalar_reference(bays, metal, environment, config, frequencies=GRID):
    """Everything the scalar chain says about one rack under one attack.

    Swept with the per-bay reference loop instead of the batched
    surface.
    """
    rack = DriveRack(bays=bays, metal=metal, environment=environment)
    vibrations = {
        slot.bay: slot.coupling.vibration_at_drive(config) for slot in rack.slots
    }
    rack.apply_attack(config)
    base = config if config is not None else AttackConfig()
    return {
        "vibrations": vibrations,
        "p_write": rack.write_success_probabilities(),
        "p_read": rack.read_success_probabilities(),
        "stalled": rack.stalled_bays(),
        "healthy": rack.healthy_bays(),
        "surface": rack._sweep_surface_scalar(base, list(frequencies)),
    }


def _dump(surface) -> str:
    return json.dumps(surface, sort_keys=True)


class TestRackParity:
    """Rack evaluation == per-bay scalar chain, exactly."""

    @pytest.mark.parametrize("bays", [1, 2, 3, 4, 5])
    def test_rack_attack_matches_scalar_per_bay(self, bays):
        config = AttackConfig.paper_best()
        reference = _scalar_reference(bays, False, None, config)
        rack = DriveRack(bays=bays)
        vibrations = rack.apply_attack(config)
        assert vibrations == reference["vibrations"]
        assert rack.write_success_probabilities() == reference["p_write"]
        assert rack.read_success_probabilities() == reference["p_read"]
        assert rack.stalled_bays() == reference["stalled"]
        assert rack.healthy_bays() == reference["healthy"]

    @pytest.mark.parametrize("metal", [False, True])
    @pytest.mark.parametrize("env_name", sorted(ENVIRONMENTS))
    def test_parity_across_walls_and_waters(self, metal, env_name):
        environment = ENVIRONMENTS[env_name]
        config = GRAZING
        for bays in (1, 3, 5):
            reference = _scalar_reference(bays, metal, environment, config)
            rack = DriveRack(bays=bays, metal=metal, environment=environment)
            assert rack.apply_attack(config) == reference["vibrations"]
            assert rack.write_success_probabilities() == reference["p_write"]
            assert rack.read_success_probabilities() == reference["p_read"]
            assert _dump(rack.sweep_surface(GRID, config)) == _dump(reference["surface"])

    def test_silence_and_park_behaviour_unchanged(self):
        rack = DriveRack(bays=2)
        rack.apply_attack(AttackConfig.paper_best())
        assert rack.stalled_bays() == [0, 1]
        vibrations = rack.apply_attack(None)
        assert all(v.displacement_m == 0.0 for v in vibrations.values())
        assert rack.write_success_probabilities() == {0: 1.0, 1: 1.0}


class TestHeterogeneousFallback:
    """Racks the batched surface cannot share a stage for take the scalar loop."""

    def test_mixed_servo_rack_uses_scalar_loop(self):
        rack = DriveRack(bays=2)
        rack.slots[1].drive.profile = make_laptop_profile()
        assert rack._shared_servo() is None
        surface = rack.sweep_surface(GRID, GRAZING)
        assert _dump(surface) == _dump(
            rack._sweep_surface_scalar(GRAZING, list(GRID))
        )

    def test_mixed_wall_rack_uses_scalar_loop(self):
        rack = DriveRack(bays=2)
        metal = DriveRack(bays=2, metal=True)
        rack.slots[1].coupling = metal.slots[1].coupling
        surface = rack.sweep_surface(GRID, GRAZING)
        assert _dump(surface) == _dump(
            rack._sweep_surface_scalar(GRAZING, list(GRID))
        )
        assert surface["bays"][0] != surface["bays"][1]


class TestHealthyBays:
    """The exact-health default and the threshold escape hatch."""

    def test_degraded_bay_is_not_healthy_by_default(self):
        rack = DriveRack(bays=5)
        rack.apply_attack(GRAZING)
        probabilities = rack.write_success_probabilities()
        assert 0.999 < probabilities[0] < 1.0
        assert 0 not in rack.healthy_bays()
        assert rack.stalled_bays() == []

    def test_threshold_admits_grazing_degradation(self):
        rack = DriveRack(bays=5)
        rack.apply_attack(GRAZING)
        assert rack.healthy_bays() == []
        assert rack.healthy_bays(threshold=0.999) == [0]
        assert rack.healthy_bays(threshold=0.97) == [0, 1, 2, 3, 4]

    def test_quiet_rack_is_exactly_healthy(self):
        rack = DriveRack(bays=3)
        assert rack.healthy_bays() == [0, 1, 2]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.0001, 2.0])
    def test_threshold_validation(self, threshold):
        rack = DriveRack(bays=2)
        with pytest.raises(ConfigurationError):
            rack.healthy_bays(threshold=threshold)


def _rack_row(spec) -> RackOutcome:
    rack, f = spec
    return RackOutcome(
        rack=rack,
        towers=2,
        drives=10,
        ops_ok=int(f),
        ops_degraded=rack,
        ops_error=3,
        downtime_s=f * 1e-3,
        degraded_s=f / 7.0,
        groups_degraded=1,
        groups_offline=0,
        rebuilds=rack,
        stalled_bays_peak=2,
        p_write_min=f * 1e-4,
        latency_sum_s=f / 3.0,
        latency_max_s=0.075,
        events=2 * int(f),
    )


def _sweep_row(f) -> SweepPoint:
    return SweepPoint(frequency_hz=f, write_mbps=f / 10.0, read_mbps=f / 5.0)


class TestTransport:
    """Fleet and sweep rows cross the pool boundary bit for bit.

    A pooled ``fleet`` campaign returns one :class:`RackOutcome` per
    rack; a pooled ``figure2`` one :class:`SweepPoint` per frequency.
    """

    def test_round_trip_both_hot_row_types(self):
        rack_specs = [(r, float(f)) for r in (0, 1) for f in (100, 650)]
        sweep_specs = [float(f) for f in (100, 650, 2000)]
        for fn, specs in ((_rack_row, rack_specs), (_sweep_row, sweep_specs)):
            pooled = SweepRunner(workers=2).map(fn, specs)
            assert pooled == [fn(spec) for spec in specs]

    def test_pooled_map_matches_inline_bit_for_bit(self):
        specs = [(rack, float(f)) for rack in (0, 1, 2) for f in (100, 650, 2000)]
        inline = SweepRunner(workers=1).map(_rack_row, specs)
        pooled = SweepRunner(workers=2).map(_rack_row, specs)
        assert pooled == inline
        assert all(isinstance(row, RackOutcome) for row in pooled)
