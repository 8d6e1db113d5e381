"""Attacker, environment, scenarios, coupling, sessions, monitor, defenses."""

import math

import pytest

from repro.core.attack import AttackSession, FrequencySweepResult, SweepPoint
from repro.core.attacker import AcousticAttacker, AttackConfig
from repro.core.calibration import CalibrationConstants, DEFAULT_CALIBRATION
from repro.core.coupling import AttackCoupling
from repro.core.defenses import (
    AbsorbentCoating,
    DefendedScenario,
    FirmwareNotchFilter,
    VibrationIsolators,
    evaluate_defense,
)
from repro.core.environment import UnderwaterEnvironment
from repro.core.monitor import AvailabilityMonitor
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError, ProcessCrashed, UnitError
from repro.hdd.servo import OpKind
from repro.sim.clock import VirtualClock


class TestAttackConfig:
    def test_paper_best(self):
        config = AttackConfig.paper_best()
        assert config.frequency_hz == 650.0
        assert config.source_level_db == 140.0
        assert config.distance_m == 0.01

    def test_with_helpers(self):
        config = AttackConfig.paper_best()
        assert config.at_distance(0.2).distance_m == 0.2
        assert config.at_frequency(1000.0).frequency_hz == 1000.0

    def test_validation(self):
        with pytest.raises(UnitError):
            AttackConfig(frequency_hz=0.0)
        with pytest.raises(UnitError):
            AttackConfig(source_level_db=300.0)


class TestAttacker:
    def test_commercial_rig_caps_at_140db(self):
        attacker = AcousticAttacker.commercial_rig()
        with pytest.raises(ConfigurationError):
            attacker.chain_for(AttackConfig(650.0, 170.0, 0.01))

    def test_emitted_level_matches_request(self):
        attacker = AcousticAttacker.commercial_rig()
        level = attacker.emitted_level_db(AttackConfig(650.0, 130.0, 0.01))
        assert level == pytest.approx(130.0, abs=0.1)

    def test_military_rig_reaches_220db(self):
        attacker = AcousticAttacker.military_rig()
        level = attacker.emitted_level_db(AttackConfig(650.0, 220.0, 0.01))
        assert level == pytest.approx(220.0, abs=1.1)


class TestEnvironment:
    def test_tank_pressure_at_reference(self):
        env = UnderwaterEnvironment.tank()
        pressure = env.pressure_amplitude_pa(140.0, 0.01, 650.0)
        # 140 dB re 1 uPa = 10 Pa RMS = 14.1 Pa amplitude.
        assert pressure == pytest.approx(14.14, rel=0.01)

    def test_pressure_falls_with_distance(self):
        env = UnderwaterEnvironment.tank()
        near = env.pressure_amplitude_pa(140.0, 0.01, 650.0)
        far = env.pressure_amplitude_pa(140.0, 0.10, 650.0)
        assert near / far == pytest.approx(10.0, rel=0.05)

    def test_distance_must_be_positive(self):
        with pytest.raises(UnitError):
            UnderwaterEnvironment.tank().received_level_db(140.0, 0.0, 650.0)


class TestScenarios:
    def test_three_scenarios_match_paper_setup(self):
        one, two, three = Scenario.all_three()
        assert one.enclosure.material.name == "hard plastic"
        assert two.mount.name.startswith("storage tower")
        assert three.enclosure.material.name == "aluminum"
        assert three.enclosure.stiffness_rolloff_hz is not None

    def test_metal_couples_less_at_high_frequency(self):
        plastic = Scenario.scenario_2()
        metal = Scenario.scenario_3()
        at_1500 = (
            metal.chassis_displacement_m(10.0, 1500.0)
            / plastic.chassis_displacement_m(10.0, 1500.0)
        )
        at_400 = (
            metal.chassis_displacement_m(10.0, 400.0)
            / plastic.chassis_displacement_m(10.0, 400.0)
        )
        assert at_1500 < at_400 < 1.0

    def test_zero_pressure_zero_motion(self):
        assert Scenario.scenario_1().chassis_displacement_m(0.0, 650.0) == 0.0

    def test_calibration_validation(self):
        with pytest.raises(ConfigurationError):
            CalibrationConstants(structure_coupling=-1.0)
        with pytest.raises(ConfigurationError):
            CalibrationConstants(metal_coupling_penalty=1.5)


class TestCoupling:
    def test_paper_best_stalls_the_servo(self, coupling):
        ratio = coupling.offtrack_ratio(AttackConfig.paper_best(), OpKind.WRITE)
        servo_limit_ratio = 0.25 / 0.10
        assert ratio > servo_limit_ratio

    def test_low_frequency_is_rejected_by_servo(self, coupling):
        config = AttackConfig(100.0, 140.0, 0.01)
        assert coupling.offtrack_ratio(config, OpKind.WRITE) < 0.5

    def test_high_frequency_rolls_off(self, coupling):
        config = AttackConfig(6000.0, 140.0, 0.01)
        assert coupling.offtrack_ratio(config, OpKind.WRITE) < 0.5

    def test_apply_and_clear(self, coupling, drive):
        coupling.apply(drive, AttackConfig.paper_best())
        assert drive.vibration.displacement_m > 0
        coupling.apply(drive, None)
        assert drive.vibration.displacement_m == 0


class TestAttackSession:
    def test_baseline_matches_paper(self):
        session = AttackSession(fio_runtime_s=0.5)
        base = session.baseline()
        assert base.write_mbps == pytest.approx(22.7, abs=0.4)
        assert base.read_mbps == pytest.approx(18.0, abs=0.4)

    def test_sweep_finds_vulnerable_band(self):
        session = AttackSession(fio_runtime_s=0.3)
        sweep = session.frequency_sweep([200.0, 650.0, 3000.0])
        by_freq = {p.frequency_hz: p for p in sweep.points}
        assert by_freq[650.0].write_mbps < 1.0
        assert by_freq[3000.0].write_mbps > 20.0
        band = sweep.vulnerable_band(0.5, "write")
        assert band == (650.0, 650.0)

    def test_range_test_distance_cliff(self):
        session = AttackSession(fio_runtime_s=0.5)
        result = session.range_test([0.01, 0.25])
        near, far = result.points
        assert not near.write.responded
        assert far.write.throughput_mbps > 20.0
        assert result.max_effective_distance_m() == pytest.approx(0.01)

    def test_sustained_attack_blocks_io(self):
        session = AttackSession(fio_runtime_s=0.5)
        result = session.sustained_attack(AttackConfig.paper_best(), duration_s=1.0)
        assert not result.responded


class TestVulnerableBand:
    @staticmethod
    def _sweep(values_by_freq):
        result = FrequencySweepResult(
            scenario_name="synthetic",
            baseline_write_mbps=20.0,
            baseline_read_mbps=20.0,
        )
        for freq, write in values_by_freq:
            result.points.append(SweepPoint(freq, write, write))
        return result

    def test_disjoint_dips_are_not_bridged(self):
        """Regression: min/max over all hits used to merge two separate
        dips (300-400 and 1500-1700) into one 300-1700 band."""
        sweep = self._sweep(
            [
                (200.0, 20.0),
                (300.0, 1.0),
                (400.0, 1.0),
                (500.0, 20.0),  # recovered: the dips are disjoint
                (1500.0, 1.0),
                (1600.0, 1.0),
                (1700.0, 1.0),
                (1800.0, 20.0),
            ]
        )
        assert sweep.vulnerable_band(0.5, "write") == (1500.0, 1700.0)

    def test_equal_count_prefers_wider_hertz_span(self):
        sweep = self._sweep(
            [(100.0, 1.0), (200.0, 1.0), (900.0, 20.0), (1000.0, 1.0), (1200.0, 1.0)]
        )
        # Both runs have two points; 1000-1200 spans more hertz.
        assert sweep.vulnerable_band(0.5, "write") == (1000.0, 1200.0)

    def test_full_tie_prefers_lower_band(self):
        sweep = self._sweep(
            [(100.0, 1.0), (200.0, 1.0), (900.0, 20.0), (1000.0, 1.0), (1100.0, 1.0)]
        )
        assert sweep.vulnerable_band(0.5, "write") == (100.0, 200.0)

    def test_unsorted_points_are_handled(self):
        sweep = self._sweep([(650.0, 1.0), (300.0, 1.0), (1000.0, 20.0)])
        assert sweep.vulnerable_band(0.5, "write") == (300.0, 650.0)

    def test_no_hits_returns_none(self):
        sweep = self._sweep([(300.0, 20.0)])
        assert sweep.vulnerable_band(0.5, "write") is None

    def test_validation(self):
        sweep = self._sweep([(300.0, 1.0)])
        with pytest.raises(ConfigurationError):
            sweep.vulnerable_band(0.0, "write")

    def test_unknown_op_is_rejected(self):
        sweep = self._sweep([(300.0, 1.0)])
        with pytest.raises(ConfigurationError, match="unknown op"):
            sweep.vulnerable_band(0.5, "randwrite")

    def test_both_valid_ops_are_accepted(self):
        sweep = self._sweep([(300.0, 1.0), (650.0, 20.0)])
        assert sweep.vulnerable_band(0.5, "write") == (300.0, 300.0)
        assert sweep.vulnerable_band(0.5, "read") == (300.0, 300.0)


class TestRangeBaselineDiscipline:
    def test_baseline_ratio_is_flat_far_from_the_speaker(self):
        """Regression: the baseline used to measure read-then-write while
        every point measured the other order, skewing Table 1 ratios."""
        session = AttackSession(fio_runtime_s=0.5)
        result = session.range_test([0.25])
        far = result.points[0]
        base = result.baseline
        assert far.write.throughput_mbps == pytest.approx(
            base.write.throughput_mbps, rel=0.02
        )
        assert far.read.throughput_mbps == pytest.approx(
            base.read.throughput_mbps, rel=0.02
        )

    def test_range_baseline_agrees_with_session_baseline(self):
        session = AttackSession(fio_runtime_s=0.5)
        sweep_base = session.baseline()
        range_base = session.range_test([]).baseline
        assert range_base.write.throughput_mbps == pytest.approx(
            sweep_base.write_mbps, rel=0.02
        )
        assert range_base.read.throughput_mbps == pytest.approx(
            sweep_base.read_mbps, rel=0.02
        )


class TestMonitor:
    class _CrashAfter:
        name = "fragile"

        def __init__(self, clock, crash_at):
            self.clock = clock
            self.crash_at = crash_at

        def step(self):
            self.clock.advance(0.5)
            if self.clock.now >= self.crash_at:
                raise ProcessCrashed("boom")

    def test_records_time_to_crash(self):
        clock = VirtualClock()
        monitor = AvailabilityMonitor(clock)
        report = monitor.watch(self._CrashAfter(clock, 10.0), deadline_s=60.0)
        assert report is not None
        assert report.time_to_crash_s == pytest.approx(10.0, abs=0.5)
        assert "boom" in report.error_output

    def test_survivor_returns_none(self):
        clock = VirtualClock()
        monitor = AvailabilityMonitor(clock)
        report = monitor.watch(self._CrashAfter(clock, 1e9), deadline_s=5.0)
        assert report is None

    def test_average_time_to_crash(self):
        clock = VirtualClock()
        monitor = AvailabilityMonitor(clock)
        monitor.watch(self._CrashAfter(clock, clock.now + 4.0), deadline_s=60.0)
        monitor.watch(self._CrashAfter(clock, clock.now + 6.0), deadline_s=60.0)
        assert monitor.average_time_to_crash_s() == pytest.approx(5.0, abs=0.6)

    def test_deadline_validation(self):
        monitor = AvailabilityMonitor(VirtualClock())
        for deadline_s in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                monitor.watch(self._CrashAfter(VirtualClock(), 1.0), deadline_s=deadline_s)


class TestDefenses:
    def test_absorber_insertion_loss_grows_with_thickness(self):
        thin = evaluate_defense(AbsorbentCoating(thickness_m=0.02))
        thick = evaluate_defense(AbsorbentCoating(thickness_m=0.08))
        assert thick["insertion_loss_db"] > thin["insertion_loss_db"]
        assert thick["thermal_penalty_c"] > thin["thermal_penalty_c"]

    def test_isolator_attenuates_above_corner(self):
        isolator = VibrationIsolators(corner_hz=80.0)
        assert isolator.displacement_factor(650.0) < 0.1
        assert isolator.displacement_factor(20.0) == pytest.approx(1.0, abs=0.15)

    def test_firmware_filter_hardens_servo(self):
        from repro.hdd.profiles import make_barracuda_profile

        servo = make_barracuda_profile().servo
        hardened = FirmwareNotchFilter(corner_multiplier=2.0).harden_servo(servo)
        assert hardened.rejection(650.0) < servo.rejection(650.0)
        assert hardened.rejection_corner_hz == 2 * servo.rejection_corner_hz

    def test_defended_scenario_reduces_motion(self):
        base = Scenario.scenario_2()
        defended = DefendedScenario(base, AbsorbentCoating(thickness_m=0.05))
        assert defended.chassis_displacement_m(10.0, 650.0) < base.chassis_displacement_m(
            10.0, 650.0
        )

    def test_strong_isolator_defeats_paper_attack(self):
        base = Scenario.scenario_2()
        defended = DefendedScenario(base, VibrationIsolators(corner_hz=40.0))
        coupling = AttackCoupling.paper_setup(defended)
        ratio = coupling.offtrack_ratio(AttackConfig.paper_best(), OpKind.WRITE)
        assert ratio < 1.0
