"""Rack fleet, SMART forensics, and the attack detector."""

import pytest

from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.detector import (
    AcousticAttackDetector,
    HydrophoneMonitor,
    ThroughputAnomalyDetector,
    ToneObservation,
)
from repro.core.fleet import DriveRack
from repro.errors import ConfigurationError, DriveTimeout
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import VibrationInput
from repro.hdd.smart import COMMAND_TIMEOUT, SEEK_ERROR_RATE, SmartLog
from repro.workloads.fio import FioJob, FioTester, IOMode


class TestDriveRack:
    def test_rack_builds_requested_bays(self):
        rack = DriveRack(bays=4)
        assert len(rack.drives) == 4
        assert [slot.bay for slot in rack.slots] == [0, 1, 2, 3]

    def test_attack_hits_every_bay(self):
        rack = DriveRack(bays=5)
        vibrations = rack.apply_attack(AttackConfig.paper_best())
        assert len(vibrations) == 5
        assert all(v.displacement_m > 0 for v in vibrations.values())
        assert rack.stalled_bays() == [0, 1, 2, 3, 4]
        assert rack.healthy_bays() == []

    def test_higher_bays_feel_more_vibration(self):
        rack = DriveRack(bays=5)
        vibrations = rack.apply_attack(AttackConfig.paper_best())
        assert vibrations[4].displacement_m > vibrations[0].displacement_m

    def test_silence_restores_all_bays(self):
        rack = DriveRack(bays=3)
        rack.apply_attack(AttackConfig.paper_best())
        rack.apply_attack(None)
        assert rack.healthy_bays() == [0, 1, 2]

    def test_weak_attack_differentiates_bays(self):
        rack = DriveRack(bays=5)
        # A distance where only part of the tower is inside the cliff.
        rack.apply_attack(AttackConfig(650.0, 140.0, 0.14))
        probabilities = rack.write_success_probabilities()
        assert probabilities[0] > probabilities[4]

    def test_bay_bounds(self):
        with pytest.raises(ConfigurationError):
            DriveRack(bays=0)
        with pytest.raises(ConfigurationError):
            DriveRack(bays=6)


class TestSmartLog:
    def test_quiet_drive_has_clean_report(self, drive):
        FioTester(drive).run(FioJob(mode=IOMode.SEQ_READ, runtime_s=0.2))
        smart = SmartLog(drive)
        assert smart.retry_rate_per_second() == 0.0
        assert not smart.vibration_fingerprint()
        assert smart.attribute(SEEK_ERROR_RATE).normalized == 100

    def test_attack_raises_seek_error_rate(self, drive, coupling):
        coupling.apply(drive, AttackConfig(650.0, 140.0, 0.125))
        smart = SmartLog(drive)
        FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        smart.sample()
        assert smart.retry_rate_per_second() > 50.0
        assert smart.attribute(SEEK_ERROR_RATE).normalized < 100
        assert smart.vibration_fingerprint()

    def test_stall_counts_command_timeouts(self, drive, coupling):
        coupling.apply(drive, AttackConfig.paper_best())
        smart = SmartLog(drive)
        with pytest.raises(DriveTimeout):
            drive.read(0, 8)
        smart.sample()
        assert smart.attribute(COMMAND_TIMEOUT).raw_value == 1
        assert smart.timeout_rate_per_second() > 0.0
        assert smart.vibration_fingerprint()

    def test_ultrasonic_shock_is_not_the_acoustic_fingerprint(self, drive):
        drive.set_vibration(VibrationInput(28_000.0, 2e-9))
        smart = SmartLog(drive)
        with pytest.raises(DriveTimeout):
            drive.read(0, 8)
        smart.sample()
        # G-sense fired: this looks like a physical shock, not the
        # audible-band attack.
        assert not smart.vibration_fingerprint()

    def test_report_renders(self, drive):
        report = SmartLog(drive).report()
        assert "Seek_Error_Rate" in report
        assert "acoustic fingerprint" in report


class TestHydrophone:
    def test_sustained_tone_detected(self):
        monitor = HydrophoneMonitor(ambient_level_db=70.0, margin_db=20.0, dwell_s=2.0)
        for t in range(0, 30):
            monitor.observe(ToneObservation(t * 0.1, 650.0, 120.0))
        tone = monitor.detected_tone(3.0)
        assert tone is not None
        assert tone.frequency_hz == 650.0

    def test_brief_blip_not_detected(self):
        monitor = HydrophoneMonitor(dwell_s=2.0)
        monitor.observe(ToneObservation(1.0, 650.0, 130.0))
        assert monitor.detected_tone(1.1) is None

    def test_quiet_water_not_detected(self):
        monitor = HydrophoneMonitor(ambient_level_db=70.0, margin_db=20.0)
        for t in range(0, 40):
            monitor.observe(ToneObservation(t * 0.1, 650.0, 75.0))
        assert monitor.detected_tone(4.0) is None

    def test_wandering_frequency_not_a_tone(self):
        monitor = HydrophoneMonitor(dwell_s=2.0, band_tolerance_hz=50.0)
        for t in range(0, 30):
            monitor.observe(ToneObservation(t * 0.1, 300.0 + 40.0 * t, 120.0))
        assert monitor.detected_tone(3.0) is None


class TestFusionDetector:
    def _attacked_rig(self):
        drive = HardDiskDrive()
        coupling = AttackCoupling.paper_setup()
        baseline = FioTester(drive).run(
            FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.5)
        ).throughput_mbps
        telemetry = ThroughputAnomalyDetector(drive, baseline_mbps=baseline)
        hydrophone = HydrophoneMonitor()
        return drive, coupling, telemetry, hydrophone

    def test_alarm_fires_under_real_attack(self):
        drive, coupling, telemetry, hydrophone = self._attacked_rig()
        config = AttackConfig(650.0, 140.0, 0.12)  # heavy write loss
        coupling.apply(drive, config)
        # The hydrophone hears the actual attack pressure at the wall.
        pressure = coupling.wall_pressure_pa(config)
        clock = drive.clock
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=3.0))
        # Readings spanning the detector's dwell window up to "now".
        for i in range(31):
            hydrophone.observe_pressure(clock.now - 3.0 + 0.1 * i, 650.0, pressure)
        telemetry.report_throughput(result.throughput_mbps)
        detector = AcousticAttackDetector(hydrophone, telemetry)
        alarm = detector.evaluate(clock.now)
        assert alarm is not None
        assert alarm.frequency_hz == pytest.approx(650.0)
        assert detector.alarms

    def test_no_alarm_when_host_is_merely_idle(self):
        drive, coupling, telemetry, hydrophone = self._attacked_rig()
        # Throughput collapsed (idle host) but no retries, no tone.
        telemetry.report_throughput(0.0)
        detector = AcousticAttackDetector(hydrophone, telemetry)
        assert detector.evaluate(drive.clock.now) is None

    def test_no_alarm_for_loud_tone_without_impact(self):
        drive, coupling, telemetry, hydrophone = self._attacked_rig()
        for t in range(0, 40):
            hydrophone.observe(ToneObservation(t * 0.1, 5000.0, 130.0))
        telemetry.report_throughput(telemetry.baseline_mbps)
        detector = AcousticAttackDetector(hydrophone, telemetry)
        assert detector.evaluate(4.0) is None
