"""The drive and its controller: timing, retries, timeouts, data."""

import pytest

from repro.errors import ConfigurationError, DriveTimeout, MediumError, UnitError
from repro.hdd.controller import RetryPolicy
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import OpKind, VibrationInput
from repro.hdd.smart import COMMAND_TIMEOUT, SmartLog
from repro.units import SECTOR_SIZE


def stall_vibration(drive: HardDiskDrive) -> VibrationInput:
    """A vibration strong enough to stall the servo completely."""
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    displacement = 2.0 * servo.servo_limit_m / mechanical
    return VibrationInput(650.0, displacement)


def partial_vibration(drive: HardDiskDrive, write_ratio: float) -> VibrationInput:
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    displacement = write_ratio * servo.threshold_m(OpKind.WRITE) / mechanical
    return VibrationInput(650.0, displacement)


class TestQuietOperation:
    def test_stats_count_every_command(self, drive):
        for i in range(2000):
            drive.write(i * 8, 8)
        for i in range(500):
            drive.read(i * 8, 8)
        assert (drive.stats.writes, drive.stats.reads) == (2000, 500)

    def test_read_returns_written_data(self, drive):
        payload = bytes(range(256)) * 16  # 4 KiB
        drive.write(100, 8, payload)
        _, data = drive.read(100, 8)
        assert data == payload

    def test_unwritten_sectors_read_zero(self, drive):
        _, data = drive.read(5000, 2)
        assert data == b"\x00" * (2 * SECTOR_SIZE)

    def test_latency_matches_profile_baseline(self, drive):
        result, _ = drive.read(0, 8)
        assert result.latency_s == pytest.approx(0.2276e-3, rel=0.05)
        result = drive.write(8, 8)
        assert result.latency_s == pytest.approx(0.18e-3, rel=0.05)

    def test_clock_advances_with_each_io(self, drive):
        before = drive.clock.now
        drive.write(0, 8)
        assert drive.clock.now > before

    def test_sequential_access_has_no_seek_penalty(self, drive):
        first = drive.write(0, 8).latency_s
        second = drive.write(8, 8).latency_s
        assert second == pytest.approx(first, rel=0.01)

    def test_far_seek_costs_more(self, drive):
        drive.write(0, 8)
        far_lba = drive.total_sectors - 8
        result = drive.write(far_lba, 8)
        assert result.latency_s > 5e-3  # full-stroke seek territory

    def test_payload_length_validated(self, drive):
        with pytest.raises(ConfigurationError):
            drive.write(0, 8, b"short")

    def test_range_validated(self, drive):
        with pytest.raises(UnitError):
            drive.read(drive.total_sectors, 1)
        with pytest.raises(ConfigurationError):
            drive.read(0, 0)


class TestUnderAttack:
    def test_stall_times_out_with_no_response(self, drive):
        drive.set_vibration(stall_vibration(drive))
        before = drive.clock.now
        with pytest.raises(DriveTimeout):
            drive.read(0, 8)
        assert drive.clock.now - before == pytest.approx(drive.profile.host_timeout_s)
        assert drive.stats.timeouts == 1

    def test_partial_attack_retries_then_succeeds(self, drive):
        drive.set_vibration(partial_vibration(drive, 1.3))
        result = drive.write(0, 8)
        assert result.attempts > 1
        assert drive.stats.retries > 0

    def test_retry_latency_in_revolution_units(self, drive):
        drive.set_vibration(partial_vibration(drive, 1.3))
        result = drive.write(0, 8)
        revolution = drive.profile.spindle.revolution_time_s
        expected = (result.attempts - 1) * revolution
        assert result.latency_s == pytest.approx(expected, rel=0.15)

    def test_reads_survive_write_killing_vibration(self, drive):
        drive.set_vibration(partial_vibration(drive, 1.3))
        result, _ = drive.read(0, 8)
        assert result.attempts <= 2

    def test_clearing_vibration_restores_service(self, drive):
        drive.set_vibration(stall_vibration(drive))
        with pytest.raises(DriveTimeout):
            drive.write(0, 8)
        drive.set_vibration(None)
        result = drive.write(0, 8)
        assert result.attempts == 1

    def test_flush_blocks_on_stalled_drive(self, drive):
        drive.set_vibration(stall_vibration(drive))
        with pytest.raises(DriveTimeout):
            drive.flush()

    def test_failed_flush_syncs_stats_and_smart(self, drive):
        # The failed flush itself copies the controller's counters, so
        # stats and a SMART sample taken right after it see the timeout.
        drive.set_vibration(stall_vibration(drive))
        with pytest.raises(DriveTimeout):
            drive.flush()
        controller = drive.controller
        assert controller.timeouts == 1
        assert (drive.stats.retries, drive.stats.medium_errors, drive.stats.timeouts) == (
            controller.retries, controller.medium_errors, controller.timeouts
        )
        attribute = SmartLog(drive).attribute(COMMAND_TIMEOUT)
        assert (attribute.name, attribute.raw_value) == ("Command_Timeout", 1)

    def test_flush_is_free_when_quiet(self, drive):
        before = drive.clock.now
        drive.flush()
        assert drive.clock.now == before


class TestUltrasonicParking:
    def test_ultrasonic_tone_parks_heads(self, drive):
        drive.set_vibration(VibrationInput(28_000.0, 2e-9))
        assert drive.parked
        assert drive.stats.shock_parks == 1
        with pytest.raises(DriveTimeout):
            drive.read(0, 8)

    def test_park_clears_with_vibration(self, drive):
        drive.set_vibration(VibrationInput(28_000.0, 2e-9))
        drive.set_vibration(None)
        assert not drive.parked
        drive.read(0, 8)


class TestRetryPolicy:
    def test_exhausted_budget_is_medium_error(self, clock, rng):
        from repro.hdd.profiles import make_barracuda_profile

        profile = make_barracuda_profile()
        profile.host_timeout_s = 1000.0  # let retries, not time, run out
        drive = HardDiskDrive(profile=profile, clock=clock, rng=rng)
        drive.controller.retry_policy = RetryPolicy(max_attempts=3)
        # A ratio where attempts usually fail but the servo still tracks.
        drive.set_vibration(partial_vibration(drive, 1.6))
        with pytest.raises(MediumError):
            for _ in range(50):
                drive.write(0, 8)
        assert drive.stats.medium_errors >= 1

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(retry_penalty_fraction=0.0)


class TestDeterminism:
    def test_same_seed_same_behaviour(self):
        from repro.rng import make_rng
        from repro.sim.clock import VirtualClock

        def run(seed):
            drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(seed))
            drive.set_vibration(partial_vibration(drive, 1.4))
            return [drive.write(i * 8, 8).attempts for i in range(30)]

        assert run(7) == run(7)
        assert run(7) != run(8)
