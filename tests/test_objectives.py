"""The threat model's two attacker objectives, end to end."""

import hashlib

import pytest

from repro.experiments.objectives import run_objective_comparison


@pytest.fixture(scope="module")
def comparison():
    return run_objective_comparison(total_s=260.0, duty_cycle=0.3, seed=0)


class TestObjectiveComparison:
    #: sha256 over the three outcome rows below.  This is the only
    #: experiment that drives the drive through a vibration schedule (the
    #: controller's re-sampling branch), so it pins that branch's clock
    #: timings, retries and timeouts.
    OUTCOME_DIGEST = "9ddf9cc5501ff8f3b29d0567908ff8f3a86e2f78ebfdb4061ac380d154cd21af"

    def test_outcome_digest_is_pinned(self, comparison):
        rows = [
            "%s,%d,%d,%.9f,%s"
            % (
                outcome.objective,
                outcome.work_completed,
                outcome.work_attempted,
                outcome.elapsed_s,
                "none"
                if outcome.crash is None
                else "%.9f" % outcome.crash.time_to_crash_s,
            )
            for outcome in comparison[:3]
        ]
        digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
        assert digest == self.OUTCOME_DIGEST

    def test_baseline_runs_clean(self, comparison):
        baseline, _, _, _ = comparison
        assert not baseline.crashed
        assert baseline.completion_fraction == 1.0

    def test_intermittent_attack_delays_without_crashing(self, comparison):
        baseline, degrade, _, _ = comparison
        assert not degrade.crashed
        # The duty cycle converts into a work-rate loss, not failures.
        assert degrade.work_rate_per_s < 0.85 * baseline.work_rate_per_s
        assert degrade.work_rate_per_s > 0.4 * baseline.work_rate_per_s
        assert degrade.completion_fraction > 0.99

    def test_sustained_attack_crashes_the_filesystem(self, comparison):
        _, _, crash, _ = comparison
        assert crash.crashed
        assert "error -5" in crash.crash.error_output
        # The kill needs the tone held well past one block-layer budget.
        assert crash.crash.time_to_crash_s > 80.0

    def test_crash_work_rate_collapses(self, comparison):
        baseline, _, crash, _ = comparison
        assert crash.work_rate_per_s < 0.1 * baseline.work_rate_per_s

    def test_table_renders_all_campaigns(self, comparison):
        *_, table = comparison
        rendered = table.render()
        assert "baseline" in rendered
        assert "degrade" in rendered
        assert "crash" in rendered


class TestScheduleAwareDrive:
    def test_request_survives_a_burst_that_ends(self):
        """A request caught by a short burst completes when it ends."""
        from repro.hdd.drive import HardDiskDrive
        from repro.hdd.servo import VibrationInput

        drive = HardDiskDrive()
        servo = drive.profile.servo
        mechanical = (
            servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
        )
        stall = VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical)
        # Burst covers [0, 10): inside one host timeout.
        drive.set_vibration_schedule(lambda t: stall if t < 10.0 else None)
        result = drive.write(0, 8)
        assert 9.5 < result.latency_s < 12.0  # waited the burst out

    def test_request_times_out_when_burst_outlasts_budget(self):
        from repro.errors import DriveTimeout
        from repro.hdd.drive import HardDiskDrive
        from repro.hdd.servo import VibrationInput

        drive = HardDiskDrive()
        servo = drive.profile.servo
        mechanical = (
            servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
        )
        stall = VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical)
        drive.set_vibration_schedule(lambda t: stall)  # forever
        with pytest.raises(DriveTimeout):
            drive.write(0, 8)
        assert drive.clock.now == pytest.approx(drive.profile.host_timeout_s, abs=0.3)

    def test_static_vibration_clears_schedule(self):
        from repro.hdd.drive import HardDiskDrive
        from repro.hdd.servo import VibrationInput

        drive = HardDiskDrive()
        drive.set_vibration_schedule(lambda t: VibrationInput(650.0, 1e-7))
        drive.set_vibration(None)
        result = drive.write(0, 8)
        assert result.attempts == 1
