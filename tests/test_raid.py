"""RAID under the common-mode attack: one speaker stalls every member."""

from repro.core.attacker import AttackConfig
from repro.core.fleet import DriveRack
from repro.hdd.servo import VibrationInput
from repro.storage.raid import RaidGroup, RaidLevel


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


def raid5_over(rack):
    """A RAID5 group over the rack's bays, each stalled bay a failed member."""
    group = RaidGroup(RaidLevel.RAID5, len(rack.drives))
    for bay in rack.stalled_bays():
        group.fail_member(bay, rack.clock.now)
    return group


class TestCommonModeAttack:
    def test_acoustic_attack_defeats_raid(self):
        """The headline: one speaker kills every member at once."""
        rack = DriveRack(bays=3)
        rack.apply_attack(AttackConfig.paper_best())
        # All members stall together: even RAID5 cannot serve.
        assert rack.stalled_bays() == [0, 1, 2]
        group = raid5_over(rack)
        assert group.failed_members == 3
        assert not group.online

    def test_independent_failure_comparison(self):
        """Same array, single-member failure: RAID5 handles it fine."""
        rack = DriveRack(bays=3)
        stall(rack.drives[0])
        assert rack.stalled_bays() == [0]
        group = raid5_over(rack)
        assert group.degraded
        assert group.online
