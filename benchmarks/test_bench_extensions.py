"""Extension benches: RAID common-mode, rack coverage, detection.

These go beyond the paper's evaluation into its Section 5 questions:
does redundancy help (no — the attack is common-mode), how much of a
rack does one speaker take out (all of it), and can a defender detect
the attack (yes, from metres away).
"""

from __future__ import annotations

import pytest

from repro.acoustics.ambient import AmbientNoise
from repro.core.attacker import AttackConfig
from repro.core.fleet import DriveRack
from repro.errors import BlockIOError
from repro.hdd.servo import VibrationInput
from repro.storage.block import BlockDevice
from repro.storage.raid import ArrayFailed, RaidArray, RaidLevel
from repro.units import BLOCK_4K

from conftest import save_result


def _stall_one(device):
    drive = device.drive
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


def test_raid_common_mode_ablation(benchmark, results_dir):
    """RAID5 survives one dead member but not one speaker."""

    def run():
        outcomes = {}
        # Case A: one independent mechanical failure.
        rack = DriveRack(bays=3)
        array = RaidArray.from_rack(rack, RaidLevel.RAID5)
        for i in range(6):
            array.write_block(i, bytes([i]) * BLOCK_4K)
        _stall_one(array.members[0].device)
        survived = all(array.read_block(i) == bytes([i]) * BLOCK_4K for i in range(6))
        outcomes["independent_failure_survived"] = survived and array.online

        # Case B: the acoustic attack (common mode).
        rack = DriveRack(bays=3)
        array = RaidArray.from_rack(rack, RaidLevel.RAID5)
        for i in range(6):
            array.write_block(i, bytes([i]) * BLOCK_4K)
        rack.apply_attack(AttackConfig.paper_best())
        try:
            for i in range(6):
                array.read_block(i)
            outcomes["attack_survived"] = array.online
        except (ArrayFailed, BlockIOError):
            outcomes["attack_survived"] = False
        outcomes["attack_array_online"] = array.online
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert outcomes["independent_failure_survived"] is True
    assert outcomes["attack_survived"] is False
    assert outcomes["attack_array_online"] is False
    save_result(
        results_dir,
        "ablation_raid",
        "Ablation: RAID5 vs failures\n"
        f"independent member failure: array survives = {outcomes['independent_failure_survived']}\n"
        f"acoustic attack (common mode): array survives = {outcomes['attack_survived']}",
    )


def test_rack_coverage_vs_distance(benchmark, results_dir):
    """How many of a 5-bay tower one speaker disables, by distance."""

    def run():
        rows = []
        for cm in (1, 5, 10, 14, 20, 25):
            rack = DriveRack(bays=5)
            rack.apply_attack(AttackConfig(650.0, 140.0, cm / 100.0))
            probabilities = rack.write_success_probabilities()
            disabled = sum(1 for p in probabilities.values() if p < 0.5)
            rows.append((cm, disabled, len(rack.stalled_bays())))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_cm = {cm: (disabled, stalled) for cm, disabled, stalled in rows}
    assert by_cm[1] == (5, 5)       # whole tower down at 1 cm
    assert by_cm[25][0] == 0        # untouched at 25 cm
    # Coverage shrinks monotonically with distance.
    coverage = [disabled for _, disabled, _ in rows]
    assert coverage == sorted(coverage, reverse=True)
    lines = ["Ablation: rack coverage vs distance (650 Hz, 140 dB)",
             "distance_cm  bays_write_disabled  bays_stalled"]
    lines += [f"{cm:>11}  {d:>19}  {s:>12}" for cm, d, s in rows]
    save_result(results_dir, "ablation_rack", "\n".join(lines))


def test_ycsb_mixes_under_attack(benchmark, results_dir):
    """YCSB A-F quiet vs attacked: write-heavy mixes collapse first."""
    from repro.core.coupling import AttackCoupling
    from repro.hdd.drive import HardDiskDrive
    from repro.rng import make_rng
    from repro.sim.clock import VirtualClock
    from repro.storage.fs.filesystem import SimFS
    from repro.storage.kv.db import DB, Options
    from repro.workloads.ycsb import WORKLOADS, YcsbRunner

    def run():
        rows = {}
        for name in ("A", "B", "C", "F"):
            rates = []
            for attacked in (False, True):
                rng = make_rng(7).fork(f"{name}/{attacked}")
                drive = HardDiskDrive(clock=VirtualClock(), rng=rng.fork("d"))
                fs = SimFS.mkfs(BlockDevice(drive), commit_interval_s=3600.0)
                fs.mkdir("/db")
                db = DB.open(
                    fs, "/db",
                    options=Options(wal_sync_every_bytes=64 * 1024),
                )
                runner = YcsbRunner(db, record_count=1000, rng=rng.fork("y"))
                runner.load()
                if attacked:
                    coupling = AttackCoupling.paper_setup()
                    coupling.apply(drive, AttackConfig(650.0, 140.0, 0.12))
                rates.append(runner.run(WORKLOADS[name], duration_s=0.5).ops_per_second)
            rows[name] = (rates[0], rates[1], rates[1] / rates[0])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    # The read-only mix survives far better than the update-heavy ones.
    assert rows["C"][2] > 0.5
    assert rows["A"][2] < rows["C"][2]
    assert rows["F"][2] < rows["C"][2]
    lines = ["Extension: YCSB mixes quiet vs attacked (650 Hz, 12 cm)",
             "mix  quiet ops/s  attacked ops/s  retained"]
    lines += [
        f"{name:<4} {quiet:>11.0f}  {attacked:>14.0f}  {kept:>7.1%}"
        for name, (quiet, attacked, kept) in rows.items()
    ]
    save_result(results_dir, "ablation_ycsb", "\n".join(lines))


def test_attacker_detectability(benchmark, results_dir):
    """The attack tone is audible orders of magnitude beyond its reach."""

    def run():
        sites = {
            "quiet site": AmbientNoise.quiet_site(),
            "average": AmbientNoise(),
            "busy harbor": AmbientNoise.harbor(),
        }
        return {
            name: site.detection_range_m(140.0, 650.0) for name, site in sites.items()
        }

    ranges = benchmark.pedantic(run, rounds=1, iterations=1)
    # Detectable from metres away everywhere; farther where quieter.
    assert all(reach > 1.0 for reach in ranges.values())
    assert ranges["quiet site"] > ranges["busy harbor"]
    # The attack itself only works inside ~0.25 m: defenders hear the
    # attacker at >10x the attack radius.
    assert min(ranges.values()) > 10 * 0.25
    lines = ["Ablation: hydrophone detection range of the 140 dB attack tone",
             "site          detection range (m)   attack radius (m)"]
    lines += [f"{name:<12}  {reach:>18.1f}   0.25" for name, reach in ranges.items()]
    save_result(results_dir, "ablation_detection", "\n".join(lines))
