#!/usr/bin/env python3
"""Regenerate every artefact in results/ in one full-fidelity pass.

CI entry point: ``make bench`` runs this script, and CI then fails on
``git diff --exit-code results/``.  A single ``run_report`` at seed 42
runs each experiment once; the figure, the tables, the CSV series, the
ablations and REPORT.md are all rendered from it, so REPORT.md equals
``deepnote report --full --seed 42`` byte for byte.  Nothing written
depends on the host, so a diff against the committed artefacts shows
real behavioural change only.

The extension studies below take the paper's Section 5 questions past
its evaluation: does redundancy help (no, the attack is common mode),
how much of a tower does one speaker take out, which YCSB mixes survive,
and can a defender hear the attacker.  Only this script runs them;
``tests/test_paper_shapes.py`` imports them to assert their shapes.

Run:  PYTHONPATH=src python tools/make_results.py   (or ``make bench``)
"""

from __future__ import annotations

import pathlib
import sys
from typing import Dict, List, Tuple

from repro.acoustics.ambient import AmbientNoise
from repro.analysis.report import ReportOptions, render_report, run_report
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.fleet import DriveRack
from repro.experiments.ablations import run_drive_type_ablation
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import VibrationInput
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options
from repro.storage.raid import RaidGroup, RaidLevel
from repro.workloads.ycsb import WORKLOADS, YcsbRunner

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def raid_common_mode() -> Tuple[bool, bool]:
    """Whether a 3-bay RAID5 survives one dead member, and one speaker.

    Each bay the rack reports stalled fails its member of the fleet's
    :class:`RaidGroup`; the array survives while the group stays online.
    """

    def survives(rack: DriveRack) -> bool:
        group = RaidGroup(RaidLevel.RAID5, 3)
        for bay in rack.stalled_bays():
            group.fail_member(bay, rack.clock.now)
        return group.online

    # One independent mechanical failure: a single member stalls.
    rack = DriveRack(bays=3)
    drive = rack.drives[0]
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))
    independent = survives(rack)

    # The acoustic attack: every member stalls at once.
    rack = DriveRack(bays=3)
    rack.apply_attack(AttackConfig.paper_best())
    return independent, survives(rack)


def rack_coverage() -> List[Tuple[int, int, int]]:
    """(distance cm, bays write-disabled, bays stalled) of a 5-bay tower
    under one 650 Hz / 140 dB speaker."""
    rows = []
    for cm in (1, 5, 10, 14, 20, 25):
        rack = DriveRack(bays=5)
        rack.apply_attack(AttackConfig(650.0, 140.0, cm / 100.0))
        probabilities = rack.write_success_probabilities().values()
        disabled = sum(1 for p in probabilities if p < 0.5)
        rows.append((cm, disabled, len(rack.stalled_bays())))
    return rows


def ycsb_mixes() -> Dict[str, Tuple[float, float, float]]:
    """YCSB A, B, C and F quiet and under attack at 12 cm: mix ->
    (quiet ops/s, attacked ops/s, fraction retained)."""
    rows = {}
    for name in ("A", "B", "C", "F"):
        rates = []
        for attacked in (False, True):
            rng = make_rng(7).fork(f"{name}/{attacked}")
            drive = HardDiskDrive(clock=VirtualClock(), rng=rng.fork("d"))
            fs = SimFS.mkfs(BlockDevice(drive), commit_interval_s=3600.0)
            fs.mkdir("/db")
            db = DB.open(fs, "/db", options=Options(wal_sync_every_bytes=64 * 1024))
            runner = YcsbRunner(db, record_count=1000, rng=rng.fork("y"))
            runner.load()
            if attacked:
                AttackCoupling.paper_setup().apply(drive, AttackConfig(650.0, 140.0, 0.12))
            rates.append(runner.run(WORKLOADS[name], duration_s=0.5).ops_per_second)
        rows[name] = (rates[0], rates[1], rates[1] / rates[0])
    return rows


def detection_ranges() -> Dict[str, float]:
    """Hydrophone detection range (m) of the 140 dB / 650 Hz attack tone
    at three ambient-noise sites."""
    sites = {
        "quiet site": AmbientNoise.quiet_site(),
        "average": AmbientNoise(),
        "busy harbor": AmbientNoise.harbor(),
    }
    return {name: site.detection_range_m(140.0, 650.0) for name, site in sites.items()}


def main() -> int:
    run = run_report(ReportOptions(quick=False, seed=42))
    independent, attacked = raid_common_mode()
    artefacts = {
        "figure2.txt": run.figure2.render(),
        "figure2_write.csv": run.figure2.to_csv("write"),
        "figure2_read.csv": run.figure2.to_csv("read"),
        "table1.txt": run.table1.render(),
        "table2.txt": run.table2.render(),
        "table3.txt": run.table3.render(),
        "ablation_material.txt": run.material.render(),
        "ablation_source_level.txt": run.source_level.render(),
        "ablation_water.txt": run.water.render(),
        "ablation_defense.txt": run.defenses.render(),
        "ablation_drive_type.txt": run_drive_type_ablation().render(),
        "objectives.txt": run.objectives.render(),
        "ablation_raid.txt": "\n".join([
            "Ablation: RAID5 vs failures",
            f"independent member failure: array survives = {independent}",
            f"acoustic attack (common mode): array survives = {attacked}",
        ]),
        "ablation_rack.txt": "\n".join(
            ["Ablation: rack coverage vs distance (650 Hz, 140 dB)",
             "distance_cm  bays_write_disabled  bays_stalled"]
            + [f"{cm:>11}  {d:>19}  {s:>12}" for cm, d, s in rack_coverage()]
        ),
        "ablation_ycsb.txt": "\n".join(
            ["Extension: YCSB mixes quiet vs attacked (650 Hz, 12 cm)",
             "mix  quiet ops/s  attacked ops/s  retained"]
            + [f"{name:<4} {quiet:>11.0f}  {hit:>14.0f}  {kept:>7.1%}"
               for name, (quiet, hit, kept) in ycsb_mixes().items()]
        ),
        "ablation_detection.txt": "\n".join(
            ["Ablation: hydrophone detection range of the 140 dB attack tone",
             "site          detection range (m)   attack radius (m)"]
            + [f"{name:<12}  {reach:>18.1f}   0.25"
               for name, reach in detection_ranges().items()]
        ),
        "REPORT.md": render_report(run),
    }
    RESULTS.mkdir(exist_ok=True)
    for name, text in artefacts.items():
        path = RESULTS / name
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
