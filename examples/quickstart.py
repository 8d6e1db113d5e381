#!/usr/bin/env python3
"""Quickstart: attack one drive and watch its throughput collapse.

Builds the paper's Scenario 2 (HDD in a storage tower inside a plastic
container, submerged in the tank), plays the best attack tone (650 Hz,
140 dB SPL re 1 uPa) from 1 cm, and measures FIO sequential throughput
before, during, and after the attack.

Run:  python examples/quickstart.py
"""

from repro import AttackConfig, IOMode
from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.hdd.drive import HardDiskDrive
from repro.workloads.fio import FioJob, FioTester


def main() -> None:
    # A fresh victim drive on its own virtual clock.
    drive = HardDiskDrive()
    fio = FioTester(drive)

    # The physical chain: tank water -> plastic container -> storage
    # tower -> drive chassis -> head-stack assembly.
    coupling = AttackCoupling.paper_setup(Scenario.scenario_2())

    def measure(label: str) -> None:
        write = fio.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        read = fio.run(FioJob(mode=IOMode.SEQ_READ, runtime_s=1.0))
        write_cell = f"{write.throughput_mbps:5.1f} MB/s" if write.responded else "no response"
        read_cell = f"{read.throughput_mbps:5.1f} MB/s" if read.responded else "no response"
        print(f"{label:<22} write {write_cell:>12}   read {read_cell:>12}")

    print("== Deep Note quickstart: 650 Hz / 140 dB / 1 cm, Scenario 2 ==")
    measure("before attack")

    # Speaker on.
    coupling.apply(drive, AttackConfig.paper_best())
    measure("attack at 1 cm")

    # Pull the speaker back to 15 cm: writes still suffer, reads recover.
    coupling.apply(drive, AttackConfig.paper_best().at_distance(0.15))
    measure("attack at 15 cm")

    # Speaker off: the drive recovers completely (availability attack,
    # not a destructive one).
    coupling.apply(drive, None)
    measure("after attack")

    print(
        f"\ndrive stats: {drive.stats.retries} retries, "
        f"{drive.stats.timeouts} timeouts, {drive.stats.medium_errors} medium errors"
    )


if __name__ == "__main__":
    main()
