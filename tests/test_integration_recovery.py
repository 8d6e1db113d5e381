"""Full-stack integration: attack, crash, remount, recover.

The paper ends at the crash; an operator's story continues: silence the
speaker, remount the filesystem (journal replay), run fsck, reopen the
database, and verify what survived.  These tests drive that entire arc
through every layer of the reproduction.
"""

import pytest

from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.errors import JournalAbort, ReadOnlyFilesystem, WALSyncError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import make_ssd_like_profile
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.fs.fsck import check
from repro.storage.kv.db import DB, Options
from repro.workloads.fio import FioJob, FioTester, IOMode


def build_stack(seed=0, commit_interval=5.0):
    rng = make_rng(seed)
    drive = HardDiskDrive(clock=VirtualClock(), rng=rng.fork("drive"))
    device = BlockDevice(drive)
    fs = SimFS.mkfs(device, commit_interval_s=commit_interval)
    return drive, device, fs


class TestFilesystemRecoveryArc:
    def test_attack_abort_remount_recovers_committed_state(self):
        drive, device, fs = build_stack()
        coupling = AttackCoupling.paper_setup()

        # Phase 1: normal operation, durable data.
        fs.mkdir("/data")
        fs.create("/data/committed")
        fs.write_file("/data/committed", b"survives the attack")
        fs.sync()

        # Phase 2: more work, NOT yet committed, then the attack.
        fs.create("/data/in-flight")
        coupling.apply(drive, AttackConfig.paper_best())
        drive.clock.advance(6.0)
        with pytest.raises(JournalAbort):
            fs.touch_mtime("/data/committed")
        assert fs.read_only
        with pytest.raises(ReadOnlyFilesystem):
            fs.create("/data/more")

        # Phase 3: speaker off; operator remounts and checks.
        coupling.apply(drive, None)
        remounted = SimFS.mount(device)
        report = check(remounted)
        assert report.clean, report.render()
        assert remounted.read_file("/data/committed") == b"survives the attack"
        # The uncommitted create from phase 2 was (correctly) lost.
        assert not remounted.exists("/data/in-flight")

        # Phase 4: life goes on.
        remounted.create("/data/after")
        remounted.write_file("/data/after", b"post-incident")
        assert remounted.read_file("/data/after") == b"post-incident"

    def test_database_recovery_after_wal_death(self):
        drive, device, fs = build_stack(commit_interval=3600.0)
        fs.mkdir("/db")
        db = DB.open(fs, "/db", options=Options())
        coupling = AttackCoupling.paper_setup()

        for i in range(200):
            db.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
        db.flush()  # durable through the SST + manifest
        db.put(b"unsynced", b"doomed")

        coupling.apply(drive, AttackConfig.paper_best())
        with pytest.raises(WALSyncError):
            db.put(b"trigger", b"x", sync=True)
        assert db.fatal_error is not None

        # Operator silences the speaker and reopens the store.
        coupling.apply(drive, None)
        reopened = DB.open(fs, "/db")
        for i in range(200):
            assert reopened.get(f"key-{i:04d}".encode()) == f"value-{i}".encode()
        # The writes the WAL never persisted are gone — and that is the
        # correct durability contract.
        assert reopened.get(b"unsynced") is None
        assert reopened.get(b"trigger") is None
        reopened.put(b"fresh", b"start")
        assert reopened.get(b"fresh") == b"start"

    def test_availability_attack_is_not_destructive(self):
        """Data written before the attack is bit-identical after it."""
        drive, device, fs = build_stack()
        payloads = {f"/f{i}": bytes([i]) * 3000 for i in range(8)}
        for path, payload in payloads.items():
            fs.create(path)
            fs.write_file(path, payload)
        fs.sync()
        coupling = AttackCoupling.paper_setup()
        coupling.apply(drive, AttackConfig.paper_best())
        drive.clock.advance(120.0)
        coupling.apply(drive, None)
        for path, payload in payloads.items():
            assert fs.read_file(path) == payload


class TestSSDComparison:
    def test_ssd_is_immune_to_the_attack(self):
        drive = HardDiskDrive(profile=make_ssd_like_profile(), clock=VirtualClock(),
                              rng=make_rng(2))
        coupling = AttackCoupling.paper_setup()
        tester = FioTester(drive)
        baseline = tester.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.5))
        coupling.apply(drive, AttackConfig.paper_best())
        attacked = tester.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.5))
        assert attacked.throughput_mbps == pytest.approx(
            baseline.throughput_mbps, rel=0.02
        )

    def test_ssd_is_faster_but_the_paper_is_about_cost(self):
        ssd = make_ssd_like_profile()
        from repro.hdd.profiles import make_barracuda_profile

        assert ssd.sequential_write_mbps() > 3 * make_barracuda_profile().sequential_write_mbps()


class TestDeterminism:
    def test_same_seed_identical_sweeps(self):
        from repro.core.attack import AttackSession

        def sweep(seed):
            session = AttackSession(seed=seed, fio_runtime_s=0.3)
            result = session.frequency_sweep([400.0, 650.0, 2000.0])
            return [(p.frequency_hz, p.write_mbps, p.read_mbps) for p in result.points]

        assert sweep(11) == sweep(11)

    def test_same_seed_identical_crash_times(self):
        from repro.experiments.table3 import run_table3
        from repro.experiments.apps import Ext4Victim

        first = run_table3(deadline_s=120.0, victims=[Ext4Victim])
        second = run_table3(deadline_s=120.0, victims=[Ext4Victim])
        assert (
            first.reports["Ext4"].time_to_crash_s
            == second.reports["Ext4"].time_to_crash_s
        )
