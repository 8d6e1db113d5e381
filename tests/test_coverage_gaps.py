"""Grab-bag: behaviours not covered elsewhere."""

import pytest

from repro.acoustics.source import Amplifier
from repro.errors import ConfigurationError, CorruptionError, FilesystemError, UnitError
from repro.storage.fs.journal import Journal
from repro.units import BLOCK_4K


class TestSourceBits:
    def test_amplifier_drive_level_validation(self):
        with pytest.raises(UnitError):
            Amplifier().output_vrms(1.5)


class TestJournalGuards:
    def test_oversized_transaction_rejected(self, device):
        journal = Journal(device, 1, 16)
        for i in range(20):
            journal.stage_metadata(500 + i, bytes([i]) * BLOCK_4K)
        with pytest.raises(FilesystemError):
            journal.commit()

    def test_abort_code_constant(self, device):
        journal = Journal(device, 1, 16)
        assert journal.abort_code is None
        assert not journal.aborted


class TestVersionSetEdges:
    def test_manifest_torn_tail_tolerated(self, fs):
        from repro.storage.kv.version import FileMetadata, VersionEdit, VersionSet

        fs.mkdir("/vs")
        versions = VersionSet(fs, "/vs")
        versions.create_new_manifest()
        meta = FileMetadata(number=versions.new_file_number(), level=0,
                            size_bytes=5, smallest=b"a", largest=b"b")
        versions.log_and_apply(VersionEdit(added=[meta]))
        # Tear the manifest's tail (simulated partial write).
        manifest = fs.read_file(versions.current_path).decode()
        fs.append(manifest, b"\x01\x02\x03")
        fresh = VersionSet(fs, "/vs")
        fresh.recover()  # must not raise
        assert [f.number for f in fresh.files_at(0)] == [meta.number]

    def test_recover_without_current_raises(self, fs):
        from repro.storage.kv.version import VersionSet

        fs.mkdir("/empty")
        with pytest.raises(CorruptionError):
            VersionSet(fs, "/empty").recover()

    def test_manifest_crc_mismatch_detected(self, fs):
        from repro.storage.kv.version import VersionSet

        fs.mkdir("/vs")
        versions = VersionSet(fs, "/vs")
        versions.create_new_manifest()
        manifest = fs.read_file(versions.current_path).decode()
        blob = bytearray(fs.read_file(manifest))
        blob[10] ^= 0xFF
        fs.write_file(manifest, bytes(blob))
        fs.append(manifest, b"x" * 16)  # make the damage mid-stream
        with pytest.raises(CorruptionError):
            VersionSet(fs, "/vs").recover()


class TestShellEdges:
    def test_cat_missing_operand(self):
        from repro.storage.oskernel.server import UbuntuServer

        server = UbuntuServer()
        assert server.shell.run("cat").exit_code == 1
        assert server.shell.run("touch").exit_code == 1

    def test_cat_missing_file(self):
        from repro.storage.oskernel.server import UbuntuServer

        server = UbuntuServer()
        result = server.shell.run("cat /nope")
        assert result.exit_code == 1
        assert "No such file" in result.stderr

    def test_touch_and_sync(self):
        from repro.storage.oskernel.server import UbuntuServer

        server = UbuntuServer()
        assert server.shell.run("touch /home/x").ok
        assert server.shell.run("sync").ok
        assert "x" in server.fs.listdir("/home")

    def test_empty_command(self):
        from repro.storage.oskernel.server import UbuntuServer

        server = UbuntuServer()
        assert server.shell.run("").exit_code == 0

    def test_history_recorded(self):
        from repro.storage.oskernel.server import UbuntuServer

        server = UbuntuServer()
        server.shell.run("echo one")
        server.shell.run("echo two")
        assert len(server.shell.history) == 2


class TestFioEdges:
    def test_region_too_small_rejected(self, drive):
        from repro.errors import ConfigurationError
        from repro.workloads.fio import FioJob, FioTester

        tester = FioTester(drive)
        with pytest.raises(ConfigurationError):
            tester.run(FioJob(region_sectors=4, runtime_s=0.1))

    def test_mode_predicates(self):
        from repro.workloads.fio import IOMode

        assert IOMode.SEQ_WRITE.is_write and not IOMode.SEQ_WRITE.is_random
        assert IOMode.RAND_READ.is_random and not IOMode.RAND_READ.is_write


class TestMonitorEdges:
    def test_max_steps_bounds_watch(self):
        from repro.core.monitor import AvailabilityMonitor
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()

        class Lazy:
            name = "lazy"

            def step(self):
                clock.advance(1e-9)  # essentially never reaches deadline

        monitor = AvailabilityMonitor(clock)
        assert monitor.watch(Lazy(), deadline_s=100.0, max_steps=50) is None

    def test_transient_errors_do_not_count_as_crash(self):
        from repro.core.monitor import AvailabilityMonitor
        from repro.errors import BlockIOError
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()

        class Flaky:
            name = "flaky"

            def step(self):
                clock.advance(1.0)
                raise BlockIOError("transient")

        monitor = AvailabilityMonitor(clock)
        assert monitor.watch(Flaky(), deadline_s=5.0) is None


class TestReportGeneration:
    @pytest.mark.slow
    def test_quick_report_contains_all_sections(self):
        from repro.analysis.report import ReportOptions, build_report

        text = build_report(ReportOptions(quick=True))
        assert "# Deep Note reproduction report" in text
        assert "Figure 2" in text
        assert "Table 1" in text
        assert "Table 2" in text
        assert "Table 3" in text
        assert "## Ablation — container material" in text
        assert "## Extension — attacker objectives" in text
        # No wall-time footer: a seed gives the same bytes on every host
        # and run, so CI can diff the committed results/REPORT.md.
        assert "wall time" not in text
