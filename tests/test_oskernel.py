"""dmesg, processes, kernel, shell, and the Ubuntu server victim."""

import pytest

from repro.errors import ConfigurationError, KernelPanic
from repro.hdd.servo import VibrationInput
from repro.sim.clock import VirtualClock
from repro.storage.oskernel.dmesg import DmesgBuffer
from repro.storage.oskernel.process import ProcessState, ProcessTable
from repro.storage.oskernel.server import UbuntuServer


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


class TestDmesg:
    def test_log_carries_virtual_timestamp(self):
        clock = VirtualClock()
        dmesg = DmesgBuffer(clock)
        clock.advance(12.5)
        entry = dmesg.log("hello")
        assert entry.timestamp == 12.5
        assert "hello" in str(entry)

    def test_grep_and_count(self):
        dmesg = DmesgBuffer(VirtualClock())
        dmesg.log("Buffer I/O error on dev sda")
        dmesg.log("EXT4-fs error")
        dmesg.log("Buffer I/O error on dev sdb")
        assert dmesg.count("Buffer I/O error") == 2
        assert len(dmesg.grep("EXT4")) == 1

    def test_ring_drops_oldest(self):
        dmesg = DmesgBuffer(VirtualClock(), capacity=3)
        for i in range(5):
            dmesg.log(f"line {i}")
        assert len(dmesg) == 3
        assert dmesg.dropped == 2
        assert dmesg.tail(1)[0].message == "line 4"

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            DmesgBuffer(VirtualClock(), capacity=0)


class TestProcessTable:
    def test_spawn_allocates_increasing_pids(self):
        table = ProcessTable()
        a = table.spawn("a")
        b = table.spawn("b")
        assert b.pid == a.pid + 1

    def test_kill_sets_exit_state(self):
        table = ProcessTable()
        proc = table.spawn("daemon")
        proc.kill(1, "storage failed")
        assert not proc.alive
        assert proc.state is ProcessState.DEAD
        assert proc.exit_reason == "storage failed"

    def test_kill_all(self):
        table = ProcessTable()
        for name in ("a", "b", "c"):
            table.spawn(name)
        assert table.kill_all(1, "panic") == 3
        assert table.living() == []

    def test_kill_is_idempotent(self):
        table = ProcessTable()
        proc = table.spawn("x")
        proc.kill(1, "first")
        proc.kill(2, "second")
        assert proc.exit_code == 1


class TestUbuntuServerHealthy:
    def test_boot_creates_standard_tree(self):
        server = UbuntuServer()
        assert "bin" in server.fs.listdir("/")
        assert "syslog" in server.fs.listdir("/var/log")
        assert len(server.kernel.processes.living()) >= 4

    def test_shell_commands_work(self):
        server = UbuntuServer()
        result = server.shell.run("ls /")
        assert result.ok
        assert "bin" in result.stdout
        assert server.shell.run("echo hi").stdout == "hi"
        assert server.shell.run("cat /var/log/syslog").ok
        assert server.shell.run("frobnicate").exit_code == 127

    def test_steps_accumulate_syslog(self):
        server = UbuntuServer()
        for _ in range(40):  # ~10 s: at least one writeback cycle
            server.step()
        assert server.fs.stat("/var/log/syslog").size > len(b"syslog: boot\n")
        assert not server.crashed


class TestUbuntuServerUnderAttack:
    def test_panics_about_81s_into_attack(self):
        server = UbuntuServer()
        # Let the boot-time writeback phase settle, then attack.
        for _ in range(8):
            server.step()
        start = server.drive.clock.now
        stall(server.drive)
        with pytest.raises(KernelPanic) as excinfo:
            for _ in range(10_000):
                server.step()
        elapsed = server.drive.clock.now - start
        assert 70.0 < elapsed < 95.0
        assert "unable to access files" in str(excinfo.value)

    def test_panic_logs_buffer_errors_to_dmesg(self):
        server = UbuntuServer()
        stall(server.drive)
        with pytest.raises(KernelPanic):
            for _ in range(10_000):
                server.step()
        assert server.kernel.dmesg.count("Buffer I/O error") >= 1
        assert server.kernel.buffer_errors() >= 1

    def test_panic_kills_all_processes(self):
        server = UbuntuServer()
        stall(server.drive)
        with pytest.raises(KernelPanic):
            for _ in range(10_000):
                server.step()
        assert server.kernel.processes.living() == []

    def test_shell_raises_after_panic(self):
        server = UbuntuServer()
        stall(server.drive)
        with pytest.raises(KernelPanic):
            for _ in range(10_000):
                server.step()
        with pytest.raises(KernelPanic):
            server.shell.run("ls /")

    def test_steps_after_panic_keep_raising(self):
        server = UbuntuServer()
        stall(server.drive)
        with pytest.raises(KernelPanic):
            for _ in range(10_000):
                server.step()
        with pytest.raises(KernelPanic):
            server.step()
