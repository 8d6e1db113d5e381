"""Block layer: retries, buffer I/O errors, dmesg wiring."""

import pytest

from repro.errors import BlockIOError, ConfigurationError, UnitError
from repro.hdd.servo import VibrationInput
from repro.storage.block import BlockDevice
from repro.units import BLOCK_4K


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


class TestBasicIO:
    def test_roundtrip(self, device):
        payload = b"\xab" * BLOCK_4K
        device.write_block(10, payload)
        assert device.read_block(10) == payload

    def test_block_size_validation(self, device):
        with pytest.raises(ConfigurationError):
            device.write_block(0, b"short")

    def test_block_range_validation(self, device):
        with pytest.raises(UnitError):
            device.read_block(device.total_blocks)

    def test_total_blocks_consistent_with_drive(self, device):
        assert device.total_blocks == device.drive.total_sectors // 8

    def test_constructor_validation(self, drive):
        with pytest.raises(ConfigurationError):
            BlockDevice(drive, block_size=1000)
        with pytest.raises(ConfigurationError):
            BlockDevice(drive, retries=-1)


class TestErrorHandling:
    def test_stalled_write_fails_after_retries(self, device):
        stall(device.drive)
        before = device.clock.now
        with pytest.raises(BlockIOError):
            device.write_block(0, b"\x00" * BLOCK_4K)
        # (1 + retries) host timeouts: the ~75 s crash horizon.
        expected = (1 + device.retries) * device.drive.profile.host_timeout_s
        assert device.clock.now - before == pytest.approx(expected)
        assert device.stats.buffer_io_errors == 1
        assert device.stats.write_retries == device.retries

    def test_stalled_read_fails_after_retries(self, device):
        stall(device.drive)
        with pytest.raises(BlockIOError):
            device.read_block(0)
        assert device.stats.read_retries == device.retries

    def test_error_callback_receives_kernel_style_message(self, device):
        messages = []
        device.on_buffer_error = messages.append
        stall(device.drive)
        with pytest.raises(BlockIOError):
            device.write_block(7, b"\x00" * BLOCK_4K)
        assert len(messages) == 1
        assert "Buffer I/O error on dev sda, logical block 7" in messages[0]

    def test_flush_surfaces_errors(self, device):
        stall(device.drive)
        with pytest.raises(BlockIOError):
            device.flush()

    def test_errno_is_eio(self, device):
        stall(device.drive)
        try:
            device.write_block(0, b"\x00" * BLOCK_4K)
        except BlockIOError as err:
            assert err.errno == 5
        else:  # pragma: no cover
            pytest.fail("expected BlockIOError")

    def test_recovery_after_attack_clears(self, device):
        stall(device.drive)
        with pytest.raises(BlockIOError):
            device.write_block(0, b"\x00" * BLOCK_4K)
        device.drive.set_vibration(None)
        device.write_block(0, b"\x01" * BLOCK_4K)
        assert device.read_block(0) == b"\x01" * BLOCK_4K
