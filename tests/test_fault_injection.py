"""Fault injection: independent failures through the whole stack."""

import pytest

from repro.errors import BlockIOError, ConfigurationError, CorruptionError
from repro.storage.faults import FaultInjector, FaultPlan
from repro.storage.fs.filesystem import SimFS
from repro.storage.raid import RaidArray, RaidLevel
from repro.units import BLOCK_4K


@pytest.fixture
def injector(device, rng):
    return FaultInjector(device, FaultPlan(), rng=rng.fork("inject"))


class TestFaultPlans:
    def test_passthrough_when_plan_is_empty(self, injector):
        injector.write_block(0, b"\x11" * BLOCK_4K)
        assert injector.read_block(0) == b"\x11" * BLOCK_4K
        assert injector.injected_errors == 0

    def test_write_errors_injected_at_rate(self, device, rng):
        injector = FaultInjector(device, FaultPlan(write_error_p=0.3), rng=rng.fork("x"))
        failures = 0
        for i in range(300):
            try:
                injector.write_block(i % 100, b"\x00" * BLOCK_4K)
            except BlockIOError:
                failures += 1
        assert 50 <= failures <= 130  # ~30%

    def test_read_errors_do_not_affect_writes(self, device, rng):
        injector = FaultInjector(device, FaultPlan(read_error_p=1.0), rng=rng.fork("x"))
        injector.write_block(0, b"\x01" * BLOCK_4K)
        with pytest.raises(BlockIOError):
            injector.read_block(0)

    def test_corruption_flips_bits(self, device, rng):
        injector = FaultInjector(device, FaultPlan(corrupt_read_p=1.0), rng=rng.fork("x"))
        payload = b"\x22" * BLOCK_4K
        injector.write_block(0, payload)
        corrupted = injector.read_block(0)
        assert corrupted != payload
        assert sum(a != b for a, b in zip(corrupted, payload)) == 1

    def test_latency_spikes_advance_clock(self, device, rng):
        injector = FaultInjector(
            device, FaultPlan(latency_spike_p=1.0, latency_spike_s=0.5), rng=rng.fork("x")
        )
        before = injector.clock.now
        injector.read_block(0)
        assert injector.clock.now - before >= 0.5
        assert injector.injected_spikes == 1

    def test_death_after_n_ops(self, device, rng):
        injector = FaultInjector(device, FaultPlan(die_after_ops=3), rng=rng.fork("x"))
        for i in range(3):
            injector.write_block(i, b"\x00" * BLOCK_4K)
        with pytest.raises(BlockIOError):
            injector.write_block(3, b"\x00" * BLOCK_4K)
        with pytest.raises(BlockIOError):
            injector.flush()

    def test_plan_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(read_error_p=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(die_after_ops=-1)


class TestStackUnderFaults:
    def test_sstable_checksums_catch_injected_corruption(self, device, rng):
        from repro.storage.kv.sstable import SSTableBuilder, SSTableReader
        from repro.storage.kv.memtable import VALUE

        fs = SimFS.mkfs(device, journal_blocks=64, inode_table_blocks=64)
        builder = SSTableBuilder(fs, "/t.sst")
        for i in range(200):
            builder.add(f"k{i:04d}".encode(), i + 1, VALUE, b"v" * 32)
        builder.finish()
        # Re-read through a corrupting device view: the reader's CRC
        # must notice.  (Bypass the page cache to force a device read.)
        fs.page_cache_enabled = False
        fs._page_cache.clear()
        fs.device = FaultInjector(device, FaultPlan(corrupt_read_p=1.0), rng=rng.fork("c"))
        with pytest.raises(CorruptionError):
            SSTableReader(fs, "/t.sst")

    def test_raid1_rides_through_intermittent_member(self, clock, rng):
        from repro.hdd.drive import HardDiskDrive
        from repro.storage.block import BlockDevice

        good = BlockDevice(HardDiskDrive(clock=clock, rng=rng.fork("g")), name="sda")
        flaky_inner = BlockDevice(
            HardDiskDrive(clock=clock, rng=rng.fork("f")), name="sdb"
        )
        flaky = FaultInjector(flaky_inner, FaultPlan(write_error_p=1.0), rng=rng.fork("i"))
        array = RaidArray(RaidLevel.RAID1, [good, flaky])
        array.write_block(0, b"\x77" * BLOCK_4K)
        assert array.degraded  # the flaky mirror got kicked
        assert array.read_block(0) == b"\x77" * BLOCK_4K

    def test_filesystem_surfaces_injected_write_error(self, device, rng):
        fs = SimFS.mkfs(device, journal_blocks=64, inode_table_blocks=64)
        fs.device = FaultInjector(device, FaultPlan(write_error_p=1.0), rng=rng.fork("w"))
        fs.create("/f")  # namespace op: journaled metadata, no data write yet
        with pytest.raises(BlockIOError):
            fs.write_file("/f", b"payload")
