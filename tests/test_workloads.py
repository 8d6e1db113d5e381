"""FIO-like and db_bench-like workload tools."""

import pytest

from repro.errors import ConfigurationError
from repro.hdd.servo import VibrationInput
from repro.rng import make_rng
from repro.workloads.db_bench import DbBench, DbBenchConfig
from repro.workloads.fio import FioJob, FioTester, IOMode


def stall(drive):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    drive.set_vibration(VibrationInput(650.0, 2.0 * servo.servo_limit_m / mechanical))


def degrade_writes(drive, ratio=1.3):
    servo = drive.profile.servo
    mechanical = servo.hsa.response(650.0) * servo.head_gain * servo.rejection(650.0)
    from repro.hdd.servo import OpKind

    displacement = ratio * servo.threshold_m(OpKind.WRITE) / mechanical
    drive.set_vibration(VibrationInput(650.0, displacement))


class TestFioBaseline:
    def test_sequential_read_matches_paper_baseline(self, drive):
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_READ, runtime_s=1.0))
        assert result.throughput_mbps == pytest.approx(18.0, abs=0.3)
        assert result.avg_latency_ms == pytest.approx(0.2, abs=0.1)

    def test_sequential_write_matches_paper_baseline(self, drive):
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        assert result.throughput_mbps == pytest.approx(22.7, abs=0.3)

    def test_random_read_slower_than_sequential(self, drive):
        tester = FioTester(drive)
        seq = tester.run(FioJob(mode=IOMode.SEQ_READ, runtime_s=0.5))
        rand = tester.run(
            FioJob(mode=IOMode.RAND_READ, runtime_s=0.5, region_sectors=drive.total_sectors)
        )
        assert rand.throughput_mbps < seq.throughput_mbps / 3

    def test_iops_consistent_with_throughput(self, drive):
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_READ, runtime_s=0.5))
        assert result.iops == pytest.approx(result.throughput_mbps * 1e6 / 4096, rel=0.01)

    def test_runtime_respected(self, drive):
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.25))
        assert result.busy_time_s == pytest.approx(0.25, rel=0.05)

    def test_job_validation(self):
        with pytest.raises(ConfigurationError):
            FioJob(block_bytes=1000)
        with pytest.raises(ConfigurationError):
            FioJob(runtime_s=0.0)


class TestFioUnderAttack:
    def test_stall_reports_no_response(self, drive):
        stall(drive)
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        assert not result.responded
        assert result.throughput_mbps == 0.0
        assert result.avg_latency_ms is None
        assert result.timeout_ops >= 1

    def test_partial_attack_degrades_writes_only(self, drive):
        degrade_writes(drive)
        tester = FioTester(drive)
        write = tester.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        read = tester.run(FioJob(mode=IOMode.SEQ_READ, runtime_s=1.0))
        assert write.throughput_mbps < 5.0
        assert read.throughput_mbps > 15.0

    def test_latency_rises_under_partial_attack(self, drive):
        degrade_writes(drive)
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        assert result.avg_latency_ms > 1.0
        assert result.max_latency_s >= result.avg_latency_s


class TestDbBench:
    def test_fill_seq_loads_keys(self, db):
        bench = DbBench(db, DbBenchConfig(num_preload=500))
        result = bench.fill_seq()
        assert result.ops == 500
        assert not result.aborted
        assert db.get(b"0000000000000499"[-16:]) is not None

    def test_read_random_requires_preload(self, db):
        bench = DbBench(db)
        with pytest.raises(ConfigurationError):
            bench.read_random()

    def test_read_random_finds_values(self, db):
        bench = DbBench(db, DbBenchConfig(num_preload=200))
        bench.fill_seq()
        result = bench.read_random(count=500)
        assert result.reads == 500
        assert result.bytes_moved > 0

    @staticmethod
    def flushed_bench(db):
        """5,000 preloaded keys, all in one flushed table."""
        bench = DbBench(db, DbBenchConfig(num_preload=5_000), rng=make_rng(5))
        bench.fill_seq()
        db.flush()
        assert len(db.readers) == 1
        return bench

    def test_read_random_finds_every_key_of_a_flushed_table(self, db):
        # First lookups: a memtable miss, then the table's bloom probe
        # and key search.
        result = self.flushed_bench(db).read_random(count=2000)
        assert result.reads == 2000 and not result.aborted
        assert result.bytes_moved == 2000 * (16 + 64)  # every key found

    def test_read_random_finds_every_memoized_key(self, db):
        bench = self.flushed_bench(db)
        for key, _ in db.scan():
            db.get(key)  # every key now answers from the reader's memo
        result = bench.read_random(count=2000)
        assert result.reads == 2000 and not result.aborted
        assert result.bytes_moved == 2000 * (16 + 64)

    def test_readwhilewriting_mixes_ops(self, db):
        bench = DbBench(db, DbBenchConfig(num_preload=300, duration_s=0.05, readers=3))
        bench.fill_seq()
        result = bench.read_while_writing()
        assert result.reads == pytest.approx(3 * result.writes, rel=0.05)
        assert result.ops_per_second > 10_000

    def test_rate_limit_paces_writer(self, db):
        bench = DbBench(
            db,
            DbBenchConfig(
                num_preload=300, duration_s=0.5, readers=0, write_rate_limit_ops=1000.0
            ),
        )
        bench.fill_seq()
        result = bench.read_while_writing()
        assert result.writes == pytest.approx(500, rel=0.25)

    def test_stalled_drive_aborts_or_flatlines(self, db):
        # Long enough that the WAL must sync (and hit the dead drive).
        bench = DbBench(db, DbBenchConfig(num_preload=300, duration_s=1.0))
        bench.fill_seq()
        db.flush()
        stall(db.fs.device.drive)
        result = bench.read_while_writing()
        # Either the WAL sync dies (abort) or nothing completes in time.
        assert result.aborted or result.ops_per_second < 2000

    def test_value_generator_deterministic(self, db):
        bench = DbBench(db, DbBenchConfig(num_preload=10))
        assert bench._value(7) == bench._value(7)
        assert bench._value(7) != bench._value(8)
        assert len(bench._value(3)) == bench.config.value_size
