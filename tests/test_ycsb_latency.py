"""YCSB workloads and FIO latency percentiles."""

import pytest

from repro.core.attacker import AttackConfig
from repro.errors import ConfigurationError
from repro.rng import make_rng
from repro.workloads.fio import FioJob, FioTester, IOMode
from repro.workloads.ycsb import WORKLOADS, YcsbRunner, YcsbWorkload, ZipfianGenerator


class TestZipfian:
    def test_rank_zero_is_most_popular(self):
        gen = ZipfianGenerator(1000, rng=make_rng(1).fork("z"))
        draws = [gen.next() for _ in range(20_000)]
        counts = {}
        for d in draws:
            counts[d] = counts.get(d, 0) + 1
        assert counts[0] == max(counts.values())
        # Heavy skew: the top rank alone takes a sizeable share.
        assert counts[0] / len(draws) > 0.05

    def test_draws_within_population(self):
        gen = ZipfianGenerator(50, rng=make_rng(2).fork("z"))
        assert all(0 <= gen.next() < 50 for _ in range(5000))

    def test_deterministic(self):
        a = ZipfianGenerator(100, rng=make_rng(3).fork("z"))
        b = ZipfianGenerator(100, rng=make_rng(3).fork("z"))
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(0)
        with pytest.raises(ConfigurationError):
            ZipfianGenerator(10, theta=1.5)


class TestYcsbRunner:
    @pytest.fixture
    def runner(self, db, rng):
        runner = YcsbRunner(db, record_count=1000, rng=rng.fork("ycsb"))
        runner.load()
        return runner

    def test_load_phase_populates(self, runner):
        assert runner.db.get(b"user000000000000") is not None
        assert runner.db.get(b"user000000000999") is not None

    def test_workload_c_is_read_only(self, runner):
        result = runner.run(WORKLOADS["C"], duration_s=0.2)
        assert result.writes == 0
        assert result.reads == result.ops
        assert result.found == result.reads  # every key exists

    def test_workload_a_mixes_evenly(self, runner):
        result = runner.run(WORKLOADS["A"], duration_s=0.3)
        assert result.reads == pytest.approx(result.writes, rel=0.25)

    def test_workload_d_inserts_extend_keyspace(self, runner):
        before = runner._inserted
        runner.run(WORKLOADS["D"], duration_s=0.3)
        assert runner._inserted > before

    def test_workload_f_rmw_touches_both_paths(self, runner):
        result = runner.run(WORKLOADS["F"], duration_s=0.2)
        assert result.reads > 0 and result.writes > 0

    def test_scan_workload(self, runner):
        scanny = YcsbWorkload("E-ish", read=0.5, scan=0.5, scan_length=10)
        result = runner.run(scanny, duration_s=0.1)
        assert result.scans > 0

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload("bad", read=0.5)

    def test_run_requires_load(self, db, rng):
        runner = YcsbRunner(db, record_count=10, rng=rng.fork("y"))
        with pytest.raises(ConfigurationError):
            runner.run(WORKLOADS["C"])

    def test_update_heavy_suffers_more_under_attack(self, rng):
        """Write-path bias: A (50% updates) collapses before C (reads)."""
        from repro.core.coupling import AttackCoupling
        from repro.hdd.drive import HardDiskDrive
        from repro.sim.clock import VirtualClock
        from repro.storage.block import BlockDevice
        from repro.storage.fs.filesystem import SimFS
        from repro.storage.kv.db import DB, Options

        rates = {}
        for name in ("A", "C"):
            drive = HardDiskDrive(clock=VirtualClock(), rng=rng.fork(f"d{name}"))
            fs = SimFS.mkfs(BlockDevice(drive), commit_interval_s=3600.0)
            fs.mkdir("/db")
            db = DB.open(fs, "/db", options=Options(wal_sync_every_bytes=64 * 1024))
            runner = YcsbRunner(db, record_count=1000, rng=rng.fork(f"y{name}"))
            runner.load()
            coupling = AttackCoupling.paper_setup()
            coupling.apply(drive, AttackConfig(650.0, 140.0, 0.12))
            result = runner.run(WORKLOADS[name], duration_s=1.0)
            rates[name] = result.ops_per_second
        assert rates["A"] < 0.5 * rates["C"]


class TestFioLatencyPercentiles:
    def test_quiet_percentiles_tight(self, drive):
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_READ, runtime_s=0.3))
        summary = result.latency_summary_ms()
        assert summary is not None
        assert summary["p50"] == pytest.approx(0.23, abs=0.05)
        assert summary["p99"] <= summary["max"]
        assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_attack_fattens_the_tail(self, drive, coupling):
        coupling.apply(drive, AttackConfig(650.0, 140.0, 0.12))
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))
        summary = result.latency_summary_ms()
        # Retry storms push the whole distribution out by ~100x and
        # fatten the tail on top.
        assert summary["p50"] > 5.0  # vs ~0.18 ms quiet
        assert summary["p99"] > 3 * summary["p50"]

    def test_no_response_has_no_percentiles(self, drive, coupling):
        coupling.apply(drive, AttackConfig.paper_best())
        result = FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.5))
        assert result.latency_summary_ms() is None
        assert result.latency_percentile_ms(99.0) is None
