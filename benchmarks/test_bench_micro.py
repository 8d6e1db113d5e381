"""Microbenchmarks of the substrates (real wall-clock performance).

Unlike the table/figure benches (which measure *virtual* outcomes),
these measure how fast the simulator itself runs — useful to keep the
reproduction usable as experiments grow.
"""

from __future__ import annotations

import pytest

from repro.hdd.drive import HardDiskDrive
from repro.hdd.sector_store import SectorStore
from repro.hdd.servo import OpKind, ServoSystem, VibrationInput
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options
from repro.storage.kv.sstable import SSTableReader
from repro.workloads.db_bench import DbBench, DbBenchConfig
from repro.workloads.fio import FioJob, FioTester, IOMode


def fresh_drive(seed=1):
    return HardDiskDrive(clock=VirtualClock(), rng=make_rng(seed))


def test_drive_sequential_write_rate(benchmark):
    """Raw simulated-drive op rate (static vibration, single attempts)."""
    drive = fresh_drive()

    def run():
        for i in range(2000):
            drive.write((i % 10_000) * 8, 8)

    benchmark(run)
    assert drive.stats.writes >= 2000


def _degrading_vibration(servo: ServoSystem) -> VibrationInput:
    """A tone in the partial-degradation regime (faults, not stalls).

    The fault probability turns over sharply with displacement, so the
    p = 0.5 point is found by bisection rather than a decade scan.
    """
    lo, hi = 1e-9, 1e-6
    for _ in range(60):
        mid = (lo + hi) / 2.0
        p = servo.success_probability(
            OpKind.WRITE, VibrationInput(frequency_hz=700.0, displacement_m=mid)
        )
        if p > 0.5:
            lo = mid
        else:
            hi = mid
    vib = VibrationInput(frequency_hz=700.0, displacement_m=lo)
    p = servo.success_probability(OpKind.WRITE, vib)
    assert 0.05 < p < 0.95, f"bisection left the partial regime: p={p}"
    return vib


def test_drive_retry_path_rate(benchmark):
    """Op rate in the retry-heavy regime of Table 1 (10-15 cm).

    Exercises the RNG draw + retry-penalty loop rather than the
    quiescent single-attempt path the sequential benches hit.
    """
    from repro.errors import MediumError

    drive = fresh_drive()
    drive.set_vibration(_degrading_vibration(drive.profile.servo))
    errors = [0]

    def run():
        for i in range(500):
            try:
                drive.write((i % 10_000) * 8, 8)
            except MediumError:
                errors[0] += 1

    benchmark(run)
    assert drive.stats.retries > 0


def test_servo_chain_rate(benchmark):
    """success_probability throughput over a sweep grid."""
    servo = ServoSystem()
    inputs = [
        VibrationInput(frequency_hz=float(f), displacement_m=1e-8)
        for f in range(100, 2100, 100)
    ]

    def run():
        total = 0.0
        for _ in range(50):
            for vib in inputs:
                total += servo.success_probability(OpKind.WRITE, vib)
        return total

    assert benchmark(run) >= 0.0


def test_sector_store_page_churn(benchmark):
    """Page-granular store under 4 KiB write/read churn."""
    store = SectorStore()
    block = b"\xa5" * 4096

    def run():
        for i in range(1000):
            store.write(i * 8, block)
        for i in range(1000):
            store.read(i * 8, 8)

    benchmark(run)
    assert store.read(0, 8) == block


def test_fio_one_second_run(benchmark):
    """One virtual second of FIO."""
    def run():
        drive = fresh_drive()
        return FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=1.0))

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.throughput_mbps == pytest.approx(22.7, abs=0.4)


def test_filesystem_small_file_churn(benchmark):
    """Create/write/read/unlink loops on the journaling filesystem."""
    drive = fresh_drive()
    fs = SimFS.mkfs(BlockDevice(drive))

    counter = [0]

    def churn():
        for _ in range(50):
            index = counter[0]
            counter[0] += 1
            path = f"/file-{index}"
            fs.create(path)
            fs.write_file(path, b"payload" * 64)
            fs.read_file(path)
            fs.unlink(path)

    benchmark(churn)


def test_kv_put_get_rate(benchmark):
    """LSM store operation rate with flushes enabled."""
    drive = fresh_drive()
    fs = SimFS.mkfs(BlockDevice(drive))
    fs.mkdir("/db")
    db = DB.open(fs, "/db", options=Options(write_buffer_size=256 * 1024))

    counter = [0]

    def run():
        base = counter[0]
        counter[0] += 2000
        for i in range(base, base + 2000):
            db.put(f"key-{i:08d}".encode(), b"v" * 64)
        for i in range(base, base + 2000, 4):
            db.get(f"key-{i:08d}".encode())

    benchmark(run)
    assert db.stats.puts >= 2000


def _flushed_db():
    """A store whose 5,000 preloaded keys sit in one flushed table."""
    drive = fresh_drive()
    fs = SimFS.mkfs(BlockDevice(drive))
    fs.mkdir("/db")
    db = DB.open(fs, "/db", options=Options())
    bench = DbBench(db, DbBenchConfig(num_preload=5_000), rng=make_rng(5))
    bench.fill_seq()
    db.flush()
    return db, bench


def test_kv_flushed_get_rate(benchmark):
    """Point reads of random known keys from a flushed table: the
    memtable miss, bloom probe and one-block key search of a key's
    first lookup.  Each round starts on a table reader that has never
    been queried, so only the ~18% of a round's 2,000 draws that repeat
    a key are memo hits."""
    db, bench = _flushed_db()
    (number,) = db.readers
    path = db.versions.table_path(number)
    blob = db.fs.read_file(path)

    def fresh_reader():
        db.readers[number] = SSTableReader(db.fs, path, blob=blob)

    result = benchmark.pedantic(bench.read_random, args=(2000,), setup=fresh_reader,
                                rounds=20)
    assert result.reads == 2000
    assert result.bytes_moved == 2000 * (16 + 64)  # every key found


def test_kv_repeated_get_rate(benchmark):
    """The same reads once the table reader has memoized every key: a
    memtable miss and one dict probe per lookup."""
    db, bench = _flushed_db()
    for key, _ in db.scan():
        db.get(key)

    result = benchmark(bench.read_random, 2000)
    assert result.reads == 2000
    assert result.bytes_moved == 2000 * (16 + 64)


def test_coupling_chain_evaluation_rate(benchmark):
    """Full physics-chain evaluations per second (planner workload)."""
    from repro.core.attacker import AttackConfig
    from repro.core.coupling import AttackCoupling

    coupling = AttackCoupling.paper_setup()

    def run():
        total = 0.0
        for freq in range(100, 2100, 10):
            config = AttackConfig(float(freq), 140.0, 0.01)
            total += coupling.vibration_at_drive(config).displacement_m
        return total

    total = benchmark(run)
    assert total > 0.0
