"""Piston source physics, hard links, pinned snapshots."""

import math

import pytest

from repro.acoustics.piston import CircularPiston, bessel_j1
from repro.errors import FileExists, FilesystemError, UnitError
from repro.storage.kv.db import DB, Options, Snapshot
from repro.rng import make_rng


class TestCircularPiston:
    def test_rayleigh_distance(self):
        piston = CircularPiston(radius_m=0.10)
        # a^2/lambda at 650 Hz (lambda ~2.28 m) ~ 4.4 mm.
        assert piston.rayleigh_distance_m(650.0) == pytest.approx(0.0044, abs=0.0005)

    def test_far_field_falls_like_one_over_r(self):
        piston = CircularPiston(radius_m=0.10)
        far = 50.0
        ratio_1 = piston.on_axis_pressure_ratio(far, 650.0)
        ratio_2 = piston.on_axis_pressure_ratio(2 * far, 650.0)
        assert ratio_1 / ratio_2 == pytest.approx(2.0, rel=0.02)

    def test_near_field_bounded_by_two(self):
        piston = CircularPiston(radius_m=0.10)
        for distance in (0.0, 0.001, 0.005, 0.01, 0.05):
            assert 0.0 <= piston.on_axis_pressure_ratio(distance, 10_000.0) <= 2.0

    def test_directivity_on_axis_unity(self):
        piston = CircularPiston(radius_m=0.10)
        assert piston.directivity(650.0, 0.0) == pytest.approx(1.0)

    def test_low_frequency_is_omni(self):
        piston = CircularPiston(radius_m=0.10)
        # ka = 2 pi 650 / 1485 * 0.1 ~ 0.27: essentially omnidirectional.
        assert piston.directivity(650.0, math.radians(60.0)) > 0.95
        assert piston.beamwidth_deg(650.0) == 360.0

    def test_high_frequency_beams(self):
        piston = CircularPiston(radius_m=0.10)
        assert piston.beamwidth_deg(50_000.0) < 30.0
        assert piston.directivity(50_000.0, math.radians(20.0)) < 0.3

    def test_point_source_error_small_in_far_field(self):
        piston = CircularPiston(radius_m=0.10)
        assert abs(piston.point_source_error_db(30.0, 650.0)) < 1.0

    def test_validation(self):
        with pytest.raises(UnitError):
            CircularPiston(radius_m=0.0)
        with pytest.raises(UnitError):
            CircularPiston().on_axis_pressure_ratio(-1.0, 650.0)

    def test_bessel_j1_pinned_values(self):
        # Pinned to the values scipy.special.j1 returns, bit for bit.
        assert bessel_j1(1.0) == 0.44005058574493355
        assert bessel_j1(2.0) == 0.5767248077568734
        # Elsewhere within an ulp or two of the series value.
        assert bessel_j1(-1.0) == pytest.approx(-0.44005058574493355, abs=1e-15)
        assert bessel_j1(5.0) == pytest.approx(-0.3275791375914653, abs=1e-15)
        assert bessel_j1(10.0) == pytest.approx(0.04347274616886141, abs=1e-15)
        assert bessel_j1(25.0) == pytest.approx(-0.1253502495802898, abs=1e-15)
        # J1(0) and the first zero of J1 (rounding leaves ~1e-17).
        assert bessel_j1(0.0) == pytest.approx(0.0, abs=1e-15)
        assert bessel_j1(3.8317059702075125) == pytest.approx(0.0, abs=1e-15)
        for bad in (math.nan, math.inf):
            with pytest.raises(UnitError):
                bessel_j1(bad)


class TestHardLinks:
    def test_link_shares_data(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"shared bytes")
        fs.link("/orig", "/alias")
        assert fs.read_file("/alias") == b"shared bytes"
        fs.write_file("/alias", b"updated bytes")
        assert fs.read_file("/orig") == b"updated bytes"
        assert fs.stat("/orig").nlink == 2

    def test_unlink_one_name_keeps_the_other(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"payload")
        fs.link("/orig", "/alias")
        fs.unlink("/orig")
        assert fs.read_file("/alias") == b"payload"
        assert fs.stat("/alias").nlink == 1

    def test_unlink_last_name_frees_blocks(self, fs):
        fs.create("/orig")
        fs.write_file("/orig", b"x" * 4096)
        fs.link("/orig", "/alias")
        used_before = fs.statfs()["used_blocks"]
        fs.unlink("/orig")
        assert fs.statfs()["used_blocks"] == used_before
        fs.unlink("/alias")
        assert fs.statfs()["used_blocks"] == used_before - 1

    def test_no_directory_links(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FilesystemError):
            fs.link("/d", "/dlink")

    def test_no_clobbering_links(self, fs):
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.link("/a", "/b")

    def test_links_survive_remount(self, fs, device):
        from repro.storage.fs.filesystem import SimFS

        fs.create("/orig")
        fs.write_file("/orig", b"durable")
        fs.link("/orig", "/alias")
        fs.sync()
        remounted = SimFS.mount(device)
        assert remounted.read_file("/alias") == b"durable"
        assert remounted.stat("/alias").ino == remounted.stat("/orig").ino


class TestPinnedSnapshots:
    def test_snapshot_object_reads(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k", snapshot=snap) == b"v1"
        assert db.get(b"k") == b"v2"

    def test_snapshot_survives_flush_and_compaction(self, fs):
        fs.mkdir("/snap")
        options = Options(write_buffer_size=8 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/snap", options=options)
        for i in range(100):
            db.put(f"k{i:03d}".encode(), b"gen1-" + bytes([i]))
        snap = db.snapshot()
        for round_ in range(6):
            for i in range(100):
                db.put(f"k{i:03d}".encode(), f"gen{round_ + 2}-".encode() + bytes([i]))
            db.flush()
        assert db.compactor.compactions_run >= 1
        # The pinned view still reads generation 1 everywhere.
        for i in range(100):
            value = db.get(f"k{i:03d}".encode(), snapshot=snap)
            assert value == b"gen1-" + bytes([i])

    def test_released_snapshot_may_be_reclaimed(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.release_snapshot(snap)
        db.release_snapshot(snap)  # idempotent
        assert snap.sequence not in db._live_snapshots

    def test_snapshot_iterator(self, db):
        db.put(b"a", b"1")
        snap = db.snapshot()
        db.put(b"b", b"2")
        assert list(db.iterator(snapshot=snap)) == [(b"a", b"1")]

    def test_deletes_respect_snapshots_through_compaction(self, fs):
        fs.mkdir("/sd")
        options = Options(write_buffer_size=4 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/sd", options=options)
        for i in range(50):
            db.put(f"k{i:03d}".encode(), b"v" * 30)
        snap = db.snapshot()
        for i in range(50):
            db.delete(f"k{i:03d}".encode())
        for _ in range(4):
            db.flush()
            db.compactor.maybe_compact(max_rounds=4)
        assert db.get(b"k010") is None
        assert db.get(b"k010", snapshot=snap) == b"v" * 30
