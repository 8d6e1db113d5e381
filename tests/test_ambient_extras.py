"""Wenz ambient noise, FS truncate/statfs, KV range scan/properties."""

import pytest

from repro.acoustics.ambient import AmbientNoise
from repro.errors import ConfigurationError, UnitError


class TestAmbientNoise:
    def test_spectral_level_reasonable_at_650hz(self):
        # Wenz curves put deep-water ambient around 40-80 dB re 1uPa^2/Hz
        # in the hundreds of hertz.
        level = AmbientNoise().spectral_level_db(650.0)
        assert 30.0 < level < 90.0

    def test_shipping_raises_low_frequency_noise(self):
        quiet = AmbientNoise(shipping_level=0.1)
        busy = AmbientNoise(shipping_level=0.9)
        assert busy.spectral_level_db(100.0) > quiet.spectral_level_db(100.0)
        # Shipping barely matters at 10 kHz.
        delta_high = busy.spectral_level_db(10_000.0) - quiet.spectral_level_db(10_000.0)
        assert delta_high < 3.0

    def test_wind_raises_mid_band_noise(self):
        calm = AmbientNoise(wind_speed_ms=1.0)
        storm = AmbientNoise(wind_speed_ms=20.0)
        assert storm.spectral_level_db(1000.0) > calm.spectral_level_db(1000.0)

    def test_band_level_exceeds_spectral_level(self):
        noise = AmbientNoise()
        # Integrating over 100 Hz of bandwidth adds ~20 dB over the PSD.
        band = noise.band_level_db(600.0, 700.0)
        psd = noise.spectral_level_db(650.0)
        assert band == pytest.approx(psd + 20.0, abs=3.0)

    def test_detection_range_grows_with_source_level(self):
        noise = AmbientNoise.quiet_site()
        near = noise.detection_range_m(140.0, 650.0)
        far = noise.detection_range_m(180.0, 650.0)
        assert far == pytest.approx(100.0 * near, rel=0.01)

    def test_detection_easier_at_quiet_sites(self):
        quiet = AmbientNoise.quiet_site().detection_range_m(140.0, 650.0)
        harbor = AmbientNoise.harbor().detection_range_m(140.0, 650.0)
        assert quiet > harbor

    def test_attack_tone_is_audible_beyond_attack_range(self):
        # Security observation: the 140 dB attack is detectable by a
        # hydrophone far beyond its 25 cm effective radius.
        noise = AmbientNoise()
        assert noise.detection_range_m(140.0, 650.0) > 1.0

    def test_validation(self):
        with pytest.raises(UnitError):
            AmbientNoise(shipping_level=2.0)
        with pytest.raises(UnitError):
            AmbientNoise().spectral_level_db(0.0)
        with pytest.raises(UnitError):
            AmbientNoise().band_level_db(700.0, 600.0)


class TestTruncateStatfs:
    def test_truncate_shrinks_and_frees(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"x" * 12288)  # 3 blocks
        before = fs.statfs()["used_blocks"]
        fs.truncate("/f", 4096)
        assert fs.stat("/f").size == 4096
        assert fs.stat("/f").block_count() == 1
        assert fs.statfs()["used_blocks"] == before - 2
        assert fs.read_file("/f") == b"x" * 4096

    def test_truncate_to_zero(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"data")
        fs.truncate("/f", 0)
        assert fs.read_file("/f") == b""
        assert fs.stat("/f").block_count() == 0

    def test_truncate_mid_block_keeps_prefix(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"0123456789")
        fs.truncate("/f", 4)
        assert fs.read_file("/f") == b"0123"

    def test_truncate_extends_with_zeros(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"ab")
        fs.truncate("/f", 6)
        assert fs.read_file("/f") == b"ab\x00\x00\x00\x00"

    def test_truncate_then_regrow_reuses_blocks(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"y" * 8192)
        fs.truncate("/f", 0)
        fs.write_file("/f", b"z" * 8192)
        assert fs.read_file("/f") == b"z" * 8192

    def test_truncate_validation(self, fs):
        fs.create("/f")
        with pytest.raises(ConfigurationError):
            fs.truncate("/f", -1)

    def test_statfs_accounting(self, fs):
        stats = fs.statfs()
        assert stats["inodes_used"] == 1  # just root
        fs.create("/a")
        fs.write_file("/a", b"x" * 4096)
        after = fs.statfs()
        assert after["inodes_used"] == 2
        assert after["used_blocks"] >= stats["used_blocks"] + 1
        assert after["free_blocks"] < stats["free_blocks"]


class TestKVRangeAndProperties:
    def test_range_scan_bounds(self, db):
        for i in range(20):
            db.put(f"{i:02d}".encode(), f"v{i}".encode())
        keys = [k for k, _ in db.range_scan(b"05", b"10")]
        assert keys == [b"05", b"06", b"07", b"08", b"09"]

    def test_range_scan_unbounded(self, db):
        for key in (b"a", b"b", b"c"):
            db.put(key, b"v")
        assert [k for k, _ in db.range_scan()] == [b"a", b"b", b"c"]
        assert [k for k, _ in db.range_scan(start=b"b")] == [b"b", b"c"]

    def test_compact_range_flattens_l0(self, fs):
        from repro.storage.kv.db import DB, Options

        fs.mkdir("/cr")
        db = DB.open(
            fs,
            "/cr",
            options=Options(write_buffer_size=8 * 1024, l0_compaction_trigger=100),
        )
        for i in range(600):
            db.put(f"k{i % 100:04d}".encode(), b"x" * 56)
        assert int(db.get_property("num-files-at-level0")) > 1
        db.compact_range()
        assert int(db.get_property("num-files-at-level0")) <= 1
        for i in range(100):
            assert db.get(f"k{i:04d}".encode()) is not None

    def test_properties(self, db):
        db.put(b"k", b"v")
        assert db.get_property("memtable-bytes") != "0"
        assert db.get_property("last-sequence") == "1"
        assert db.get_property("wal-unsynced-bytes") != "0"
        db.flush()
        assert db.get_property("num-files-at-level0") == "1"
        assert int(db.get_property("total-sst-bytes")) > 0
        assert db.get_property("nonsense") is None
        assert db.get_property("num-files-at-level99") is None
