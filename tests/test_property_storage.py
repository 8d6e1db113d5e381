"""Property-based tests: filesystem and LSM store behave like models."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdd.drive import HardDiskDrive
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options

_settings = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

names = st.text(
    alphabet=st.sampled_from("abcdefghij0123456789_"), min_size=1, max_size=10
)
payloads = st.binary(max_size=6000)
kv_keys = st.binary(min_size=1, max_size=20)
kv_values = st.binary(max_size=64)


def fresh_fs() -> SimFS:
    drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(99))
    return SimFS.mkfs(BlockDevice(drive), journal_blocks=64, inode_table_blocks=64)


class TestFilesystemModel:
    @given(st.dictionaries(names, payloads, max_size=8))
    @_settings
    def test_files_read_back_exactly(self, spec):
        fs = fresh_fs()
        for name, payload in spec.items():
            fs.create(f"/{name}")
            if payload:
                fs.write_file(f"/{name}", payload)
        for name, payload in spec.items():
            assert fs.read_file(f"/{name}") == payload
        assert fs.listdir("/") == sorted(spec)

    @given(
        st.lists(st.tuples(st.integers(0, 9000), payloads.filter(bool)), min_size=1, max_size=6)
    )
    @_settings
    def test_offset_writes_match_bytearray_model(self, writes):
        fs = fresh_fs()
        fs.create("/f")
        model = bytearray()
        for offset, payload in writes:
            fs.write_file("/f", payload, offset=offset)
            if len(model) < offset + len(payload):
                model.extend(b"\x00" * (offset + len(payload) - len(model)))
            model[offset : offset + len(payload)] = payload
        assert fs.read_file("/f") == bytes(model)

    @given(st.dictionaries(names, payloads, min_size=1, max_size=6))
    @_settings
    def test_sync_remount_preserves_everything(self, spec):
        drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(7))
        device = BlockDevice(drive)
        fs = SimFS.mkfs(device, journal_blocks=64, inode_table_blocks=64)
        for name, payload in spec.items():
            fs.create(f"/{name}")
            fs.write_file(f"/{name}", payload)
        fs.sync()
        remounted = SimFS.mount(device)
        for name, payload in spec.items():
            assert remounted.read_file(f"/{name}") == payload

    @given(st.sets(names, min_size=2, max_size=8), st.data())
    @_settings
    def test_unlink_leaves_others_intact(self, name_set, data):
        fs = fresh_fs()
        for name in name_set:
            fs.create(f"/{name}")
            fs.write_file(f"/{name}", name.encode())
        victim = data.draw(st.sampled_from(sorted(name_set)))
        fs.unlink(f"/{victim}")
        assert fs.listdir("/") == sorted(name_set - {victim})
        for name in name_set - {victim}:
            assert fs.read_file(f"/{name}") == name.encode()


class TestDBModel:
    @given(
        st.lists(
            st.tuples(st.booleans(), kv_keys, kv_values),
            min_size=1,
            max_size=150,
        )
    )
    @_settings
    def test_db_matches_dict_with_flushes(self, ops):
        fs = fresh_fs()
        fs.mkdir("/db")
        db = DB.open(fs, "/db", options=Options(write_buffer_size=4 * 1024))
        model = {}
        for index, (is_delete, key, value) in enumerate(ops):
            if is_delete:
                db.delete(key)
                model.pop(key, None)
            else:
                db.put(key, value)
                model[key] = value
            if index % 37 == 36:
                db.flush()
        for key, value in model.items():
            assert db.get(key) == value
        deleted = {k for _, k, _ in ops} - set(model)
        for key in deleted:
            assert db.get(key) is None

    @given(
        st.dictionaries(kv_keys, kv_values, min_size=1, max_size=60),
    )
    @_settings
    def test_scan_returns_sorted_live_state(self, spec):
        fs = fresh_fs()
        fs.mkdir("/db")
        db = DB.open(fs, "/db")
        for key, value in spec.items():
            db.put(key, value)
        db.flush()
        scanned = list(db.scan())
        assert [k for k, _ in scanned] == sorted(spec)
        assert dict(scanned) == spec

    @given(st.dictionaries(kv_keys, kv_values, min_size=1, max_size=40))
    @_settings
    def test_recovery_equals_pre_crash_state(self, spec):
        drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(13))
        device = BlockDevice(drive)
        fs = SimFS.mkfs(device, journal_blocks=64, inode_table_blocks=64)
        fs.mkdir("/db")
        db = DB.open(fs, "/db")
        for key, value in spec.items():
            db.put(key, value)
        db.wal.sync()
        fs.sync()
        reopened = DB.open(fs, "/db")
        for key, value in spec.items():
            assert reopened.get(key) == value
