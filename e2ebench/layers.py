"""Which public functions the traced pass wraps, and the per-layer metrics.

Each target is a public function of ``repro`` that marks a layer
boundary.  The driver (``driver.py``) wraps every target in a timing
wrapper; ``run.py`` turns the recorded per-span statistics into the
per-layer metrics named in ``PER_LAYER``.  Nothing under ``src/`` is
edited: the wrappers are installed from outside, in the benchmark's own
driver process.

A span's *self* time is its duration minus the time covered by nested
wrapped calls.  A call is *outer* when its caller is not a wrapped call
of the same layer; layer op and error counts use outer calls only, so a
filesystem op that calls another filesystem op counts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

KV_READWRITE = "kv-readwrite"
KV_READ = "kv-read"
TRACED_SWEEP = "traced-sweep"
CLI_QUICK = "cli-quick"

KV = frozenset({KV_READWRITE, KV_READ})
NONE: FrozenSet[str] = frozenset()
KV_LAYER = "storage.kv"


@dataclass(frozen=True)
class Target:
    """One wrapped public function.

    ``metric`` is the metric prefix its statistics feed and ``layer``
    the layer it belongs to (``metric`` itself unless given); the span
    is named ``<metric>.<attr>``.  ``expect`` lists the workloads meant
    to exercise the function: the coverage check fails when it is never
    called there.
    """

    metric: str
    module: str
    attr: str
    expect: FrozenSet[str] = NONE
    layer_name: str = ""
    #: Count truthy return values (bloom passes, fired events).
    truthy: bool = False
    #: Add ``len(result)`` to the span's units (points mapped).
    units_from_len: bool = False

    @property
    def span(self) -> str:
        return f"{self.metric}.{self.attr}"

    @property
    def layer(self) -> str:
        return self.layer_name or self.metric


ALL = frozenset({KV_READWRITE, KV_READ, TRACED_SWEEP, CLI_QUICK})
ONLY_KV_READ = frozenset({KV_READ})
ONLY_CLI_QUICK = frozenset({CLI_QUICK})
ONLY_TRACED_SWEEP = frozenset({TRACED_SWEEP})

_FS_OPS = (
    "exists", "mkdir", "create", "write_file", "append", "read_file",
    "unlink", "link", "rename", "listdir", "stat", "truncate", "statfs",
    "touch_mtime", "fsync", "sync", "tick",
)
#: The filesystem ops the KV stacks call; the rest only have to exist.
_FS_EXPECT = {
    **dict.fromkeys(
        ("exists", "mkdir", "create", "write_file", "append", "unlink", "rename", "fsync"), KV
    ),
    **dict.fromkeys(("read_file", "listdir", "touch_mtime", "sync"), ONLY_KV_READ),
}


def _kv(metric: str, module: str, attr: str, expect=KV, **flags) -> Target:
    return Target(f"storage.kv.{metric}", f"repro.storage.kv.{module}", attr, expect,
                  layer_name=KV_LAYER, **flags)


# ``expect`` follows what the workloads really call: no workload reads a
# block or flushes the block device, none compacts (Table 2's 5 000-key
# stores never reach a compaction trigger), and the Ubuntu victim runs
# the steps of ``Kernel.tick`` (writeback, panic check) itself instead
# of calling it, so those steps are wrapped under the same metric (at
# some seeds the victim crashes before its first writeback).
TARGETS: Tuple[Target, ...] = (
    # runtime
    Target("runtime.map", "repro.runtime.runner", "SweepRunner.map", ONLY_CLI_QUICK,
           units_from_len=True),
    Target("runtime.sweep", "repro.core.attack", "AttackSession.frequency_sweep",
           frozenset({CLI_QUICK, TRACED_SWEEP})),
    # physics
    Target("core.vibration_at_drive", "repro.core.coupling",
           "AttackCoupling.vibration_at_drive", ALL),
    Target("hdd.servo", "repro.hdd.servo", "ServoSystem.success_probability", ALL),
    # core.fleet and sim
    Target("core.fleet.build", "repro.core.fleet", "FleetSim.__init__", ONLY_CLI_QUICK),
    Target("core.fleet.run", "repro.core.fleet", "FleetSim.run", ONLY_CLI_QUICK),
    Target("core.fleet.service_tick", "repro.core.fleet", "FleetRack.service_tick",
           ONLY_CLI_QUICK),
    Target("sim.step", "repro.sim.events", "EventScheduler.step", ONLY_CLI_QUICK,
           truthy=True),
    # hdd
    Target("hdd", "repro.hdd.drive", "HardDiskDrive.read",
           frozenset({TRACED_SWEEP, CLI_QUICK})),
    Target("hdd", "repro.hdd.drive", "HardDiskDrive.write", ALL),
    # storage (block)
    Target("storage.block", "repro.storage.block", "BlockDevice.read_block"),
    Target("storage.block", "repro.storage.block", "BlockDevice.write_block", KV),
    Target("storage.block", "repro.storage.block", "BlockDevice.flush"),
    # storage.fs, oskernel, monitor
    *(
        Target("storage.fs", "repro.storage.fs.filesystem", f"SimFS.{op}",
               _FS_EXPECT.get(op, NONE))
        for op in _FS_OPS
    ),
    Target("storage.oskernel.tick", "repro.storage.oskernel.kernel", "Kernel.tick"),
    Target("storage.oskernel.tick", "repro.storage.oskernel.kernel",
           "Kernel.run_writeback"),
    Target("storage.oskernel.tick", "repro.storage.oskernel.kernel",
           "Kernel.maybe_panic", ONLY_KV_READ),
    Target("core.monitor.watch", "repro.core.monitor", "AvailabilityMonitor.watch",
           ONLY_KV_READ),
    # storage.kv
    _kv("get", "db", "DB.get"),
    _kv("write", "db", "DB.write"),
    _kv("memtable", "memtable", "MemTable.add"),
    _kv("memtable", "memtable", "MemTable.get"),
    _kv("sst_get", "sstable", "SSTableReader.get"),
    _kv("bloom", "bloom", "BloomFilter.may_contain", truthy=True),
    _kv("flush", "db", "DB.flush"),
    _kv("compaction", "compaction", "Compactor.run", NONE),
    _kv("wal_sync", "wal", "WALWriter.sync"),
    # workloads
    Target("workloads.db_bench", "repro.workloads.db_bench", "DbBench.fill_seq", KV),
    Target("workloads.db_bench", "repro.workloads.db_bench", "DbBench.read_random"),
    Target("workloads.db_bench", "repro.workloads.db_bench",
           "DbBench.read_while_writing", KV),
    Target("workloads.fio", "repro.workloads.fio", "FioTester.run",
           frozenset({TRACED_SWEEP, CLI_QUICK})),
    Target("workloads.ycsb", "repro.workloads.ycsb", "YcsbRunner.load", ONLY_CLI_QUICK),
    Target("workloads.ycsb", "repro.workloads.ycsb", "YcsbRunner.run", ONLY_CLI_QUICK),
    # obs
    Target("obs.record", "repro.obs.trace", "Tracer.record",
           frozenset({TRACED_SWEEP, CLI_QUICK})),
    Target("obs.export", "repro.obs.exporters", "write_chrome_trace", ONLY_TRACED_SWEEP),
    Target("obs.series_dashboard", "repro.obs.exporters", "write_series_jsonl",
           ONLY_CLI_QUICK),
    Target("obs.series_dashboard", "repro.obs.exporters", "write_dashboard_html",
           ONLY_CLI_QUICK),
)

#: The vecphys entry points are read from ``repro.vecphys.__all__`` at
#: install time (all but the ``available`` probe); as a group they must
#: be called on cli-quick.
VECPHYS_MODULE = "repro.vecphys"
VECPHYS_LAYER = "vecphys"
VECPHYS_EXPECT = frozenset({CLI_QUICK})

#: Spans whose calls are the work counts behind ``kv_ops_per_s`` and
#: ``drive_cmds_per_s``.
KV_OPS_SPANS = ("storage.kv.get.DB.get", "storage.kv.write.DB.write")
DRIVE_CMD_SPANS = ("hdd.HardDiskDrive.read", "hdd.HardDiskDrive.write")

# Per-span statistic slots, as written by the driver.
CALLS, OUTER, TOTAL_S, SELF_S, RAISED, TRUTHY, UNITS = range(7)
STAT_SLOTS = 7

#: Every per-layer metric: (name, unit).  Ratios come with their base
#: (named in the comment beside each).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("startup.import_s", "s"),
    ("startup.numpy_s", "s"),
    ("startup.scipy_s", "s"),
    ("runtime.map.calls", "count"),
    ("runtime.map.s", "s"),
    ("runtime.points", "count"),
    ("runtime.pool_overhead_s", "s"),
    ("core.vibration_at_drive.calls", "count"),
    ("core.vibration_at_drive.self_s", "s"),
    ("vecphys.calls", "count"),
    ("vecphys.self_s", "s"),
    ("hdd.servo.calls", "count"),
    ("hdd.servo.self_s", "s"),
    ("core.fleet.build_s", "s"),
    ("core.fleet.run.self_s", "s"),
    ("core.fleet.service_tick.calls", "count"),
    ("core.fleet.service_tick.self_s", "s"),
    ("sim.events", "count"),
    ("sim.step.self_s", "s"),
    ("hdd.cmds", "count"),
    ("hdd.self_s", "s"),
    ("hdd.errors", "count"),
    ("storage.block.ops", "count"),
    ("storage.block.self_s", "s"),
    ("storage.block.errors", "count"),
    ("storage.block.writes_per_kv_write", "ratio"),  # base: storage.kv.write.calls
    ("storage.fs.ops", "count"),
    ("storage.fs.self_s", "s"),
    ("storage.fs.errors", "count"),
    ("storage.oskernel.tick.self_s", "s"),
    ("core.monitor.watch.self_s", "s"),
    ("storage.kv.get.calls", "count"),
    ("storage.kv.get.self_s", "s"),
    ("storage.kv.write.calls", "count"),
    ("storage.kv.write.self_s", "s"),
    ("storage.kv.memtable.self_s", "s"),
    ("storage.kv.sst_get.calls", "count"),
    ("storage.kv.sst_get.self_s", "s"),
    ("storage.kv.sst_probes_per_get", "ratio"),  # base: storage.kv.get.calls
    ("storage.kv.bloom.calls", "count"),
    ("storage.kv.bloom.pass_ratio", "ratio"),  # base: storage.kv.bloom.calls
    ("storage.kv.flush.calls", "count"),
    ("storage.kv.flush.self_s", "s"),
    ("storage.kv.compaction.calls", "count"),
    ("storage.kv.compaction.self_s", "s"),
    ("storage.kv.wal_sync.calls", "count"),
    ("storage.kv.errors", "count"),
    ("workloads.db_bench.self_s", "s"),
    ("workloads.fio.self_s", "s"),
    ("workloads.ycsb.self_s", "s"),
    ("obs.spans", "count"),
    ("obs.record.self_s", "s"),
    ("obs.record_us_per_span", "us"),  # base: obs.spans
    ("obs.export.s", "s"),
    ("obs.export_us_per_span", "us"),  # base: obs.spans
    ("obs.series_dashboard.s", "s"),
    ("kv_ops_per_s", "1/s"),  # base: storage.kv.get.calls + storage.kv.write.calls
    ("drive_cmds_per_s", "1/s"),  # base: hdd.cmds
    ("fail_ratio", "ratio"),  # base: the run's attempted commands
    ("bench.trace_overhead_s", "s"),
)

#: Metrics that are counts of work: they must repeat exactly between
#: traced passes of one seed.
COUNT_METRICS = frozenset(name for name, unit in PER_LAYER if unit == "count")


def merge_stats(into: Dict[str, List[float]], stats: Dict[str, List[float]]) -> None:
    """Add one process's per-span statistics into a running total."""
    for span, row in stats.items():
        total = into.setdefault(span, [0] * STAT_SLOTS)
        for slot, value in enumerate(row):
            total[slot] += value


def _sum(stats: Dict[str, List[float]], prefix: str, slot: int) -> float:
    """Sum one slot over the span ``prefix`` and every span below it."""
    return sum(
        row[slot]
        for span, row in stats.items()
        if span == prefix or span.startswith(prefix + ".")
    )


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def span_metrics(stats: Dict[str, List[float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all commands merged).

    Covers every ``PER_LAYER`` metric except the ones measured outside
    the spans (``startup.*``, ``runtime.pool_overhead_s``,
    ``kv_ops_per_s``, ``fail_ratio`` and ``bench.trace_overhead_s``).
    """

    def s(prefix: str, slot: int) -> float:
        return _sum(stats, prefix, slot)

    kv_write_calls = s("storage.kv.write", CALLS)
    kv_get_calls = s("storage.kv.get", CALLS)
    spans = s("obs.record", CALLS)
    return {
        "runtime.map.calls": s("runtime.map", CALLS),
        "runtime.map.s": s("runtime.map", TOTAL_S),
        "runtime.points": s("runtime.map", UNITS),
        "core.vibration_at_drive.calls": s("core.vibration_at_drive", CALLS),
        "core.vibration_at_drive.self_s": s("core.vibration_at_drive", SELF_S),
        "vecphys.calls": s(VECPHYS_LAYER, OUTER),
        "vecphys.self_s": s(VECPHYS_LAYER, SELF_S),
        "hdd.servo.calls": s("hdd.servo", CALLS),
        "hdd.servo.self_s": s("hdd.servo", SELF_S),
        "core.fleet.build_s": s("core.fleet.build", TOTAL_S),
        "core.fleet.run.self_s": s("core.fleet.run", SELF_S),
        "core.fleet.service_tick.calls": s("core.fleet.service_tick", CALLS),
        "core.fleet.service_tick.self_s": s("core.fleet.service_tick", SELF_S),
        "sim.events": s("sim.step", TRUTHY),
        "sim.step.self_s": s("sim.step", SELF_S),
        "hdd.cmds": s("hdd.HardDiskDrive", CALLS),
        "hdd.self_s": s("hdd.HardDiskDrive", SELF_S),
        "hdd.errors": s("hdd.HardDiskDrive", RAISED),
        "storage.block.ops": s("storage.block", OUTER),
        "storage.block.self_s": s("storage.block", SELF_S),
        "storage.block.errors": s("storage.block", RAISED),
        "storage.block.writes_per_kv_write": _ratio(
            s("storage.block.BlockDevice.write_block", CALLS), kv_write_calls
        ),
        "storage.fs.ops": s("storage.fs", OUTER),
        "storage.fs.self_s": s("storage.fs", SELF_S),
        "storage.fs.errors": s("storage.fs", RAISED),
        "storage.oskernel.tick.self_s": s("storage.oskernel.tick", SELF_S),
        "core.monitor.watch.self_s": s("core.monitor.watch", SELF_S),
        "storage.kv.get.calls": kv_get_calls,
        "storage.kv.get.self_s": s("storage.kv.get", SELF_S),
        "storage.kv.write.calls": kv_write_calls,
        "storage.kv.write.self_s": s("storage.kv.write", SELF_S),
        "storage.kv.memtable.self_s": s("storage.kv.memtable", SELF_S),
        "storage.kv.sst_get.calls": s("storage.kv.sst_get", CALLS),
        "storage.kv.sst_get.self_s": s("storage.kv.sst_get", SELF_S),
        "storage.kv.sst_probes_per_get": _ratio(s("storage.kv.sst_get", CALLS), kv_get_calls),
        "storage.kv.bloom.calls": s("storage.kv.bloom", CALLS),
        "storage.kv.bloom.pass_ratio": _ratio(
            s("storage.kv.bloom", TRUTHY), s("storage.kv.bloom", CALLS)
        ),
        "storage.kv.flush.calls": s("storage.kv.flush", CALLS),
        "storage.kv.flush.self_s": s("storage.kv.flush", SELF_S),
        "storage.kv.compaction.calls": s("storage.kv.compaction", CALLS),
        "storage.kv.compaction.self_s": s("storage.kv.compaction", SELF_S),
        "storage.kv.wal_sync.calls": s("storage.kv.wal_sync", CALLS),
        "storage.kv.errors": s("storage.kv", RAISED),
        "workloads.db_bench.self_s": s("workloads.db_bench", SELF_S),
        "workloads.fio.self_s": s("workloads.fio", SELF_S),
        "workloads.ycsb.self_s": s("workloads.ycsb", SELF_S),
        "obs.spans": spans,
        "obs.record.self_s": s("obs.record", SELF_S),
        "obs.record_us_per_span": _ratio(s("obs.record", SELF_S) * 1e6, spans),
        "obs.export.s": s("obs.export", TOTAL_S),
        "obs.export_us_per_span": _ratio(s("obs.export", TOTAL_S) * 1e6, spans),
        "obs.series_dashboard.s": s("obs.series_dashboard", TOTAL_S),
    }


def sweep_seconds(stats: Dict[str, List[float]]) -> float:
    """Inclusive time of the campaign sweeps (the work ``map`` serves)."""
    return _sum(stats, "runtime.sweep", TOTAL_S)


def counts(stats: Dict[str, List[float]]) -> Dict[str, int]:
    """The end-to-end work counts: KV operations and drive commands."""
    return {
        "kv_ops": int(sum(stats.get(span, [0])[CALLS] for span in KV_OPS_SPANS)),
        "drive_cmds": int(sum(stats.get(span, [0])[CALLS] for span in DRIVE_CMD_SPANS)),
    }
