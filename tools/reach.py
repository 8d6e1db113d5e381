#!/usr/bin/env python3
"""Reachability gate: every public function in ``src/repro`` earns a caller.

Runs a fixed set of ``deepnote`` commands and every ``examples/*.py``
in this process under ``sys.setprofile`` and records the
``(module, qualname)`` of each ``src/repro`` function that runs.  Only
code objects flagged ``CO_OPTIMIZED`` count, so module and class
bodies executed at import do not; comprehensions do not either, since
one inside a function runs only when its function does.

Every ``def`` of the package is then gated by its qualname, as Python
spells it (``SimFS.read_file``).  Exempt are functions nested in other
functions (they run when their outer function does) and the methods of
``typing.Protocol`` classes, which are declarations.  A function is
*public* when no segment of its qualname starts with ``_``.  An
unreached public function fails the gate unless an entry of
:data:`ALLOWLIST` covers it: ``module.py`` covers the whole module and
``module.py:Qual.name`` that function (and, for a class, its methods).
The functions e2ebench wraps (``e2ebench/layers.py``'s ``TARGETS``)
are covered too, since deleting one breaks the benchmark.  Unreached
private functions are printed per module, but do not fail the gate.
A module that defines no function (``experiments/paper_data.py``) is
reached when it is imported.  ``__init__.py`` files are exempt.

An allowlist entry is stale, and fails the gate, when it names nothing
that exists or when every public function it covers ran, so the list
cannot outlive its reasons.

Every campaign but one runs at the default ``--workers 1``.  The
``--workers 2`` one reaches the parent's side of the worker pool; its
points run in worker processes, which the profiler does not see.  Every
artifact goes to a temporary directory.  One pass takes about a minute,
which is why tier-1 does not run it (``make reach`` and CI's ``full``
job do).

Exit status is 1 when the gate fails, 0 otherwise.

Usage:
    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
import pathlib
import runpy
import sys
import tempfile
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
E2E_LAYERS = ROOT / "e2ebench" / "layers.py"

#: The reason every function e2ebench wraps is kept.
WRAPPED = "e2ebench wraps it; deleting it needs a benchmark change first"


def _reads(where: str) -> str:
    """A test or tool observes another subject through the function."""
    return f"{where} reads what it checks through it"


_RECOVERY = (
    "a recovery path: tests/test_integration_recovery.py and the remount/"
    "reopen tests run it to show committed data survives an attack; no "
    "command restarts a stack"
)
_CALIBRATION = (
    "tests/test_hdd_geometry.py and tests/test_golden_values.py check the "
    "drive model's calibration through it"
)
_HOT_KV = (
    "removing it edits the kind and sequence checks of DB.get, MemTable.get "
    "and SSTableReader.get, the kv-read hot path, so it needs its own "
    "measured change; tests/test_kv_db.py covers it"
)

#: Unreached public functions that stay anyway, each with its reason.
ALLOWLIST: Dict[str, str] = {
    "core/attack.py:FrequencySweepResult.vulnerable_band": _reads(
        "tests/test_core_attack.py (a measured sweep's band) and "
        "tests/test_paper_shapes.py"
    ),
    "core/attack.py:RangeTestResult.max_effective_distance_m": _reads(
        "tests/test_core_attack.py (the range test's distance cliff)"
    ),
    "core/coupling.py:AttackCoupling.offtrack_ratio": _reads(
        "tests/test_core_attack.py::TestCoupling and TestDefenses"
    ),
    "core/fleet.py:DriveRack.drives": _reads(
        "tests/test_fleet_smart_detector.py (a rack's drives) and "
        "tools/make_results.py's RAID study"
    ),
    "experiments/objectives.py:ObjectiveOutcome.completion_fraction": _reads(
        "tests/test_objectives.py (the two objectives' progress)"
    ),
    "hdd/drive.py:HardDiskDrive.flush": (
        "its only caller is BlockDevice.flush, which e2ebench wraps"
    ),
    "hdd/geometry.py:DiskGeometry.capacity_bytes": _CALIBRATION,
    "hdd/geometry.py:DiskGeometry.sectors_per_track_at": _CALIBRATION,
    "hdd/geometry.py:DiskGeometry.track_distance": _CALIBRATION,
    "hdd/mechanics.py:SeekModel.average_seek_s": _CALIBRATION,
    "hdd/mechanics.py:SpindleMechanics.average_rotational_latency_s": _CALIBRATION,
    "hdd/mechanics.py:SpindleMechanics.sector_time_s": _CALIBRATION,
    "hdd/profiles.py:DriveProfile.sequential_read_mbps": _CALIBRATION,
    "hdd/profiles.py:DriveProfile.sequential_write_mbps": _CALIBRATION,
    "hdd/sector_store.py:SectorStore.resident_bytes": _reads(
        "tests/test_perf_engine.py::TestSectorStore (the page store's footprint)"
    ),
    "hdd/servo.py:ServoSystem.is_stalled": _reads(
        "tests/test_hdd_servo.py (the stall region) and tests/test_vecphys.py"
    ),
    "hdd/smart.py:SmartLog.attribute": _reads(
        "the SMART tests in tests/test_fleet_smart_detector.py and "
        "tests/test_hdd_drive.py"
    ),
    "obs/health.py:HealthTracker.rack_state": _reads(
        "tests/test_obs_slo_dashboard.py::TestHealthRollups"
    ),
    "obs/health.py:HealthTracker.unit_state": _reads(
        "tests/test_obs_slo_dashboard.py::TestHealthRollups"
    ),
    "obs/metrics.py:MetricsRegistry.counter_total": _reads(
        "tests/test_obs_core.py and tests/test_obs_pipeline.py"
    ),
    "obs/metrics.py:MetricsRegistry.counter_value": _reads(
        "every telemetry test (tests/test_obs_*.py, tests/test_resilience.py, "
        "tests/test_runtime.py, tests/test_sim_events.py)"
    ),
    "obs/metrics.py:MetricsRegistry.description": _reads(
        "tests/test_obs_slo_dashboard.py::TestMonitorTruncation"
    ),
    "obs/timeseries.py:ValueWindow.mean": _reads(
        "tests/test_obs_timeseries.py::TestWindowing"
    ),
    "obs/trace.py:Tracer.current_track": _reads("tests/test_obs_core.py::TestTracer"),
    "obs/trace.py:Tracer.find_spans": _reads(
        "tests/test_obs_core.py and tests/test_obs_pipeline.py"
    ),
    "runtime/runner.py:SweepRunner.last_reporter": _reads(
        "tests/test_resilience.py (a run's point counts)"
    ),
    "sim/events.py:Event.cancel": (
        "EventQueue.pop skips cancelled events on the sim.step hot path of "
        "cli-quick, so removing it edits that loop; tests/test_sim.py and "
        "tests/test_sim_events.py cover it"
    ),
    "storage/faults.py": (
        "the block-device fake tests/test_fault_injection.py::"
        "TestStackUnderFaults uses to show that SSTable CRCs and the "
        "filesystem error path handle independent faults"
    ),
    "storage/fs/filesystem.py:SimFS.mount": _RECOVERY,
    "storage/fs/fsck.py": (
        "the invariant checker tests/test_integration_recovery.py asserts "
        "after a post-attack remount (committed data survives, fsck comes "
        "back clean)"
    ),
    "storage/fs/inode.py:Extent.blocks": _RECOVERY,
    "storage/fs/inode.py:Inode.from_dict": _RECOVERY,
    "storage/fs/journal.py:Journal.recover": _RECOVERY,
    "storage/kv/bloom.py:BloomFilter.fill_ratio": _reads(
        "tests/test_kv_structures.py::TestBloom (the filter's sizing)"
    ),
    "storage/kv/compaction.py": (
        "e2ebench wraps Compactor.run, so leveled compaction stays until a "
        "benchmark change drops that target; tests/test_kv_db.py::"
        "TestFlushAndCompaction drives it"
    ),
    "storage/kv/db.py:DB.close": (
        "it syncs the WAL before the handle closes, the flush that makes "
        "acknowledged writes durable; no command closes a database, and "
        "tests/test_kv_db.py::TestCrashSemantics checks it"
    ),
    "storage/kv/db.py:DB.compact_range": (
        "compaction's tests drive it through this (tests/test_kv_db.py, "
        "tests/test_ambient_extras.py); it goes with storage/kv/compaction.py"
    ),
    "storage/kv/db.py:DB.delete": "tombstones: " + _HOT_KV,
    "storage/kv/db.py:DB.get_property": _reads(
        "tests/test_ambient_extras.py::TestKVRangeAndProperties (level counts "
        "after compaction)"
    ),
    "storage/kv/db.py:DB.range_scan": (
        "YCSB's scan operation reads through it; tests/test_ycsb_latency.py "
        "runs a scan mix, no command does"
    ),
    "storage/kv/db.py:DB.release_snapshot": "MVCC snapshots: " + _HOT_KV,
    "storage/kv/db.py:DB.scan": (
        "DB.range_scan (YCSB's scan operation) reads through it; "
        "tests/test_ycsb_latency.py runs a scan mix, no command does"
    ),
    "storage/kv/db.py:DB.snapshot": "MVCC snapshots: " + _HOT_KV,
    "storage/kv/db.py:WriteBatch.decode": _RECOVERY,
    "storage/kv/db.py:WriteBatch.delete": "tombstones: " + _HOT_KV,
    "storage/kv/sstable.py:SSTableBuilder.data_bytes": (
        "compaction sizes its output tables with it; it goes with "
        "storage/kv/compaction.py"
    ),
    "storage/kv/sstable.py:SSTableReader.iterate": (
        "compaction and DB.scan merge tables through it"
    ),
    "storage/kv/version.py:FileMetadata.from_dict": _RECOVERY,
    "storage/kv/version.py:FileMetadata.overlaps": (
        "compaction picks its inputs with it; it goes with storage/kv/compaction.py"
    ),
    "storage/kv/version.py:VersionEdit.decode": _RECOVERY,
    "storage/kv/version.py:VersionSet.recover": _RECOVERY,
    "storage/kv/wal.py:WALReader.records": _RECOVERY,
    "storage/oskernel/dmesg.py:DmesgBuffer.count": _reads("tests/test_oskernel.py"),
    "storage/oskernel/dmesg.py:DmesgBuffer.evicted": _reads(
        "tests/test_obs_core.py::TestDmesgEvents"
    ),
    "storage/oskernel/dmesg.py:DmesgBuffer.grep": _reads("tests/test_oskernel.py"),
    "storage/oskernel/dmesg.py:DmesgBuffer.tail": _reads("tests/test_oskernel.py"),
    "storage/oskernel/server.py:UbuntuServer.crashed": _reads(
        "tests/test_oskernel.py::TestUbuntuServerHealthy"
    ),
    "storage/oskernel/shell.py:CommandResult.ok": _reads(
        "tests/test_oskernel.py and tests/test_coverage_gaps.py::TestShellEdges"
    ),
    "vibration/enclosure.py:Enclosure.material": _reads(
        "tests/test_vibration.py and tests/test_core_attack.py (the scenarios' "
        "wall materials)"
    ),
    "workloads/ycsb.py:ServiceRunResult.attack_window": _reads(
        "tests/test_obs_slo_dashboard.py (the attack window a tracer recorded)"
    ),
    "workloads/ycsb.py:YcsbResult.ops_per_second": (
        "tools/make_results.py's ycsb_mixes writes results/ablation_ycsb.txt "
        "with it"
    ),
}

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def commands(tmp: pathlib.Path) -> List[List[str]]:
    """The ``deepnote`` argument vectors of one pass, artifacts in ``tmp``."""
    cache = str(tmp / "cache")
    journal = str(tmp / "journal.jsonl")
    cached = [
        ["table1", "--runtime", "0.2", "--cache-dir", cache],
        ["table2", "--duration", "0.2", "--cache-dir", cache],
        ["fleet", "--racks", "2", "--towers", "5", "--cache-dir", cache],
    ]
    return [
        ["all"],
        ["ablations"],
        ["predict", "--frequency", "650", "--distance", "0.05"],
        ["rack"],
        ["rack", "--bays", "5", "--sweep", "100", "4000", "1"],
        # Fleet health is tracked only under telemetry: the dashboard asks.
        [
            "fleet", "--racks", "4", "--towers", "10",
            "--dashboard-out", str(tmp / "fleet.html"),
        ],
        [
            "ycsb",
            "--slo", "p99<25ms,avail>=99.9",
            "--series-out", str(tmp / "series.jsonl"),
            "--dashboard-out", str(tmp / "dashboard.html"),
        ],
        ["smart"],
        ["report", "--output", str(tmp / "REPORT.md")],
        [
            "figure2", "--runtime", "0.2",
            "--trace", str(tmp / "figure2-trace.json"),
            "--metrics-out", str(tmp / "metrics.prom"),
        ],
        [
            "table3",
            "--trace", str(tmp / "table3-trace.json"),
            "--incident-out", str(tmp / "incident.md"),
        ],
        ["figure2", "--runtime", "0.2", "--cache-dir", cache],
        [
            "figure2", "--runtime", "0.2", "--cache-dir", cache,
            "--resume", "--max-retries", "1",
        ],
        ["figure2", "--runtime", "0.2", "--inject-faults", "3=fail"],
        ["figure2", "--runtime", "0.2", "--workers", "2"],
        ["figure2", "--runtime", "0.2", "--csv", "write"],
        # Each twice: the second run reads every point from the cache.
        *cached,
        *cached,
        # A runner under telemetry merges each point's bundle serially.
        [
            "figure2", "--runtime", "0.2", "--progress",
            "--trace", str(tmp / "runner-trace.json"),
            "--metrics-out", str(tmp / "runner-metrics.prom"),
            "--series-out", str(tmp / "runner-series.jsonl"),
        ],
        # The same for a fleet campaign, whose series hold histogram
        # windows (service/latency).
        [
            "fleet", "--racks", "2", "--towers", "5", "--duration", "12",
            "--rate", "40", "--progress",
            "--series-out", str(tmp / "fleet-series.jsonl"),
        ],
        # A journaled failure, then its replay: both print a DEGRADED row.
        [
            "figure2", "--runtime", "0.2", "--inject-faults", "3=fail",
            "--max-retries", "0", "--journal", journal,
        ],
        [
            "figure2", "--runtime", "0.2", "--inject-faults", "3=fail",
            "--max-retries", "0", "--journal", journal, "--resume",
        ],
    ]


def record_calls(tmp: pathlib.Path) -> Set[Tuple[str, str]]:
    """``(module, qualname)`` of every ``src/repro`` function one pass runs."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(PACKAGE.parent))
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        # Imported under the profiler: some modules run functions at import.
        from repro.cli import main

        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands(tmp):
                status = main(argv)
                if status != 0:
                    raise SystemExit(f"reach: deepnote {' '.join(argv)} exited {status}")
            for example in sorted(EXAMPLES.glob("*.py")):
                runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.setprofile(None)

    calls = set()
    for code in codes:
        path = pathlib.Path(code.co_filename).resolve()
        if (
            code.co_flags & inspect.CO_OPTIMIZED
            and code.co_name not in _COMPREHENSIONS
            and path.is_relative_to(PACKAGE)
        ):
            module = path.relative_to(PACKAGE).as_posix()
            calls.add((module, getattr(code, "co_qualname", code.co_name)))
    return calls


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        if isinstance(base, ast.Subscript):
            base = base.value
        if getattr(base, "id", getattr(base, "attr", None)) == "Protocol":
            return True
    return False


def _defs(node: ast.AST, prefix: str = "") -> Iterator[Tuple[str, ast.AST]]:
    """``(qualname, def)`` of each gated function under ``node``.

    Nested functions, lambdas and ``Protocol`` methods are not yielded.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
        elif isinstance(child, ast.ClassDef):
            if not _is_protocol(child):
                yield from _defs(child, f"{prefix}{child.name}.")
        elif not isinstance(child, ast.Lambda):
            yield from _defs(child, prefix)


def module_functions(source: str) -> Dict[str, int]:
    """Qualname -> lines of each gated function of one module's source.

    The lines of a function run from its first decorator to its end; a
    property's getter and setter share one qualname and add up.
    """
    functions: Dict[str, int] = {}
    for qualname, node in _defs(ast.parse(source)):
        first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
        functions[qualname] = functions.get(qualname, 0) + node.end_lineno - first + 1
    return functions


def package_functions() -> Dict[str, Dict[str, int]]:
    """:func:`module_functions` of every non-``__init__`` module of ``src/repro``."""
    return {
        path.relative_to(PACKAGE).as_posix(): module_functions(
            path.read_text(encoding="utf-8")
        )
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }


def imported_modules() -> Set[str]:
    """Modules of ``src/repro`` that this process has imported."""
    imported = set()
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            parts = name.split(".")[1:]
            imported.add("/".join(parts) + ".py")
    return imported


def wrapped_functions(layers: pathlib.Path = E2E_LAYERS) -> List[str]:
    """``module.py:Qual.name`` of every function e2ebench's ``TARGETS`` wraps."""
    spec = importlib.util.spec_from_file_location("_e2ebench_layers", layers)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up
    spec.loader.exec_module(module)
    return sorted({
        "{}.py:{}".format(target.module.split(".", 1)[1].replace(".", "/"), target.attr)
        for target in module.TARGETS
    })


def is_public(qualname: str) -> bool:
    return not any(part.startswith("_") for part in qualname.split("."))


def _covers(entry: str, module: str, qualname: str) -> bool:
    name, _, qual = entry.partition(":")
    if name != module:
        return False
    return not qual or qualname == qual or qualname.startswith(qual + ".")


#: :func:`classify`'s mark for a function that ran.
RAN = "ran"


def classify(
    functions: Mapping[str, Mapping[str, int]],
    called: Iterable[Tuple[str, str]],
    entries: Iterable[str],
) -> Dict[Tuple[str, str], Optional[str]]:
    """How the gate treats each public ``(module, qualname)``.

    :data:`RAN` when it ran, else the first of ``entries`` (allowlist
    entries, then e2ebench targets) that covers it, else ``None``: the
    function fails the gate.
    """
    called, entries = set(called), list(entries)
    status = {}
    for module in sorted(functions):
        for qualname in sorted(functions[module]):
            if is_public(qualname):
                pair = (module, qualname)
                status[pair] = RAN if pair in called else next(
                    (entry for entry in entries if _covers(entry, *pair)), None
                )
    return status


def problems(
    functions: Mapping[str, Mapping[str, int]],
    status: Mapping[Tuple[str, str], Optional[str]],
    imported: Iterable[str],
    allowlist: Mapping[str, str],
    wrapped: Iterable[str] = (),
) -> List[str]:
    """One line per function or allowlist entry that breaks the rule.

    ``functions`` maps each module to its gated qualnames (an empty map
    for a module that defines no function), ``status`` is
    :func:`classify`'s verdict on them and ``imported`` holds the
    modules that were imported.  ``wrapped`` entries cover like
    allowlist ones but go stale only when they name nothing, since
    e2ebench, not this gate, decides what it wraps.  Empty when the
    gate passes.
    """
    imported, wrapped = set(imported), list(wrapped)
    lines = [
        f"{module}: unreached: nothing imports it"
        for module in sorted(functions)
        if not functions[module] and module not in imported
    ]
    lines += [
        f"{module}:{qualname}: unreached: no command, example or allowlist "
        "entry reaches it"
        for (module, qualname), how in status.items()
        if how is None
    ]
    for entry in sorted(allowlist) + sorted(set(wrapped) - set(allowlist)):
        named = [
            (module, qualname)
            for module in functions
            for qualname in functions[module]
            if _covers(entry, module, qualname)
        ]
        if not named:
            lines.append(f"{entry}: stale allowlist entry: it names nothing that exists")
        elif entry in allowlist and all(
            status[pair] == RAN for pair in named if pair in status
        ):
            lines.append(
                f"{entry}: stale allowlist entry: every public function it covers ran"
            )
    return lines


def unreached_private(
    functions: Mapping[str, Mapping[str, int]], called: Iterable[Tuple[str, str]]
) -> Dict[str, List[str]]:
    """Module -> its private functions that did not run (information only)."""
    called = set(called)
    report = {}
    for module in sorted(functions):
        names = [
            qualname
            for qualname in sorted(functions[module])
            if not is_public(qualname) and (module, qualname) not in called
        ]
        if names:
            report[module] = names
    return report


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="deepnote-reach-") as tmp:
        calls = record_calls(pathlib.Path(tmp))
    functions = package_functions()
    wrapped = wrapped_functions()
    status = classify(functions, calls, [*ALLOWLIST, *wrapped])
    lines = problems(functions, status, imported_modules(), ALLOWLIST, wrapped)
    kept: Dict[str, List[int]] = {}
    for (module, qualname), how in status.items():
        if how not in (RAN, None):
            kept.setdefault(how, []).append(functions[module][qualname])
    ran = sum(how == RAN for how in status.values())
    print(
        f"reach: {ran} of {len(status)} public functions in {len(functions)} "
        f"modules ran; {sum(map(len, kept.values()))} more are kept by "
        f"{len(kept)} allowlist entries and e2ebench targets"
    )
    for entry, sizes in sorted(kept.items()):
        functions_kept = f"{len(sizes)} function" + "s" * (len(sizes) > 1)
        print(
            f"  {entry} ({functions_kept}, {sum(sizes)} lines): "
            f"{ALLOWLIST.get(entry, WRAPPED)}"
        )
    private = unreached_private(functions, calls)
    print(f"reach: {sum(map(len, private.values()))} private functions did not run:")
    for module, names in private.items():
        print(f"  {module}: {', '.join(names)}")
    for line in lines:
        print(f"reach: {line}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
