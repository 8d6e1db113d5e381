"""Table 2: RocksDB throughput and I/O rate vs. speaker distance.

Each distance gets a fresh stack — drive, block device, filesystem,
key-value store — preloaded with db_bench's fillseq, then measured
under ``readwhilewriting`` while the 650 Hz tone plays.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import Table, format_mbps
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.errors import CampaignAborted, ConfigurationError
from repro.hdd.drive import HardDiskDrive
from repro.rng import make_rng
from repro.runtime import PointFailure, SweepRunner, fingerprint, make_runner
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options
from repro.workloads.db_bench import DbBench, DbBenchConfig, DbBenchResult

from .paper_data import ATTACK_LEVEL_DB, ATTACK_TONE_HZ, TABLE2_PAPER

__all__ = ["Table2Result", "DEFAULT_DISTANCES_M", "run_table2"]

DEFAULT_DISTANCES_M = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)


@dataclass
class Table2Result:
    """Baseline plus per-distance db_bench outcomes."""

    baseline: DbBenchResult
    points: List[Tuple[float, DbBenchResult]] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    def render(self) -> str:
        """The Table 2 layout with the paper's values alongside."""
        table = Table(
            "Table 2: RocksDB readwhilewriting under attack at varied distances "
            f"({ATTACK_TONE_HZ:.0f} Hz, Scenario 2)",
            ["Distance", "Throughput MB/s", "I/O rate ops/s", "paper MB/s / ops/s"],
        )
        paper_base = TABLE2_PAPER[None]
        table.add_row(
            "No Attack",
            format_mbps(self.baseline.throughput_mbps),
            f"{self.baseline.ops_per_second:,.0f}",
            f"{paper_base[0]} / {paper_base[1]:,.0f}",
        )
        for distance_m, result in self.points:
            cm = round(distance_m * 100)
            paper = TABLE2_PAPER.get(cm)
            table.add_row(
                f"{cm} cm",
                format_mbps(result.throughput_mbps),
                f"{result.ops_per_second:,.0f}",
                f"{paper[0]} / {paper[1]:,.0f}" if paper else "-",
            )
        rendered = table.render()
        if self.failures:
            lines = [
                rendered,
                f"DEGRADED: {len(self.failures)} distance"
                f"{'s' if len(self.failures) != 1 else ''} exhausted retries:",
            ]
            lines.extend(f"  - {failure.describe()}" for failure in self.failures)
            rendered = "\n".join(lines)
        return rendered


def _fresh_bench(seed: Optional[int], label: str, duration_s: float) -> Tuple[HardDiskDrive, DbBench]:
    rng = make_rng(seed).fork(label)
    drive = HardDiskDrive(rng=rng.fork("drive"))
    device = BlockDevice(drive)
    fs = SimFS.mkfs(device, commit_interval_s=3600.0)
    fs.mkdir("/db")
    db = DB.open(fs, "/db", options=Options())
    bench = DbBench(
        db,
        DbBenchConfig(num_preload=5_000, duration_s=duration_s, seed_label=label),
        rng=rng.fork("bench"),
    )
    bench.fill_seq()
    return drive, bench


# --------------------------------------------------------------------------
# Module-level point job (picklable, so the distances fan out over a
# SweepRunner pool and journal/memoize like the FIO campaigns)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table2PointSpec:
    distance_m: Optional[float]  # None = the no-attack baseline
    duration_s: float
    seed: Optional[int]


def _table2_point_job(spec: _Table2PointSpec) -> DbBenchResult:
    label = (
        "table2/baseline"
        if spec.distance_m is None
        else f"table2/{spec.distance_m:.3f}"
    )
    drive, bench = _fresh_bench(spec.seed, label, spec.duration_s)
    if spec.distance_m is not None:
        coupling = AttackCoupling.paper_setup(Scenario.scenario_2())
        coupling.apply(
            drive,
            AttackConfig(
                frequency_hz=ATTACK_TONE_HZ,
                source_level_db=ATTACK_LEVEL_DB,
                distance_m=spec.distance_m,
            ),
        )
    return bench.read_while_writing()


def _encode_bench(result: DbBenchResult) -> dict:
    return dataclasses.asdict(result)


def _decode_bench(payload: dict) -> DbBenchResult:
    return DbBenchResult(**payload)


def run_table2(
    distances_m: Sequence[float] = DEFAULT_DISTANCES_M,
    duration_s: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: bool = False,
    runner: "Optional[SweepRunner]" = None,
) -> Table2Result:
    """Run the RocksDB range test of Section 4.3.

    ``workers``/``cache_dir``/``progress`` fan the distances out over a
    :class:`repro.runtime.SweepRunner`; pass ``runner`` to reuse a
    configured (possibly checkpointing/retrying) one.  Without either
    the distances run inline, exactly as before.
    """
    # Checked here, not only by the per-point DbBenchConfig: a retrying
    # runner would turn that error into failure rows instead of a
    # rejected command.
    if not (0.0 < duration_s < math.inf):  # also rejects NaN
        raise ConfigurationError(f"duration must be positive and finite: {duration_s}")
    specs = [_Table2PointSpec(distance_m=None, duration_s=duration_s, seed=seed)]
    specs.extend(
        _Table2PointSpec(distance_m=distance, duration_s=duration_s, seed=seed)
        for distance in distances_m
    )
    if runner is None:
        runner = make_runner(workers=workers, cache_dir=cache_dir, progress=progress)
    if runner is None:
        mapped = [_table2_point_job(spec) for spec in specs]
    else:
        keys = [fingerprint("table2-point/v1", spec) for spec in specs]
        mapped = runner.map(
            _table2_point_job,
            specs,
            keys=keys,
            encode=_encode_bench,
            decode=_decode_bench,
            label="table2",
        )
    baseline = mapped[0]
    if isinstance(baseline, PointFailure):
        raise CampaignAborted(
            "baseline db_bench measurement failed, cannot anchor Table 2: "
            + baseline.describe()
        )
    result = Table2Result(baseline=baseline)
    for spec, outcome in zip(specs[1:], mapped[1:]):
        if isinstance(outcome, PointFailure):
            result.failures.append(outcome)
        else:
            result.points.append((spec.distance_m, outcome))
    return result
