"""Table 1: FIO throughput and latency vs. speaker distance.

Scenario 2, 650 Hz, 140 dB; distances 1-25 cm plus the no-attack
baseline.  "-" in the latency columns means the drive never responded
within the measurement window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.tables import Table, format_latency_ms, format_mbps
from repro.core.attack import AttackSession, RangeTestResult
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.runtime import SweepRunner, make_runner

from .paper_data import ATTACK_LEVEL_DB, ATTACK_TONE_HZ, TABLE1_PAPER

__all__ = ["Table1Result", "DEFAULT_DISTANCES_M", "run_table1"]

DEFAULT_DISTANCES_M = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)


@dataclass
class Table1Result:
    """Measured range test plus paper comparison."""

    range_test: RangeTestResult

    def render(self) -> str:
        """The Table 1 layout, with the paper's values alongside."""
        table = Table(
            "Table 1: FIO read/write under attack at varied distances "
            f"({self.range_test.frequency_hz:.0f} Hz, Scenario 2)",
            [
                "Distance",
                "Read MB/s",
                "Write MB/s",
                "Read lat ms",
                "Write lat ms",
                "paper R/W MB/s",
            ],
        )
        base = self.range_test.baseline
        paper_base = TABLE1_PAPER[None]
        table.add_row(
            "No Attack",
            format_mbps(base.read.throughput_mbps),
            format_mbps(base.write.throughput_mbps),
            format_latency_ms(base.read.avg_latency_ms),
            format_latency_ms(base.write.avg_latency_ms),
            f"{paper_base[0]}/{paper_base[1]}",
        )
        for point in self.range_test.points:
            cm = round(point.distance_m * 100)
            paper = TABLE1_PAPER.get(cm)
            table.add_row(
                f"{cm} cm",
                format_mbps(point.read.throughput_mbps),
                format_mbps(point.write.throughput_mbps),
                format_latency_ms(point.read.avg_latency_ms),
                format_latency_ms(point.write.avg_latency_ms),
                f"{paper[0]}/{paper[1]}" if paper else "-",
            )
        rendered = table.render()
        failures = self.range_test.failures
        if failures:
            lines = [
                rendered,
                f"DEGRADED: {len(failures)} distance"
                f"{'s' if len(failures) != 1 else ''} exhausted retries:",
            ]
            lines.extend(f"  - {failure.describe()}" for failure in failures)
            rendered = "\n".join(lines)
        return rendered


def run_table1(
    distances_m: Sequence[float] = DEFAULT_DISTANCES_M,
    fio_runtime_s: float = 2.0,
    seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: bool = False,
    runner: "Optional[SweepRunner]" = None,
) -> Table1Result:
    """Run the range test of Section 4.2.

    ``workers``/``cache_dir``/``progress`` fan the distances out over a
    :class:`repro.runtime.SweepRunner`; results are bit-identical at
    any worker count.
    """
    session = AttackSession(
        coupling=AttackCoupling.paper_setup(Scenario.scenario_2()),
        seed=seed,
        fio_runtime_s=fio_runtime_s,
    )
    config = AttackConfig(
        frequency_hz=ATTACK_TONE_HZ,
        source_level_db=ATTACK_LEVEL_DB,
        distance_m=distances_m[0],
    )
    if runner is None:
        runner = make_runner(workers=workers, cache_dir=cache_dir, progress=progress)
    return Table1Result(
        range_test=session.range_test(distances_m, config=config, runner=runner)
    )
