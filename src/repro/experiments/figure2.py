"""Figure 2: HDD throughput vs. attack frequency, Scenarios 1-3.

Sweeps the attack tone at 1 cm / 140 dB for each scenario and measures
FIO sequential write (Figure 2a) and sequential read (Figure 2b)
throughput at every frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.acoustics.signals import sweep_plan
from repro.analysis.plots import ascii_chart
from repro.analysis.tables import Table, format_mbps
from repro.core.attack import AttackSession, FrequencySweepResult
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.runtime import SweepRunner, make_runner

from .paper_data import ATTACK_LEVEL_DB

__all__ = ["Figure2Result", "default_frequencies", "run_figure2"]


def default_frequencies() -> List[float]:
    """The sweep grid: dense through the audio band, sparse above.

    Mirrors the paper's methodology (coarse sweep, refined to 50 Hz
    steps inside the vulnerable band) while keeping the run tractable.
    """
    return sweep_plan(
        start_hz=100.0,
        stop_hz=8000.0,
        coarse_step_hz=500.0,
        fine_step_hz=100.0,
        fine_bands=[(100.0, 2100.0)],
    )


@dataclass
class Figure2Result:
    """Per-scenario sweeps plus rendering helpers."""

    frequencies_hz: List[float]
    sweeps: Dict[str, FrequencySweepResult] = field(default_factory=dict)

    def series(self, op: str) -> Dict[str, List]:
        """(frequency, throughput) series per scenario for ``op``."""
        out: Dict[str, List] = {}
        for name, sweep in self.sweeps.items():
            out[name] = [
                (p.frequency_hz, p.write_mbps if op == "write" else p.read_mbps)
                for p in sweep.points
            ]
        return out

    def _row_frequencies(self) -> List[float]:
        """Frequencies actually measured, joined across scenarios.

        Rows come from each point's own ``frequency_hz`` rather than
        positional indexing into ``self.frequencies_hz``: a sweep run on
        a different grid must not shift (or crash) every row after the
        mismatch.
        """
        seen = set()
        for sweep in self.sweeps.values():
            seen.update(p.frequency_hz for p in sweep.points)
        return sorted(seen)

    def _points_by_frequency(self) -> "Dict[str, Dict[float, object]]":
        return {
            name: {p.frequency_hz: p for p in sweep.points}
            for name, sweep in self.sweeps.items()
        }

    def to_csv(self, op: str = "write") -> str:
        """CSV of the series (freq + one column per scenario).

        For plotting outside the library (matplotlib, gnuplot, a
        spreadsheet); ``results/`` archives the rendered text, and this
        gives downstream users the raw numbers.  Scenarios missing
        a frequency leave that cell empty.
        """
        names = list(self.sweeps)
        by_freq = self._points_by_frequency()
        lines = ["frequency_hz," + ",".join(name.replace(" ", "_") for name in names)]
        for freq in self._row_frequencies():
            cells = [f"{freq:.1f}"]
            for name in names:
                point = by_freq[name].get(freq)
                if point is None:
                    cells.append("")
                else:
                    cells.append(
                        f"{point.write_mbps if op == 'write' else point.read_mbps:.3f}"
                    )
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def failures(self) -> "List[tuple[str, object]]":
        """(scenario, PointFailure) pairs across every sweep."""
        out = []
        for name, sweep in self.sweeps.items():
            for failure in getattr(sweep, "failures", []):
                out.append((name, failure))
        return out

    def render(self) -> str:
        """Charts + table, in the style of Figure 2a/2b."""
        blocks = []
        by_freq = self._points_by_frequency()
        for op, title in (("write", "Figure 2a: Sequential Write"), ("read", "Figure 2b: Sequential Read")):
            blocks.append(title)
            blocks.append(
                ascii_chart(
                    self.series(op),
                    x_label="Hz",
                    y_label="MB/s",
                )
            )
            table = Table(
                f"{title} (MB/s)",
                ["freq_hz"] + list(self.sweeps),
            )
            for freq in self._row_frequencies():
                row = [f"{freq:.0f}"]
                for name in self.sweeps:
                    point = by_freq[name].get(freq)
                    if point is None:
                        row.append("-")
                    else:
                        row.append(format_mbps(point.write_mbps if op == "write" else point.read_mbps))
                table.add_row(*row)
            blocks.append(table.render())
            blocks.append("")
        failures = self.failures()
        if failures:
            blocks.append(
                f"DEGRADED: {len(failures)} point"
                f"{'s' if len(failures) != 1 else ''} exhausted retries "
                "and were recorded as failures:"
            )
            for name, failure in failures:
                blocks.append(f"  - [{name}] {failure.describe()}")
            blocks.append("")
        return "\n".join(blocks)


def run_figure2(
    frequencies_hz: Optional[Sequence[float]] = None,
    scenarios: Optional[Sequence[Scenario]] = None,
    fio_runtime_s: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: bool = False,
    runner: "Optional[SweepRunner]" = None,
) -> Figure2Result:
    """Run the Figure 2 sweep and return the structured result.

    ``workers``/``cache_dir``/``progress`` build a
    :class:`repro.runtime.SweepRunner` (parallel measurement, on-disk
    memoization, points/s reporting); results are bit-identical at any
    worker count.  Pass ``runner`` to reuse a configured one instead.
    """
    freqs = list(frequencies_hz) if frequencies_hz is not None else default_frequencies()
    scens = list(scenarios) if scenarios is not None else Scenario.all_three()
    if runner is None:
        runner = make_runner(workers=workers, cache_dir=cache_dir, progress=progress)
    result = Figure2Result(frequencies_hz=freqs)
    config = AttackConfig(frequency_hz=650.0, source_level_db=ATTACK_LEVEL_DB, distance_m=0.01)
    for scenario in scens:
        session = AttackSession(
            coupling=AttackCoupling.paper_setup(scenario),
            seed=seed,
            fio_runtime_s=fio_runtime_s,
        )
        result.sweeps[scenario.name] = session.frequency_sweep(
            freqs, config=config, runner=runner
        )
    return result
