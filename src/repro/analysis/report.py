"""Full reproduction report generation.

``run_report`` runs each experiment of the report once at a chosen
fidelity; ``render_report`` renders those results as one self-contained
Markdown document: the figure series, every table with paper values
alongside, the ablations, and the extension studies.  ``build_report``
does both, and the CLI exposes it as ``deepnote report``.
``tools/make_results.py`` writes ``results/`` from a single
``run_report``, so the result files and ``REPORT.md`` never disagree.
Everything underneath is seeded and the document records no wall time,
so CI can diff the output run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import __version__, obs
from repro.analysis.tables import Table
from repro.experiments.ablations import (
    run_defense_ablation,
    run_material_ablation,
    run_source_level_ablation,
    run_water_conditions_ablation,
)
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.objectives import run_objective_comparison
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3

__all__ = ["ReportOptions", "ReportRun", "build_report", "render_report", "run_report"]


@dataclass(frozen=True)
class ReportOptions:
    """Fidelity knobs for the report run.

    ``quick`` trades sweep density and measurement windows for speed;
    full fidelity is what ``results/`` holds.
    """

    quick: bool = True
    seed: int = 42


@dataclass(frozen=True)
class ReportRun:
    """The results of one report run, each experiment run once."""

    options: ReportOptions
    figure2: Figure2Result
    table1: Table1Result
    table2: Table2Result
    table3: Table3Result
    #: Table 3's correlated crash timeline (markdown).
    incident: str
    material: Table
    source_level: Table
    water: Table
    defenses: Table
    objectives: Table


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def run_report(options: Optional[ReportOptions] = None) -> ReportRun:
    """Run every experiment the report shows, once each."""
    opts = options if options is not None else ReportOptions()
    fio_runtime = 0.5 if opts.quick else 2.0
    figure2 = run_figure2(fio_runtime_s=fio_runtime, seed=opts.seed)
    table1 = run_table1(fio_runtime_s=fio_runtime, seed=opts.seed)
    table2 = run_table2(duration_s=0.5 if opts.quick else 1.0, seed=opts.seed)
    # Table 3 runs under a telemetry session so the report can include
    # the correlated incident timeline (watch spans, crash instants,
    # kernel log lines, SMART forensics) alongside the table itself.
    with obs.session() as telemetry:
        table3 = run_table3(deadline_s=200.0)
    return ReportRun(
        options=opts,
        figure2=figure2,
        table1=table1,
        table2=table2,
        table3=table3,
        incident=table3.incident_report(telemetry),
        material=run_material_ablation(),
        source_level=run_source_level_ablation(),
        water=run_water_conditions_ablation(),
        defenses=run_defense_ablation(),
        objectives=run_objective_comparison(
            total_s=200.0 if opts.quick else 260.0, seed=opts.seed
        )[-1],
    )


def render_report(run: ReportRun) -> str:
    """The Markdown report of one :func:`run_report`."""
    return "\n".join(
        [
            "# Deep Note reproduction report",
            "",
            f"Library version {__version__}; seed {run.options.seed}; "
            f"fidelity: {'quick' if run.options.quick else 'full'}.",
            "",
            "Every number below is measured from the simulated stack; the",
            "paper's values are shown alongside inside each table.",
            "",
            _section("Figure 2 — throughput vs frequency", run.figure2.render()),
            _section("Table 1 — FIO vs distance", run.table1.render()),
            _section("Table 2 — RocksDB vs distance", run.table2.render()),
            _section("Table 3 — crashes under prolonged attack", run.table3.render()),
            run.incident,
            "",
            _section("Ablation — container material", run.material.render()),
            _section("Ablation — source level vs range", run.source_level.render()),
            _section("Ablation — water conditions", run.water.render()),
            _section("Ablation — defenses", run.defenses.render()),
            _section("Extension — attacker objectives", run.objectives.render()),
        ]
    )


def build_report(options: Optional[ReportOptions] = None) -> str:
    """Run the experiments and return the Markdown report."""
    return render_report(run_report(options))
