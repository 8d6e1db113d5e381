"""Table 3: software crashes under a prolonged attack.

The best attacking parameters — 650 Hz, 140 dB SPL, 1 cm, Scenario 2 —
are applied to three victims (Ext4, an Ubuntu server, RocksDB) and the
availability monitor records when each one stops running with an error
output, plus the error signature itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.tables import Table
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.monitor import AvailabilityMonitor, CrashReport
from repro.core.scenario import Scenario
from repro.hdd.smart import SmartLog
from repro.obs import telemetry as obs

from .apps import Ext4Victim, RocksDBVictim, UbuntuVictim
from .paper_data import ATTACK_LEVEL_DB, ATTACK_TONE_HZ, TABLE3_PAPER

__all__ = ["Table3Result", "run_table3"]


@dataclass
class Table3Result:
    """Crash reports per victim (None = survived the window)."""

    reports: Dict[str, Optional[CrashReport]] = field(default_factory=dict)
    descriptions: Dict[str, str] = field(default_factory=dict)
    #: Per-victim SMART forensics, collected only when telemetry is on.
    smart_reports: Dict[str, str] = field(default_factory=dict)

    def average_time_to_crash_s(self) -> Optional[float]:
        """Mean crash time across victims that did crash."""
        crashed = [r.time_to_crash_s for r in self.reports.values() if r is not None]
        if not crashed:
            return None
        return sum(crashed) / len(crashed)

    def render(self) -> str:
        """The Table 3 layout with the paper's times alongside."""
        table = Table(
            "Table 3: crashes under a prolonged attack "
            f"({ATTACK_TONE_HZ:.0f} Hz, {ATTACK_LEVEL_DB:.0f} dB, 1 cm, Scenario 2)",
            ["Application", "Description", "Time to crash", "paper", "Error output"],
        )
        for name, report in self.reports.items():
            paper = TABLE3_PAPER.get(name)
            table.add_row(
                name,
                self.descriptions.get(name, ""),
                "survived" if report is None else f"{report.time_to_crash_s:.1f} s",
                f"{paper:.1f} s" if paper is not None else "-",
                "-" if report is None else report.error_output[:72],
            )
        average = self.average_time_to_crash_s()
        rendered = table.render()
        if average is not None:
            rendered += f"\naverage time to crash: {average:.1f} s (paper: 80.8 s)"
        return rendered

    def incident_report(self, telemetry) -> str:
        """The correlated crash timeline (markdown) for this run.

        ``telemetry`` is the :class:`~repro.obs.telemetry.Telemetry`
        bundle that was installed while :func:`run_table3` ran: its
        tracer holds the watch spans, crash instants, and ingested
        dmesg lines the timeline is built from.
        """
        from repro.obs.incident import build_incident_report

        return build_incident_report(
            list(self.reports.items()),
            tracer=telemetry.tracer,
            metrics=telemetry.metrics,
            smart_reports=self.smart_reports,
            title=(
                "Incident report: prolonged acoustic attack "
                f"({ATTACK_TONE_HZ:.0f} Hz, {ATTACK_LEVEL_DB:.0f} dB, 1 cm)"
            ),
        )


def run_table3(
    deadline_s: float = 300.0,
    seed: Optional[int] = None,
    victims: Optional[List[Callable[[], object]]] = None,
) -> Table3Result:
    """Crash all three victims under the paper's best parameters."""
    coupling = AttackCoupling.paper_setup(Scenario.scenario_2())
    config = AttackConfig(
        frequency_hz=ATTACK_TONE_HZ,
        source_level_db=ATTACK_LEVEL_DB,
        distance_m=0.01,
    )
    factories = victims if victims is not None else [Ext4Victim, UbuntuVictim, RocksDBVictim]
    result = Table3Result()
    tel = obs.get()
    for factory in factories:
        victim = factory()
        result.descriptions[victim.name] = getattr(victim, "description", "")
        smart = SmartLog(victim.drive) if tel is not None else None
        coupling.apply(victim.drive, config)
        monitor = AvailabilityMonitor(victim.drive.clock)
        report = monitor.watch(
            victim,
            description=result.descriptions[victim.name],
            deadline_s=deadline_s,
        )
        result.reports[victim.name] = report
        if tel is not None:
            # Post-mortem forensics: final SMART sample + the victim's
            # kernel log (when it has one) onto the shared timeline.
            smart.sample()
            result.smart_reports[victim.name] = smart.report()
            kernel = getattr(victim, "kernel", None)
            dmesg = getattr(kernel, "dmesg", None)
            if dmesg is not None:
                tel.tracer.ingest_dmesg(
                    dmesg, track=f"victim/{victim.name}/dmesg"
                )
    return result
