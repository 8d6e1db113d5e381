"""The threat model's two attacker objectives, executed end to end.

Section 3 distinguishes (i) a *controlled throughput-loss* attacker who
induces delays without crashing anything, and (ii) a *crash* attacker
who holds the tone past the stack's tolerance.  The case study only
demonstrates (ii); this experiment runs both against the same victim
type and shows the schedule is what separates them:

* intermittent bursts, each shorter than the ~80 s crash horizon, slow
  the victim's work down roughly in proportion to the duty cycle while
  every component survives;
* one sustained burst kills the filesystem on schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analysis.tables import Table
from repro.core.campaign import CampaignPlan, CampaignPlanner
from repro.core.coupling import AttackCoupling
from repro.core.monitor import AvailabilityMonitor, CrashReport
from repro.core.scenario import Scenario
from repro.errors import BlockIOError, DriveError, ReadOnlyFilesystem
from repro.hdd.drive import HardDiskDrive
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS

__all__ = ["ObjectiveOutcome", "run_objective_comparison"]


@dataclass
class ObjectiveOutcome:
    """What one campaign did to the victim."""

    objective: str
    work_completed: int
    work_attempted: int
    crash: Optional[CrashReport]
    elapsed_s: float

    @property
    def completion_fraction(self) -> float:
        """Fraction of attempted work units that finished."""
        if self.work_attempted == 0:
            return 0.0
        return self.work_completed / self.work_attempted

    @property
    def work_rate_per_s(self) -> float:
        """Completed work units per second — the delay metric.

        Intermittent attacks mostly *delay* work rather than fail it,
        so the rate (not the completion fraction) shows the damage.
        """
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.work_completed / self.elapsed_s

    @property
    def crashed(self) -> bool:
        """Did anything die?"""
        return self.crash is not None


class _FsWorker:
    """A victim doing steady filesystem work under a campaign schedule.

    The attack is installed as a *vibration schedule* on the drive, so
    requests in flight observe bursts starting and stopping — an append
    caught by a 20 s burst simply takes ~20 s, it does not die.
    """

    name = "fs-worker"

    def __init__(self, plan: CampaignPlan, coupling: AttackCoupling, seed: int = 0) -> None:
        self.plan = plan
        rng = make_rng(seed)
        self.drive = HardDiskDrive(clock=VirtualClock(), rng=rng.fork("drive"))
        self.device = BlockDevice(self.drive)
        self.fs = SimFS.mkfs(self.device)
        self.fs.create("/work.log")
        self.work_completed = 0
        self.work_attempted = 0
        start = self.drive.clock.now
        attack_vibration = coupling.vibration_at_drive(plan.config)
        self.drive.set_vibration_schedule(
            lambda t: attack_vibration if plan.active_at(t - start) else None
        )

    def step(self) -> None:
        """One work unit: append a record, then run the journal timer."""
        self.work_attempted += 1
        try:
            self.fs.append("/work.log", b"record " + str(self.work_attempted).encode())
            self.work_completed += 1
        except (BlockIOError, DriveError, ReadOnlyFilesystem):
            pass  # delayed/lost work unit; crash exceptions propagate
        self.fs.tick()  # the flusher's commit timer runs regardless
        self.drive.clock.advance(0.05)


def _run(plan: CampaignPlan, total_s: float, seed: int) -> ObjectiveOutcome:
    coupling = AttackCoupling.paper_setup(Scenario.scenario_2())
    worker = _FsWorker(plan, coupling, seed=seed)
    monitor = AvailabilityMonitor(worker.drive.clock)
    crash = monitor.watch(worker, deadline_s=total_s, max_steps=10_000_000)
    return ObjectiveOutcome(
        objective=plan.objective,
        work_completed=worker.work_completed,
        work_attempted=worker.work_attempted,
        crash=crash,
        elapsed_s=worker.drive.clock.now,
    )


def run_objective_comparison(
    total_s: float = 240.0,
    duty_cycle: float = 0.3,
    seed: int = 0,
) -> Tuple[ObjectiveOutcome, ObjectiveOutcome, ObjectiveOutcome, Table]:
    """Run baseline, degrade, and crash campaigns; return outcomes + table."""
    planner = CampaignPlanner(AttackCoupling.paper_setup(Scenario.scenario_2()))
    quiet_plan = CampaignPlan(
        objective="baseline", config=planner.best_tone_config(), bursts=[]
    )
    degrade_plan = planner.plan_degradation_campaign(
        total_s=total_s, duty_cycle=duty_cycle, burst_s=20.0, start_delay_s=7.0
    )
    crash_plan = planner.plan_crash_campaign(start_delay_s=7.0)
    baseline = _run(quiet_plan, total_s, seed)
    degrade = _run(degrade_plan, total_s, seed)
    crash = _run(crash_plan, total_s, seed)

    table = Table(
        "Threat-model objectives: intermittent degradation vs sustained crash",
        ["campaign", "tone Hz", "on-time s", "work rate /s", "crashed"],
    )
    for plan, outcome in (
        (quiet_plan, baseline),
        (degrade_plan, degrade),
        (crash_plan, crash),
    ):
        table.add_row(
            plan.objective,
            f"{plan.config.frequency_hz:.0f}",
            f"{plan.total_on_time_s:.0f}",
            f"{outcome.work_rate_per_s:.1f}",
            "no" if not outcome.crashed else
            f"yes @ {outcome.crash.time_to_crash_s:.1f}s ({outcome.crash.error_output[:40]})",
        )
    return baseline, degrade, crash, table
