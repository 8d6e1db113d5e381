"""The ``deepnote`` command-line interface.

Subcommands map one-to-one onto the paper's experiments plus the
ablations::

    deepnote figure2   [--runtime S] [--seed N] [--workers N] [--cache-dir D] [--csv OP]
    deepnote table1    [--runtime S] [--seed N] [--workers N] [--cache-dir D]
    deepnote table2    [--duration S] [--seed N] [--workers N] [--cache-dir D]
    deepnote table3    [--deadline S]
    deepnote ablations [--which material|source|water|defense|drives|all]
                       [--workers N] [--cache-dir D]
    deepnote predict   --frequency HZ --distance M [--level DB] [--scenario N]
    deepnote rack      [--bays N] [--frequency HZ] [--distance M] [--metal]
    deepnote ycsb      [--workload A|B|C|D|F] [--warmup S] [--attack S]
                       [--recovery S] [--frequency HZ] [--level DB]
                       [--distance M] [--records N] [--seed N]
    deepnote smart     [--frequency HZ] [--distance M] [--runtime S]
    deepnote report    [--output PATH] [--full] [--seed N]
    deepnote all       [--workers N] [--cache-dir D]
                       (the four paper experiments, in order)

``--workers`` fans sweep points over a process pool (results are
bit-identical to ``--workers 1``); ``--cache-dir`` memoizes measured
points on disk so re-runs skip them; ``--progress`` reports points/s
and ETA on stderr.

Resilience (campaign commands): ``--journal PATH`` checkpoints every
finished point to an fsync'd journal (defaults to
``<cache-dir>/journal.jsonl`` when a resilience flag is given with
``--cache-dir``); ``--resume`` reloads it and skips completed points —
a killed campaign resumes to byte-identical output; ``--point-timeout``
bounds each measurement; ``--max-retries`` retries failing points with
deterministic backoff before recording a typed failure row;
``--inject-faults SPEC`` scripts worker faults (``ORDINAL[xN]=ACTION
[@S]``, actions fail/hang/slow/kill) to rehearse all of the above.

Telemetry: ``--trace PATH`` records a virtual-clock span trace and
writes Chrome ``trace_event`` JSON (open it in https://ui.perfetto.dev),
``--trace-detail attempts`` raises the granularity to every media
attempt, ``--metrics-out PATH`` dumps the run's metrics registry in
Prometheus text format, and ``table3 --incident-out PATH`` writes the
correlated crash-story report.  ``--series-out PATH`` dumps the run's
windowed time series as JSONL, ``--slo SPEC`` evaluates SLO objectives
over them (``p99<5ms,avail>=99.9`` grammar) and prints the violation
accounting, and ``--dashboard-out PATH`` writes the self-contained HTML
dashboard (series timelines, SLO table, attack-window shading, fleet
health).  Without these flags no telemetry is installed and the hot
paths keep their bit-identical fast path.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from typing import List, Optional

from repro import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="deepnote",
        description=(
            "Deep Note reproduction: underwater acoustic attacks on HDD storage "
            "(HotStorage '23), simulated end to end."
        ),
    )
    parser.add_argument("--version", action="version", version=f"deepnote {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers", type=int, default=1,
            help="campaign worker processes (1 = sequential; results identical)",
        )
        command.add_argument(
            "--cache-dir", default=None,
            help="memoize measured points on disk; re-runs skip them",
        )
        command.add_argument(
            "--progress", action="store_true",
            help="report points/s and ETA on stderr",
        )
        resil = command.add_argument_group("resilience")
        resil.add_argument(
            "--journal", default=None, metavar="PATH",
            help=(
                "checkpoint finished points to this fsync'd journal "
                "(default: <cache-dir>/journal.jsonl when any resilience "
                "flag is combined with --cache-dir)"
            ),
        )
        resil.add_argument(
            "--resume", action="store_true",
            help="skip points already completed in the journal",
        )
        resil.add_argument(
            "--point-timeout", type=float, default=None, metavar="S",
            help="abort any single point measurement after S seconds",
        )
        resil.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help=(
                "retry a failed/timed-out point N times (deterministic "
                "backoff), then record it as a failure row (default 2 "
                "once any resilience flag is given)"
            ),
        )
        resil.add_argument(
            "--inject-faults", default=None, metavar="SPEC",
            help=(
                "deterministic fault plan for drills, e.g. "
                "'3=fail,5x2=slow@0.1,7=kill' "
                "(ORDINAL[xCOUNT]=ACTION[@SECONDS]; "
                "actions: fail, hang, slow, kill)"
            ),
        )
        add_telemetry_flags(command)

    def add_telemetry_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace", default=None, metavar="PATH",
            help="write a Chrome trace_event JSON (open in ui.perfetto.dev)",
        )
        command.add_argument(
            "--trace-detail", choices=("commands", "attempts"), default="commands",
            help="span granularity: per drive command, or every media attempt",
        )
        command.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="write a Prometheus-style text dump of the run's metrics",
        )
        command.add_argument(
            "--series-out", default=None, metavar="PATH",
            help="write the run's windowed time series as JSONL",
        )
        command.add_argument(
            "--dashboard-out", default=None, metavar="PATH",
            help="write a self-contained HTML dashboard of the run",
        )
        command.add_argument(
            "--slo", default=None, metavar="SPEC",
            help=(
                "evaluate SLO objectives over the recorded series and "
                "print the violation accounting, e.g. 'p99<5ms,avail>=99.9'"
            ),
        )

    fig2 = sub.add_parser("figure2", help="throughput vs frequency, Scenarios 1-3")
    fig2.add_argument("--runtime", type=float, default=1.0, help="FIO seconds per point")
    fig2.add_argument("--seed", type=int, default=None)
    fig2.add_argument(
        "--csv", choices=("write", "read"), default=None,
        help="emit the raw CSV series for one panel instead of the charts",
    )
    add_runner_flags(fig2)

    t1 = sub.add_parser("table1", help="FIO throughput/latency vs distance")
    t1.add_argument("--runtime", type=float, default=2.0, help="FIO seconds per distance")
    t1.add_argument("--seed", type=int, default=None)
    add_runner_flags(t1)

    t2 = sub.add_parser("table2", help="RocksDB readwhilewriting vs distance")
    t2.add_argument("--duration", type=float, default=1.0, help="bench seconds per distance")
    t2.add_argument("--seed", type=int, default=None)
    add_runner_flags(t2)

    t3 = sub.add_parser("table3", help="time-to-crash for Ext4 / Ubuntu / RocksDB")
    t3.add_argument("--deadline", type=float, default=300.0, help="give up after this long")
    t3.add_argument(
        "--incident-out", default=None, metavar="PATH",
        help="write the correlated incident report (markdown); implies tracing",
    )
    add_telemetry_flags(t3)

    abl = sub.add_parser("ablations", help="Section 5 design-space ablations")
    abl.add_argument(
        "--which",
        choices=("material", "source", "water", "defense", "drives", "all"),
        default="all",
    )
    add_runner_flags(abl)

    pred = sub.add_parser("predict", help="predict attack effect without a workload")
    pred.add_argument("--frequency", type=float, required=True, help="tone Hz")
    pred.add_argument("--distance", type=float, required=True, help="speaker distance m")
    pred.add_argument("--level", type=float, default=140.0, help="source dB re 1 uPa")
    pred.add_argument("--scenario", type=int, choices=(1, 2, 3), default=2)

    rack = sub.add_parser("rack", help="attack a multi-drive rack, per-bay report")
    rack.add_argument("--bays", type=int, default=5)
    rack.add_argument("--frequency", type=float, default=650.0)
    rack.add_argument("--distance", type=float, default=0.01)
    rack.add_argument("--metal", action="store_true", help="aluminum container")
    rack.add_argument(
        "--sweep",
        nargs=3,
        type=float,
        metavar=("START", "STOP", "STEP"),
        default=None,
        help="also sweep the band once per rack (batched fleet surface) "
        "and report each bay's stalled range",
    )
    add_telemetry_flags(rack)

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale datacenter attack campaign on one event scheduler",
    )
    fleet.add_argument("--racks", type=int, default=4, help="racks in the fleet")
    fleet.add_argument(
        "--towers", type=int, default=50, help="storage towers per rack"
    )
    fleet.add_argument("--bays", type=int, default=5, help="drive bays per tower")
    fleet.add_argument(
        "--raid", choices=("none", "raid0", "raid1", "raid5"), default="raid5",
        help="RAID layout of each tower's bays",
    )
    fleet.add_argument("--metal", action="store_true", help="aluminum container")
    fleet.add_argument(
        "--duration", type=float, default=60.0, help="campaign virtual seconds"
    )
    fleet.add_argument(
        "--rate", type=float, default=200.0, help="host requests/s per rack"
    )
    fleet.add_argument(
        "--write-frac", type=float, default=0.5, help="fraction of requests that write"
    )
    fleet.add_argument(
        "--tick", type=float, default=0.5, help="service batch interval, seconds"
    )
    fleet.add_argument(
        "--rebuild", type=float, default=10.0,
        help="seconds to rebuild a failed member after the attack lifts",
    )
    fleet.add_argument(
        "--attack", action="append", default=None, metavar="SPEC",
        help=(
            "attack window START+DUR@FREQ[/LEVEL[/DIST]] "
            "(repeatable; default 10+30@650/139/0.12)"
        ),
    )
    fleet.add_argument("--seed", type=int, default=0)
    add_runner_flags(fleet)

    ycsb = sub.add_parser(
        "ycsb", help="YCSB serving simulation with one acoustic attack window"
    )
    ycsb.add_argument(
        "--workload", choices=tuple("ABCDF"), default="A", help="YCSB mix"
    )
    ycsb.add_argument("--warmup", type=float, default=2.0, help="quiet seconds before the attack")
    ycsb.add_argument("--attack", type=float, default=3.0, help="attack window seconds")
    ycsb.add_argument("--recovery", type=float, default=3.0, help="quiet seconds after the attack")
    ycsb.add_argument("--frequency", type=float, default=650.0, help="tone Hz")
    ycsb.add_argument("--level", type=float, default=139.0, help="source dB re 1 uPa")
    ycsb.add_argument("--distance", type=float, default=0.12, help="speaker distance m")
    ycsb.add_argument("--records", type=int, default=300, help="loaded record count")
    ycsb.add_argument("--seed", type=int, default=7)
    add_telemetry_flags(ycsb)

    smart = sub.add_parser("smart", help="SMART forensics of an attacked drive")
    smart.add_argument("--frequency", type=float, default=650.0)
    smart.add_argument("--distance", type=float, default=0.12)
    smart.add_argument("--runtime", type=float, default=3.0)

    report = sub.add_parser("report", help="write a full Markdown report")
    report.add_argument(
        "--output", default="REPORT.md",
        help="where to write the report (make bench writes results/REPORT.md)",
    )
    report.add_argument("--full", action="store_true", help="full-fidelity run")
    report.add_argument("--seed", type=int, default=42)

    everything = sub.add_parser("all", help="run every experiment in paper order")
    add_runner_flags(everything)
    return parser


@contextlib.contextmanager
def _campaign_runner(
    args: argparse.Namespace, campaign_kind: str, *campaign_parts
):
    """The (possibly checkpointing/retrying) runner a command asked for.

    A context manager: the runner, or None for the plain sequential
    path, is closed (its journal file with it) when the command ends.
    The campaign fingerprint covers only what changes the physics —
    never ``--workers``/``--cache-dir``/``--progress`` — so a campaign
    journaled at one worker count resumes at any other.
    """
    import os

    from repro.runtime import FaultPlan, fingerprint, make_runner

    journal_path = args.journal
    wants_resilience = (
        args.resume
        or args.point_timeout is not None
        or args.max_retries is not None
        or args.inject_faults is not None
    )
    if journal_path is None and wants_resilience and args.cache_dir is not None:
        journal_path = os.path.join(args.cache_dir, "journal.jsonl")
    campaign = (
        fingerprint(campaign_kind, list(campaign_parts))
        if journal_path is not None
        else None
    )
    fault_plan = (
        FaultPlan.parse(args.inject_faults)
        if args.inject_faults is not None
        else None
    )
    runner = make_runner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=args.progress,
        journal_path=journal_path,
        resume=args.resume,
        campaign=campaign,
        point_timeout_s=args.point_timeout,
        max_retries=args.max_retries,
        fault_plan=fault_plan,
        retry_seed=getattr(args, "seed", None) or 0,
    )
    if runner is None:
        yield None
        return
    with runner:
        yield runner


def _cmd_figure2(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import run_figure2

    with _campaign_runner(args, "figure2/v1", args.runtime, args.seed) as runner:
        result = run_figure2(fio_runtime_s=args.runtime, seed=args.seed, runner=runner)
    if args.csv is not None:
        print(result.to_csv(op=args.csv), end="")
    else:
        print(result.render())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import run_table1

    with _campaign_runner(args, "table1/v1", args.runtime, args.seed) as runner:
        result = run_table1(fio_runtime_s=args.runtime, seed=args.seed, runner=runner)
    print(result.render())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import run_table2

    with _campaign_runner(args, "table2/v1", args.duration, args.seed) as runner:
        result = run_table2(duration_s=args.duration, seed=args.seed, runner=runner)
    print(result.render())
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import run_table3

    result = run_table3(deadline_s=args.deadline)
    print(result.render())
    if args.incident_out is not None:
        import pathlib

        from repro.obs import telemetry as obs_telemetry

        path = pathlib.Path(args.incident_out)
        path.write_text(result.incident_report(obs_telemetry.get()))
        print(f"incident report written to {path}", file=sys.stderr)
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        run_defense_ablation,
        run_drive_type_ablation,
        run_material_ablation,
        run_source_level_ablation,
        run_water_conditions_ablation,
    )

    with _campaign_runner(args, "ablations/v1", args.which) as runner:
        runs = {
            "material": lambda: run_material_ablation(runner=runner),
            "source": lambda: run_source_level_ablation(runner=runner),
            "water": run_water_conditions_ablation,
            "defense": run_defense_ablation,
            "drives": lambda: run_drive_type_ablation(runner=runner),
        }
        names = list(runs) if args.which == "all" else [args.which]
        for name in names:
            print(runs[name]().render())
            print()
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.attacker import AttackConfig
    from repro.core.coupling import AttackCoupling
    from repro.core.scenario import Scenario
    from repro.hdd.profiles import BARRACUDA_500GB
    from repro.hdd.servo import OpKind

    scenario = {
        1: Scenario.scenario_1,
        2: Scenario.scenario_2,
        3: Scenario.scenario_3,
    }[args.scenario]()
    coupling = AttackCoupling.paper_setup(scenario)
    config = AttackConfig(args.frequency, args.level, args.distance)
    vibration = coupling.vibration_at_drive(config)
    servo = BARRACUDA_500GB.servo
    amplitude = servo.offtrack_amplitude_m(vibration)
    print(f"scenario:          {scenario.name}")
    print(f"tone:              {args.frequency:.0f} Hz at {args.level:.0f} dB re 1 uPa")
    print(f"distance:          {args.distance * 100:.0f} cm")
    print(f"chassis motion:    {vibration.displacement_m * 1e9:.1f} nm")
    print(f"head excursion:    {amplitude * 1e9:.1f} nm")
    print(f"write ratio:       {amplitude / servo.threshold_m(OpKind.WRITE):.2f} (>=1 faults)")
    print(f"read ratio:        {amplitude / servo.threshold_m(OpKind.READ):.2f}")
    print(f"stall ratio:       {amplitude / servo.servo_limit_m:.2f} (>=1 no response)")
    print(f"p(write success):  {servo.success_probability(OpKind.WRITE, vibration):.3f}")
    print(f"p(read success):   {servo.success_probability(OpKind.READ, vibration):.3f}")
    return 0


def _cmd_rack(args: argparse.Namespace) -> int:
    from repro.core.attacker import AttackConfig
    from repro.core.fleet import DriveRack
    from repro.errors import ConfigurationError
    from repro.obs import telemetry as obs_telemetry

    if args.sweep is not None:
        start, stop, step = args.sweep
        if not (0.0 < start <= stop < math.inf and 0.0 < step < math.inf):
            raise ConfigurationError(
                "--sweep needs finite 0 < START <= STOP and STEP > 0"
            )
    rack = DriveRack(bays=args.bays, metal=args.metal)
    config = AttackConfig(args.frequency, 140.0, args.distance)
    vibrations = rack.apply_attack(config)
    probabilities = rack.write_success_probabilities()
    tel = obs_telemetry.get()
    if tel is not None:
        from repro.obs.health import HealthTracker

        tracker = HealthTracker(recorder=tel.series)
        rack.record_health(tracker)
        tel.health = tracker  # picked up by main() for the dashboard
    print(
        f"rack of {args.bays} bays, {'metal' if args.metal else 'plastic'} container, "
        f"{args.frequency:.0f} Hz at {args.distance * 100:.0f} cm:"
    )
    print(f"{'bay':>4} {'chassis nm':>11} {'p(write)':>9}  state")
    for bay in sorted(vibrations):
        p = probabilities[bay]
        state = "STALLED" if p == 0.0 else ("healthy" if p == 1.0 else "degraded")
        print(
            f"{bay:>4} {vibrations[bay].displacement_m * 1e9:>11.1f} {p:>9.3f}  {state}"
        )
    print(f"stalled bays: {rack.stalled_bays()}  healthy bays: {rack.healthy_bays()}")
    if args.sweep is not None:
        grid = []
        f = start
        while f <= stop:
            grid.append(f)
            f += step
        surface = rack.sweep_surface(grid, config)
        print(f"\nsweep {start:.0f}-{stop:.0f} Hz (step {step:.0f}, {len(grid)} points):")
        print(f"{'bay':>4} {'stalled pts':>11} {'min p(write)':>13}  stalled band")
        freqs = surface["frequency_hz"]
        for row in surface["bays"]:
            stalled = [f for f, s in zip(freqs, row["stalled"]) if s]
            band = f"{stalled[0]:.0f}-{stalled[-1]:.0f} Hz" if stalled else "-"
            print(
                f"{row['bay']:>4} {len(stalled):>11} {min(row['p_write']):>13.3f}  {band}"
            )
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.fleet import AttackWindow, FleetSim, FleetSpec, run_fleet
    from repro.obs import telemetry as obs_telemetry

    attack_specs = args.attack if args.attack else ["10+30@650/139/0.12"]
    spec = FleetSpec(
        racks=args.racks,
        towers_per_rack=args.towers,
        bays=args.bays,
        raid=args.raid,
        metal=args.metal,
        duration_s=args.duration,
        request_rate_hz=args.rate,
        write_fraction=args.write_frac,
        service_tick_s=args.tick,
        rebuild_s=args.rebuild,
        seed=args.seed,
        attacks=tuple(AttackWindow.parse(text) for text in attack_specs),
    )
    with _campaign_runner(args, "fleet/v1", spec) as runner:
        if runner is None:
            # The canonical path: the whole fleet on one EventScheduler.
            sim = FleetSim(spec)
            tel = obs_telemetry.get()
            if tel is not None and sim.tracker is not None:
                tel.health = sim.tracker  # picked up by main() for the dashboard
            result = sim.run()
        else:
            result = run_fleet(spec, runner=runner)
    print(result.render())
    return 0


def _cmd_ycsb(args: argparse.Namespace) -> int:
    from repro.core.attacker import AttackConfig
    from repro.obs import telemetry as obs_telemetry
    from repro.workloads.ycsb import WORKLOADS, run_service_attack

    config = AttackConfig(args.frequency, args.level, args.distance)
    outcome = run_service_attack(
        WORKLOADS[args.workload],
        warmup_s=args.warmup,
        attack_s=args.attack,
        recovery_s=args.recovery,
        config=config,
        record_count=args.records,
        seed=args.seed,
    )
    print(
        f"ycsb {outcome.workload}: {outcome.ops} ops over "
        f"{outcome.total_s:.1f}s virtual, {outcome.errors} fatal errors, "
        f"{outcome.downtime_s:.1f}s downtime"
    )
    print(
        f"attack window: {outcome.attack_start_s:.1f}-{outcome.attack_end_s:.1f}s "
        f"({args.frequency:.0f} Hz at {args.level:.0f} dB, "
        f"{args.distance * 100:.0f} cm)"
    )
    tel = obs_telemetry.get()
    if tel is not None:
        from repro.obs.dashboard import render_text_summary

        summary = render_text_summary(tel.series)
        if summary:
            print()
            print(summary)
    return 0


def _cmd_smart(args: argparse.Namespace) -> int:
    from repro.core.attacker import AttackConfig
    from repro.core.coupling import AttackCoupling
    from repro.hdd.drive import HardDiskDrive
    from repro.hdd.smart import SmartLog
    from repro.workloads.fio import FioJob, FioTester, IOMode

    drive = HardDiskDrive()
    smart = SmartLog(drive)
    coupling = AttackCoupling.paper_setup()
    coupling.apply(drive, AttackConfig(args.frequency, 140.0, args.distance))
    FioTester(drive).run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=args.runtime))
    smart.sample()
    print(smart.report())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.analysis.report import ReportOptions, build_report

    _prepare_artifact_dirs([args.output])
    text = build_report(ReportOptions(quick=not args.full, seed=args.seed))
    path = pathlib.Path(args.output)
    path.write_text(text)
    print(f"report written to {path} ({len(text.splitlines())} lines)")
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments.figure2 import run_figure2
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2
    from repro.experiments.table3 import run_table3

    with _campaign_runner(args, "all/v1") as runner:
        print(run_figure2(runner=runner).render())
        print()
        print(run_table1(runner=runner).render())
        print()
        print(run_table2(runner=runner).render())
        print()
    print(run_table3().render())
    return 0


def _run_with_abort_hint(handler):
    """Wrap a handler so campaign aborts exit cleanly with a resume hint."""

    def wrapped(args: argparse.Namespace) -> int:
        from repro.errors import CampaignAborted

        try:
            return handler(args)
        except CampaignAborted as exc:
            print(f"deepnote: campaign aborted: {exc}", file=sys.stderr)
            if getattr(args, "journal", None) is not None or (
                getattr(args, "cache_dir", None) is not None
            ):
                print(
                    "deepnote: completed points are journaled; relaunch the "
                    "same command with --resume to continue where it stopped",
                    file=sys.stderr,
                )
            return 1

    return wrapped


_COMMANDS = {
    "figure2": _cmd_figure2,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "ablations": _cmd_ablations,
    "predict": _cmd_predict,
    "rack": _cmd_rack,
    "fleet": _cmd_fleet,
    "ycsb": _cmd_ycsb,
    "smart": _cmd_smart,
    "report": _cmd_report,
    "all": _cmd_all,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (console script ``deepnote``).

    When any telemetry flag is given (``--trace``, ``--metrics-out``,
    table3's ``--incident-out``), the whole command runs under an
    installed :mod:`repro.obs` session and the requested artifacts are
    written after the handler returns; each artifact's parent directory
    is created before the handler starts.  Without them nothing is
    installed and every component keeps its zero-overhead path.

    Invalid input (any :class:`repro.errors.ReproError`, e.g. a NaN or
    out-of-range value) prints one ``deepnote: <Type>: <message>`` line
    on stderr and returns exit code 2, with no traceback.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ReproError as exc:
        message = " ".join(str(exc).split())
        print(f"deepnote: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


def _prepare_artifact_dirs(paths: List[str]) -> None:
    """Create each artifact's parent directory before the command runs.

    A parent that cannot be created, or that exists but is not a
    directory, is a :class:`~repro.errors.ConfigurationError` (exit 2)
    rather than a traceback after a long run.
    """
    import pathlib

    from repro.errors import ConfigurationError

    for path in paths:
        parent = pathlib.Path(path).parent
        try:
            parent.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise ConfigurationError(
                f"cannot write {path}: {parent} is not a directory"
            ) from None
        except OSError as exc:
            raise ConfigurationError(
                f"cannot write {path}: {exc.strerror or exc}"
            ) from None
        if pathlib.Path(path).is_dir():
            raise ConfigurationError(f"cannot write {path}: it is a directory")


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command, under telemetry when a flag asks for it."""
    handler = _run_with_abort_hint(_COMMANDS[args.command])

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics_out", None)
    incident_path = getattr(args, "incident_out", None)
    series_path = getattr(args, "series_out", None)
    dashboard_path = getattr(args, "dashboard_out", None)
    slo_spec = getattr(args, "slo", None)
    artifacts = [
        path
        for path in (trace_path, metrics_path, incident_path, series_path, dashboard_path)
        if path is not None
    ]
    if not artifacts and slo_spec is None:
        return handler(args)

    from repro import obs

    objectives = obs.parse_slo(slo_spec) if slo_spec is not None else None
    _prepare_artifact_dirs(artifacts)
    detail = getattr(args, "trace_detail", "commands")
    with obs.session(obs.Telemetry(tracer=obs.Tracer(detail=detail))) as tel:
        status = handler(args)
    if trace_path is not None:
        spans, events = obs.write_chrome_trace(tel.tracer, trace_path)
        print(
            f"trace written to {trace_path} ({spans} spans, {events} events)",
            file=sys.stderr,
        )
    if metrics_path is not None:
        obs.write_metrics_text(tel.metrics, metrics_path)
        print(f"metrics written to {metrics_path}", file=sys.stderr)
    attack_windows = obs.attack_windows_from_tracer(tel.tracer)
    slo_report = None
    if objectives is not None:
        slo_report = obs.evaluate_slo(
            tel.series, objectives, attack_windows=attack_windows
        )
        print(slo_report.render())
    if series_path is not None:
        obs.write_series_jsonl(tel.series, series_path)
        print(
            f"series written to {series_path} ({len(tel.series)} series)",
            file=sys.stderr,
        )
    if dashboard_path is not None:
        obs.write_dashboard_html(
            tel.series,
            dashboard_path,
            slo_report=slo_report,
            health=getattr(tel, "health", None),
            attack_windows=attack_windows,
            title=f"deepnote {args.command}",
        )
        print(f"dashboard written to {dashboard_path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
