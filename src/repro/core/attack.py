"""Attack sessions: the measurement campaigns of Section 4.

An :class:`AttackSession` owns a fresh victim drive and a coupling
chain, and runs the paper's campaigns:

* :meth:`frequency_sweep` — Section 4.1 / Figure 2: hold the speaker at
  1 cm, sweep the tone, measure FIO sequential read/write throughput at
  each frequency.
* :meth:`range_test` — Section 4.2 / Table 1: hold 650 Hz, step the
  speaker away from the enclosure, measure throughput and latency.
* :meth:`sustained_attack` — Section 4.4 precursor: apply one tone for
  a fixed duration while a workload runs (crash campaigns build on this
  via :mod:`repro.core.monitor`).

Every campaign point builds a fresh rig from a label-derived RNG fork,
so points are pure functions of ``(coupling, config, point, seed)`` and
independent of execution order.  The sweep methods accept a
:class:`repro.runtime.SweepRunner` to exploit that: points fan out over
a process pool and memoize on disk while staying bit-identical to a
serial run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.errors import CampaignAborted, ConfigurationError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import make_barracuda_profile
from repro.obs import telemetry as obs
from repro.obs.trace import NULL_TRACER
from repro.rng import make_rng
from repro.runtime.retry import PointFailure
from repro.sim.clock import VirtualClock
from repro.workloads.fio import FioJob, FioResult, FioTester, IOMode

from .attacker import AttackConfig
from .coupling import AttackCoupling

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.runtime import SweepRunner

__all__ = [
    "SweepPoint",
    "FrequencySweepResult",
    "RangePoint",
    "RangeTestResult",
    "AttackSession",
    "encode_sweep_point",
    "decode_sweep_point",
    "encode_range_point",
    "decode_range_point",
]


@dataclass(frozen=True)
class SweepPoint:
    """Throughput measured at one attack frequency."""

    frequency_hz: float
    write_mbps: float
    read_mbps: float


@dataclass
class FrequencySweepResult:
    """Outcome of a Section 4.1-style frequency sweep for one scenario.

    ``failures`` holds the points that exhausted their retry budget
    under a resilient runner: the sweep completed without them, and
    renderers surface them as degraded rows instead of aborting.
    """

    scenario_name: str
    baseline_write_mbps: float
    baseline_read_mbps: float
    points: List[SweepPoint] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    def vulnerable_band(self, loss_fraction: float = 0.5, op: str = "write") -> "tuple[float, float] | None":
        """(low, high) frequency of the contiguous most-affected band.

        A frequency belongs to the band when throughput drops below
        ``(1 - loss_fraction)`` of baseline.  Returns None if no
        frequency qualifies.  ``op`` must be ``"write"`` or ``"read"``.
        """
        if not 0.0 < loss_fraction <= 1.0:
            raise ConfigurationError("loss fraction must be in (0, 1]")
        if op not in ("write", "read"):
            raise ConfigurationError(
                f"unknown op {op!r}: expected 'write' or 'read'"
            )
        baseline = self.baseline_write_mbps if op == "write" else self.baseline_read_mbps
        cutoff = (1.0 - loss_fraction) * baseline
        ordered = sorted(self.points, key=lambda p: p.frequency_hz)
        qualifies = [
            (p.write_mbps if op == "write" else p.read_mbps) <= cutoff
            for p in ordered
        ]
        # Longest contiguous run of qualifying sweep points; a min/max
        # over all hits would silently bridge disjoint dips.  Ties go to
        # the wider band in hertz, then to the lower-frequency run.
        best: "tuple[int, float, float, float] | None" = None  # count, span, low, high
        run_start: Optional[int] = None
        for index in range(len(ordered) + 1):
            inside = index < len(ordered) and qualifies[index]
            if inside and run_start is None:
                run_start = index
            elif not inside and run_start is not None:
                low = ordered[run_start].frequency_hz
                high = ordered[index - 1].frequency_hz
                candidate = (index - run_start, high - low, low, high)
                if best is None or (candidate[0], candidate[1]) > (best[0], best[1]):
                    best = candidate
                run_start = None
        if best is None:
            return None
        return best[2], best[3]


@dataclass(frozen=True)
class RangePoint:
    """FIO outcome at one speaker distance (a Table 1 row)."""

    distance_m: float
    read: FioResult
    write: FioResult


@dataclass
class RangeTestResult:
    """Outcome of a Section 4.2-style range test.

    ``failures`` mirrors :attr:`FrequencySweepResult.failures`: rows
    that degraded to recorded failures under a resilient runner.
    """

    scenario_name: str
    frequency_hz: float
    baseline: RangePoint
    points: List[RangePoint] = field(default_factory=list)
    failures: List[PointFailure] = field(default_factory=list)

    def max_effective_distance_m(self, loss_fraction: float = 0.1) -> float:
        """Largest distance with a measurable throughput loss.

        "Measurable" means either read or write throughput at least
        ``loss_fraction`` below its no-attack baseline.
        """
        best = 0.0
        for point in self.points:
            read_loss = 1.0 - _safe_ratio(
                point.read.throughput_mbps, self.baseline.read.throughput_mbps
            )
            write_loss = 1.0 - _safe_ratio(
                point.write.throughput_mbps, self.baseline.write.throughput_mbps
            )
            if max(read_loss, write_loss) >= loss_fraction:
                best = max(best, point.distance_m)
        return best


def _safe_ratio(value: float, baseline: float) -> float:
    return value / baseline if baseline > 0.0 else 1.0


def _split_failures(mapped: "List[object]") -> "tuple[List, List[PointFailure]]":
    """Separate measured points from degraded :class:`PointFailure` rows."""
    points = [p for p in mapped if not isinstance(p, PointFailure)]
    failures = [p for p in mapped if isinstance(p, PointFailure)]
    return points, failures


# --------------------------------------------------------------------------
# Point serialization (for the on-disk result cache)
# --------------------------------------------------------------------------


def encode_sweep_point(point: SweepPoint) -> dict:
    """JSON-safe dict for a :class:`SweepPoint`."""
    return {
        "frequency_hz": point.frequency_hz,
        "write_mbps": point.write_mbps,
        "read_mbps": point.read_mbps,
    }


def decode_sweep_point(payload: dict) -> SweepPoint:
    """Inverse of :func:`encode_sweep_point`."""
    return SweepPoint(
        frequency_hz=payload["frequency_hz"],
        write_mbps=payload["write_mbps"],
        read_mbps=payload["read_mbps"],
    )


def _encode_fio_result(result: FioResult) -> dict:
    job = result.job
    return {
        "job": {
            "mode": job.mode.value,
            "block_bytes": job.block_bytes,
            "runtime_s": job.runtime_s,
            "region_start_lba": job.region_start_lba,
            "region_sectors": job.region_sectors,
            "name": job.name,
        },
        "completed_ops": result.completed_ops,
        "error_ops": result.error_ops,
        "timeout_ops": result.timeout_ops,
        "bytes_moved": result.bytes_moved,
        "busy_time_s": result.busy_time_s,
        "total_latency_s": result.total_latency_s,
        "max_latency_s": result.max_latency_s,
        "latencies_s": list(result.latencies_s),
    }


def _decode_fio_result(payload: dict) -> FioResult:
    job_payload = payload["job"]
    job = FioJob(
        mode=IOMode(job_payload["mode"]),
        block_bytes=job_payload["block_bytes"],
        runtime_s=job_payload["runtime_s"],
        region_start_lba=job_payload["region_start_lba"],
        region_sectors=job_payload["region_sectors"],
        name=job_payload["name"],
    )
    return FioResult(
        job=job,
        completed_ops=payload["completed_ops"],
        error_ops=payload["error_ops"],
        timeout_ops=payload["timeout_ops"],
        bytes_moved=payload["bytes_moved"],
        busy_time_s=payload["busy_time_s"],
        total_latency_s=payload["total_latency_s"],
        max_latency_s=payload["max_latency_s"],
        latencies_s=array("d", payload["latencies_s"]),
    )


def encode_range_point(point: RangePoint) -> dict:
    """JSON-safe dict for a :class:`RangePoint` (full FIO results)."""
    return {
        "distance_m": point.distance_m,
        "read": _encode_fio_result(point.read),
        "write": _encode_fio_result(point.write),
    }


def decode_range_point(payload: dict) -> RangePoint:
    """Inverse of :func:`encode_range_point`."""
    return RangePoint(
        distance_m=payload["distance_m"],
        read=_decode_fio_result(payload["read"]),
        write=_decode_fio_result(payload["write"]),
    )


# --------------------------------------------------------------------------
# Picklable point specs + module-level jobs (what the worker pool runs)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _SweepPointSpec:
    """Everything a worker needs to re-measure one sweep frequency."""

    coupling: AttackCoupling
    config: AttackConfig
    frequency_hz: float
    seed: int
    fio_runtime_s: float


@dataclass(frozen=True)
class _RangePointSpec:
    """Everything a worker needs to re-measure one speaker distance.

    ``distance_m`` of None marks the no-attack baseline row.
    """

    coupling: AttackCoupling
    config: AttackConfig
    distance_m: Optional[float]
    seed: int
    fio_runtime_s: float


def _sweep_point_job(spec: _SweepPointSpec) -> SweepPoint:
    """Measure one sweep frequency in a (possibly remote) fresh session."""
    session = AttackSession(
        coupling=spec.coupling, seed=spec.seed, fio_runtime_s=spec.fio_runtime_s
    )
    return session._sweep_point(spec.config, spec.frequency_hz)


def _range_point_job(spec: _RangePointSpec) -> RangePoint:
    """Measure one range distance (or the baseline) in a fresh session."""
    session = AttackSession(
        coupling=spec.coupling, seed=spec.seed, fio_runtime_s=spec.fio_runtime_s
    )
    return session._range_point(spec.config, spec.distance_m)


def _baseline_point_job(spec: _RangePointSpec) -> SweepPoint:
    """Measure the no-attack baseline in a fresh session."""
    session = AttackSession(
        coupling=spec.coupling, seed=spec.seed, fio_runtime_s=spec.fio_runtime_s
    )
    return session.baseline()


class AttackSession:
    """A campaign against one scenario with a fresh victim drive."""

    def __init__(
        self,
        coupling: Optional[AttackCoupling] = None,
        seed: Optional[int] = None,
        fio_runtime_s: float = 2.0,
    ) -> None:
        self.coupling = coupling if coupling is not None else AttackCoupling.paper_setup()
        self.rng = make_rng(seed)
        if not (0.0 < fio_runtime_s < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"FIO runtime must be positive and finite: {fio_runtime_s}"
            )
        self.fio_runtime_s = fio_runtime_s
        self._obs = obs.get()

    @property
    def _tracer(self):
        """The session's tracer (the shared no-op when disabled)."""
        return self._obs.tracer if self._obs is not None else NULL_TRACER

    def _count_point(self, kind: str) -> None:
        if self._obs is not None:
            self._obs.metrics.counter("attack_points_total", kind=kind).inc()

    def _record_point_series(
        self,
        prefix: str,
        axis_value: float,
        write_mbps: float,
        read_mbps: float,
        interval_s: float = 1.0,
    ) -> None:
        """Record one campaign point into throughput series.

        Campaign points run on fresh per-point rigs whose clocks all
        start at zero, so virtual time is meaningless across points;
        the series axis is the campaign's sweep coordinate instead
        (frequency in Hz for sweeps, distance in meters for range
        curves).  The dashboard then renders the familiar throughput
        collapse curve directly from the merged series.
        """
        if self._obs is None:
            return
        series = self._obs.series
        series.series(f"{prefix}/write_mbps", interval_s=interval_s).record(
            axis_value, write_mbps
        )
        series.series(f"{prefix}/read_mbps", interval_s=interval_s).record(
            axis_value, read_mbps
        )

    # -- plumbing -------------------------------------------------------------

    def _fresh_rig(self, label: str) -> "tuple[HardDiskDrive, FioTester]":
        """A new drive + tester so measurements don't share state."""
        drive = HardDiskDrive(
            profile=make_barracuda_profile(),
            clock=VirtualClock(),
            rng=self.rng.fork(label),
            store_data=False,
        )
        return drive, FioTester(drive, rng=self.rng.fork(label + "/fio"))

    def _measure(
        self, drive: HardDiskDrive, tester: FioTester, mode: IOMode
    ) -> FioResult:
        job = FioJob(mode=mode, runtime_s=self.fio_runtime_s, name=mode.value)
        return tester.run(job)

    # -- single points --------------------------------------------------------

    def _sweep_point(self, base_config: AttackConfig, frequency: float) -> SweepPoint:
        """One sweep frequency on a fresh rig, write then read."""
        attack = base_config.at_frequency(frequency)
        tracer = self._tracer
        with tracer.track(
            f"{self.coupling.scenario.name}/sweep/{frequency:.1f}Hz"
        ):
            drive, tester = self._fresh_rig(f"sweep/{frequency:.1f}")
            self.coupling.apply(drive, attack)
            with tracer.span(
                "sweep.point",
                drive.clock,
                category="attack",
                args={"frequency_hz": frequency},
            ):
                write = self._measure(drive, tester, IOMode.SEQ_WRITE)
                read = self._measure(drive, tester, IOMode.SEQ_READ)
        self._count_point("sweep")
        self._record_point_series(
            "campaign/sweep", frequency, write.throughput_mbps, read.throughput_mbps
        )
        return SweepPoint(frequency, write.throughput_mbps, read.throughput_mbps)

    def _range_point(
        self, base_config: AttackConfig, distance_m: Optional[float]
    ) -> RangePoint:
        """One range distance on a fresh rig, write then read.

        ``distance_m`` of None measures the no-attack baseline with the
        same rig discipline and operation order as every other point
        (and as :meth:`baseline`), so Table 1 loss ratios compare like
        with like.
        """
        if distance_m is None:
            label, attack = "range/baseline", None
        else:
            label = f"range/{distance_m:.3f}"
            attack = base_config.at_distance(distance_m)
        tracer = self._tracer
        with tracer.track(f"{self.coupling.scenario.name}/{label}"):
            drive, tester = self._fresh_rig(label)
            self.coupling.apply(drive, attack)
            with tracer.span(
                "range.point",
                drive.clock,
                category="attack",
                args={"distance_m": 0.0 if distance_m is None else distance_m},
            ):
                write = self._measure(drive, tester, IOMode.SEQ_WRITE)
                read = self._measure(drive, tester, IOMode.SEQ_READ)
        self._count_point("range")
        self._record_point_series(
            "campaign/range",
            0.0 if distance_m is None else distance_m,
            write.throughput_mbps,
            read.throughput_mbps,
            interval_s=0.01,
        )
        return RangePoint(
            distance_m=0.0 if distance_m is None else distance_m,
            read=read,
            write=write,
        )

    # -- cache keys -----------------------------------------------------------

    def _point_key(self, kind: str, config: Optional[AttackConfig]) -> str:
        """Memoization key: (scenario/coupling, effective config, seed).

        ``config`` is the *effective* per-point configuration (already
        at its frequency/distance), or None for the no-attack baseline,
        so equivalent points share an entry regardless of which base
        config spawned them.
        """
        from repro.runtime import fingerprint

        return fingerprint(
            kind, self.coupling, config, self.rng.seed, self.fio_runtime_s
        )

    # -- campaigns ------------------------------------------------------------

    def baseline(self) -> SweepPoint:
        """No-attack throughput (the paper's "No Attack" rows)."""
        tracer = self._tracer
        with tracer.track(f"{self.coupling.scenario.name}/baseline"):
            drive, tester = self._fresh_rig("baseline")
            with tracer.span("baseline.point", drive.clock, category="attack"):
                write = self._measure(drive, tester, IOMode.SEQ_WRITE)
                read = self._measure(drive, tester, IOMode.SEQ_READ)
        self._count_point("baseline")
        return SweepPoint(0.0, write.throughput_mbps, read.throughput_mbps)

    def frequency_sweep(
        self,
        frequencies_hz: Iterable[float],
        config: Optional[AttackConfig] = None,
        runner: "Optional[SweepRunner]" = None,
    ) -> FrequencySweepResult:
        """Sweep the attack tone and measure read/write throughput.

        With a :class:`~repro.runtime.SweepRunner` the points fan out
        over its worker pool and memoize in its cache; results are
        bit-identical to the serial path because every point seeds from
        ``fork(f"sweep/{frequency}")`` off the session's root seed.
        """
        base_config = config if config is not None else AttackConfig.paper_best()
        frequencies = list(frequencies_hz)
        if runner is None:
            base = self.baseline()
            points, failures = [self._sweep_point(base_config, f) for f in frequencies], []
        else:
            base, mapped = self._run_sweep(runner, base_config, frequencies)
            points, failures = _split_failures(mapped)
        result = FrequencySweepResult(
            scenario_name=self.coupling.scenario.name,
            baseline_write_mbps=base.write_mbps,
            baseline_read_mbps=base.read_mbps,
        )
        result.points.extend(points)
        result.failures.extend(failures)
        return result

    def _run_sweep(
        self,
        runner: "SweepRunner",
        base_config: AttackConfig,
        frequencies: List[float],
    ) -> "tuple[SweepPoint, List[SweepPoint]]":
        # The baseline rides along as a RangePointSpec with no attack so
        # it memoizes too; SweepPoint keeps only the throughput numbers.
        baseline_spec = _RangePointSpec(
            coupling=self.coupling,
            config=base_config,
            distance_m=None,
            seed=self.rng.seed,
            fio_runtime_s=self.fio_runtime_s,
        )
        baseline = runner.map(
            _baseline_point_job,
            [baseline_spec],
            keys=[self._point_key("baseline/v1", None)],
            encode=encode_sweep_point,
            decode=decode_sweep_point,
            label=f"{self.coupling.scenario.name}: baseline",
        )[0]
        if isinstance(baseline, PointFailure):
            # Every sweep number is a ratio against this one measurement;
            # without it the campaign has nothing to normalize by.
            raise CampaignAborted(
                f"baseline measurement failed, cannot normalize the sweep: "
                f"{baseline.describe()}"
            )
        specs = [
            _SweepPointSpec(
                coupling=self.coupling,
                config=base_config,
                frequency_hz=frequency,
                seed=self.rng.seed,
                fio_runtime_s=self.fio_runtime_s,
            )
            for frequency in frequencies
        ]
        keys = [
            self._point_key("sweep-point/v1", base_config.at_frequency(frequency))
            for frequency in frequencies
        ]
        points = runner.map(
            _sweep_point_job,
            specs,
            keys=keys,
            encode=encode_sweep_point,
            decode=decode_sweep_point,
            label=f"{self.coupling.scenario.name}: frequency sweep",
        )
        return baseline, points

    def range_test(
        self,
        distances_m: Iterable[float],
        config: Optional[AttackConfig] = None,
        runner: "Optional[SweepRunner]" = None,
    ) -> RangeTestResult:
        """Step the speaker away from the enclosure at a fixed tone.

        The baseline and every distance use the same discipline: a
        fresh rig, sequential write measured before sequential read.
        """
        base_config = config if config is not None else AttackConfig.paper_best()
        distances = list(distances_m)
        failures: List[PointFailure] = []
        if runner is None:
            baseline = self._range_point(base_config, None)
            points = [self._range_point(base_config, d) for d in distances]
        else:
            specs = [
                _RangePointSpec(
                    coupling=self.coupling,
                    config=base_config,
                    distance_m=distance,
                    seed=self.rng.seed,
                    fio_runtime_s=self.fio_runtime_s,
                )
                for distance in [None] + distances
            ]
            keys = [
                self._point_key(
                    "range-point/v1",
                    None if distance is None else base_config.at_distance(distance),
                )
                for distance in [None] + distances
            ]
            measured = runner.map(
                _range_point_job,
                specs,
                keys=keys,
                encode=encode_range_point,
                decode=decode_range_point,
                label=f"{self.coupling.scenario.name}: range test",
            )
            baseline = measured[0]
            if isinstance(baseline, PointFailure):
                raise CampaignAborted(
                    f"baseline measurement failed, cannot normalize the range "
                    f"test: {baseline.describe()}"
                )
            points, failures = _split_failures(measured[1:])
        result = RangeTestResult(
            scenario_name=self.coupling.scenario.name,
            frequency_hz=base_config.frequency_hz,
            baseline=baseline,
        )
        result.points.extend(points)
        result.failures.extend(failures)
        return result

    def sustained_attack(
        self, config: AttackConfig, duration_s: float, mode: IOMode = IOMode.SEQ_WRITE
    ) -> FioResult:
        """Apply one tone for ``duration_s`` while a workload runs."""
        if duration_s <= 0.0:
            raise ConfigurationError("duration must be positive")
        tracer = self._tracer
        with tracer.track(f"{self.coupling.scenario.name}/sustained"):
            drive, tester = self._fresh_rig("sustained")
            self.coupling.apply(drive, config)
            job = FioJob(mode=mode, runtime_s=duration_s, name="sustained")
            with tracer.span(
                "attack.sustained",
                drive.clock,
                category="attack",
                args={
                    "frequency_hz": config.frequency_hz,
                    "duration_s": duration_s,
                },
            ):
                result = tester.run(job)
        self._count_point("sustained")
        return result
