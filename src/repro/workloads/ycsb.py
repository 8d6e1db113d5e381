"""YCSB-style workloads for the key-value store.

The Yahoo! Cloud Serving Benchmark's canonical mixes are how storage
papers characterise "realistic" serving traffic; running them against
the simulated store (quiet and under attack) shows how the attack's
write-path bias lands on different application profiles:

* **A** — update heavy (50/50 read/update)
* **B** — read mostly (95/5)
* **C** — read only
* **D** — read latest (95/5 insert, reads skewed to recent keys)
* **F** — read-modify-write

Keys follow a Zipfian popularity distribution (seeded, Gray et al.'s
rejection-free inverse-CDF approximation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    DatabaseClosed,
    DriveError,
    WALSyncError,
)
from repro.obs import telemetry as obs
from repro.obs.metrics import SERVICE_LATENCY_BOUNDS_S
from repro.rng import ReproRandom, make_rng
from repro.storage.kv.db import DB

__all__ = [
    "ZipfianGenerator",
    "YcsbWorkload",
    "YcsbResult",
    "YcsbRunner",
    "WORKLOADS",
    "ServiceRunResult",
    "run_service_attack",
]

_FATAL = (WALSyncError, DatabaseClosed, BlockIOError, DriveError)


class ZipfianGenerator:
    """Zipf-distributed integers in [0, n) (theta ~ 0.99 like YCSB)."""

    def __init__(self, n: int, theta: float = 0.99, rng: Optional[ReproRandom] = None) -> None:
        if n < 1:
            raise ConfigurationError(f"population must be >= 1: {n}")
        if not 0.0 < theta < 1.0:
            raise ConfigurationError(f"theta must be in (0, 1): {theta}")
        self.n = n
        self.theta = theta
        self.rng = rng if rng is not None else make_rng().fork("zipf")
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zeta2 = 1.0 + 2.0 ** -theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self._zeta2 / self._zetan)

    def next(self) -> int:
        """Draw one rank (0 = most popular)."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < self._zeta2:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


@dataclass(frozen=True)
class YcsbWorkload:
    """An operation mix (fractions must sum to 1)."""

    name: str
    read: float = 0.0
    update: float = 0.0
    insert: float = 0.0
    rmw: float = 0.0
    scan: float = 0.0
    scan_length: int = 20

    def __post_init__(self) -> None:
        total = self.read + self.update + self.insert + self.rmw + self.scan
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"workload {self.name}: mix sums to {total}")


#: The canonical mixes.
WORKLOADS: Dict[str, YcsbWorkload] = {
    "A": YcsbWorkload("A", read=0.5, update=0.5),
    "B": YcsbWorkload("B", read=0.95, update=0.05),
    "C": YcsbWorkload("C", read=1.0),
    "D": YcsbWorkload("D", read=0.95, insert=0.05),
    "F": YcsbWorkload("F", read=0.5, rmw=0.5),
}


@dataclass
class YcsbResult:
    """Aggregated outcome of one YCSB run."""

    workload: str
    ops: int = 0
    reads: int = 0
    writes: int = 0
    scans: int = 0
    found: int = 0
    elapsed_s: float = 0.0
    aborted: bool = False
    abort_reason: str = ""

    @property
    def ops_per_second(self) -> float:
        """Operation throughput."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.ops / self.elapsed_s


class YcsbRunner:
    """Executes YCSB mixes against one DB on its virtual clock."""

    def __init__(
        self,
        db: DB,
        record_count: int = 5_000,
        value_size: int = 100,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        if record_count < 1 or value_size < 1:
            raise ConfigurationError("record count and value size must be positive")
        self.db = db
        self.record_count = record_count
        self.value_size = value_size
        self.rng = rng if rng is not None else make_rng().fork("ycsb")
        self._zipf = ZipfianGenerator(record_count, rng=self.rng.fork("zipf"))
        self._inserted = 0
        self._obs = obs.get()

    def _key(self, rank: int) -> bytes:
        return f"user{rank:012d}".encode()

    def _value(self, rank: int) -> bytes:
        return (f"field0={rank};".encode() * (self.value_size // 10 + 1))[: self.value_size]

    def load(self) -> None:
        """The YCSB load phase: insert every record."""
        for rank in range(self.record_count):
            self.db.put(self._key(rank), self._value(rank))
        self._inserted = self.record_count
        self.db.flush()

    def run(self, workload: YcsbWorkload, duration_s: float = 1.0) -> YcsbResult:
        """The transaction phase: run the mix for ``duration_s``."""
        if self._inserted == 0:
            raise ConfigurationError("run load() first")
        result = YcsbResult(workload=workload.name)
        clock = self.db.clock
        start = clock.now
        thresholds = (
            workload.read,
            workload.read + workload.update,
            workload.read + workload.update + workload.insert,
            workload.read + workload.update + workload.insert + workload.rmw,
        )
        tel = self._obs
        op_start = start
        try:
            while clock.now - start < duration_s:
                rank = min(self._zipf.next(), self._inserted - 1)
                key = self._key(rank)
                draw = self.rng.random()
                result.ops += 1
                if tel is not None:
                    op_start = clock.now
                if draw < thresholds[0]:
                    result.reads += 1
                    if self.db.get(key) is not None:
                        result.found += 1
                elif draw < thresholds[1]:
                    result.writes += 1
                    self.db.put(key, self._value(rank))
                elif draw < thresholds[2]:
                    result.writes += 1
                    self.db.put(self._key(self._inserted), self._value(self._inserted))
                    self._inserted += 1
                elif draw < thresholds[3]:
                    result.reads += 1
                    result.writes += 1
                    existing = self.db.get(key)
                    if existing is not None:
                        result.found += 1
                    self.db.put(key, self._value(rank))
                else:
                    result.scans += 1
                    count = 0
                    for _ in self.db.range_scan(start=key):
                        count += 1
                        if count >= workload.scan_length:
                            break
                if tel is not None:
                    done = clock.now
                    latency = done - op_start
                    tel.series.series(
                        "service/latency", kind="hist", bounds=SERVICE_LATENCY_BOUNDS_S
                    ).observe(done, latency)
                    tel.series.record("service/ops_ok", done, 1.0)
                    tel.metrics.histogram(
                        "ycsb_op_latency_seconds",
                        bounds=SERVICE_LATENCY_BOUNDS_S,
                        description="Per-operation YCSB service latency.",
                        workload=workload.name,
                    ).observe(latency)
        except _FATAL as err:
            result.aborted = True
            result.abort_reason = str(err)
            if tel is not None:
                tel.series.record("service/ops_error", clock.now, 1.0)
                tel.metrics.counter(
                    "ycsb_op_errors_total",
                    description="YCSB operations aborted by fatal storage errors.",
                    workload=workload.name,
                ).inc()
        result.elapsed_s = clock.now - start
        return result


@dataclass
class ServiceRunResult:
    """Outcome of one :func:`run_service_attack` serving simulation."""

    workload: str
    attack_start_s: float = 0.0
    attack_end_s: float = 0.0
    total_s: float = 0.0
    ops: int = 0
    errors: int = 0
    downtime_s: float = 0.0
    segments: List[YcsbResult] = field(default_factory=list)

    @property
    def attack_window(self) -> tuple:
        """(start_s, end_s) for SLO attack-window accounting."""
        return (self.attack_start_s, self.attack_end_s)


def run_service_attack(
    workload: YcsbWorkload,
    warmup_s: float = 3.0,
    attack_s: float = 4.0,
    recovery_s: float = 3.0,
    config=None,
    record_count: int = 500,
    value_size: int = 100,
    seed: int = 1,
    slice_s: float = 0.5,
    sync_writes: bool = True,
) -> ServiceRunResult:
    """A long-running KV service with one acoustic attack window.

    Builds a drive + filesystem + DB + paper coupling rig, loads the
    store, then serves ``workload`` through three phases on one virtual
    clock: warmup (quiet), attack (``config`` speaker on), recovery
    (speaker off).  Time advances in ``slice_s`` serving slices; a slice
    aborted by a fatal storage error counts as downtime — the clock is
    advanced across the dead slice and every subsequent slice of the
    phase records errors instead of silently stopping, which is what an
    operator's availability accounting would see.

    ``sync_writes`` (default on) opens the DB with per-put WAL syncs so
    every write pays real drive latency — the configuration where
    acoustic degradation shows up as windowed p99 inflation rather than
    hiding in the write buffer until a background sync stalls.

    With a telemetry bundle installed the per-op latency/throughput
    series, the ``attack.on``/``attack.off`` tracer edges, and the
    service counters come out the other end ready for
    :func:`repro.obs.slo.evaluate_slo` and the dashboard.
    """
    from repro.core.attacker import AttackConfig
    from repro.core.coupling import AttackCoupling
    from repro.hdd.drive import HardDiskDrive
    from repro.hdd.profiles import make_barracuda_profile
    from repro.sim.clock import VirtualClock
    from repro.storage.block import BlockDevice
    from repro.storage.fs.filesystem import SimFS

    phases = (warmup_s, attack_s, recovery_s)
    if not all(0.0 <= t < math.inf for t in phases) or not 0.0 < slice_s < math.inf:
        raise ConfigurationError(
            f"phase durations must be finite and >= 0, slice_s finite and > 0: "
            f"warmup {warmup_s}, attack {attack_s}, recovery {recovery_s}, "
            f"slice {slice_s}"
        )
    attack_config = config if config is not None else AttackConfig()
    tel = obs.get()

    clock = VirtualClock()
    rng = make_rng(seed)
    drive = HardDiskDrive(
        profile=make_barracuda_profile(), clock=clock, rng=rng.fork("drive")
    )
    from repro.storage.kv.db import Options

    fs = SimFS.mkfs(BlockDevice(drive))
    db = DB.open(fs, "/service", options=Options(sync_writes=sync_writes))
    runner = YcsbRunner(
        db, record_count=record_count, value_size=value_size, rng=rng.fork("ycsb")
    )
    runner.load()
    coupling = AttackCoupling.paper_setup()

    outcome = ServiceRunResult(workload=workload.name)

    def _serve(until: float) -> None:
        while clock.now < until - 1e-9:
            segment_start = clock.now
            segment = runner.run(workload, min(slice_s, until - clock.now))
            outcome.segments.append(segment)
            outcome.ops += segment.ops
            if segment.aborted:
                outcome.errors += 1
                # A dead slice serves nothing; push the clock to the
                # slice boundary so downtime elapses instead of looping.
                remainder = segment_start + slice_s - clock.now
                if remainder > 0.0:
                    clock.advance(min(remainder, until - clock.now))
                outcome.downtime_s += clock.now - segment_start

    # Phase ends are relative to the live clock: the load phase and any
    # blocked op advance virtual time, and each phase still deserves its
    # full serving duration (most importantly recovery — the SLO
    # time-to-recover is meaningless if the attack overshoot ate it).
    _serve(clock.now + warmup_s)

    outcome.attack_start_s = clock.now
    coupling.apply(drive, attack_config)
    if tel is not None:
        tel.tracer.instant(
            "attack.on",
            clock.now,
            category="attack",
            args={
                "frequency_hz": attack_config.frequency_hz,
                "source_level_db": attack_config.source_level_db,
            },
        )
    _serve(outcome.attack_start_s + attack_s)

    outcome.attack_end_s = clock.now
    coupling.apply(drive, None)
    if tel is not None:
        tel.tracer.instant("attack.off", clock.now, category="attack", args={})
    _serve(outcome.attack_end_s + recovery_s)

    outcome.total_s = clock.now
    return outcome
