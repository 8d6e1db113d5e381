"""Multi-drive racks: the data-center-scale view of the attack.

The case study attacks one drive; a real subsea vessel holds racks of
them.  :class:`DriveRack` places several drives in the bays of one
storage tower inside one enclosure and applies a single acoustic attack
to all of them through their bay-specific coupling — the common-mode
property that defeats RAID redundancy (see the RAID ablation bench).

Because every bay sits behind the same wall in the same water, the
attacker → water → wall stage of the chain is identical rack-wide; only
the tower mount's bay height and the per-drive servo state differ.  Rack
sweeps over a frequency grid therefore go through
:func:`repro.vecphys.fleet_surface` (one shared-stage computation per
frequency, reused across bays), falling back to the per-bay scalar chain
for heterogeneous racks — with bit-identical results either way,
enforced by the fleet parity suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.environment import UnderwaterEnvironment
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import make_barracuda_profile
from repro.hdd.servo import OpKind, ServoSystem, VibrationInput
from repro.obs import telemetry as obs
from repro.obs.health import HealthTracker
from repro.obs.metrics import SERVICE_LATENCY_BOUNDS_S
from repro.rng import ReproRandom, make_rng
from repro.sim.clock import VirtualClock
from repro.vibration.mount import StorageTower

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.sim.events import EventScheduler
    from repro.storage.raid import RaidGroup, RaidLevel

# A plain rack report runs no sweep, event loop or RAID group, so
# ``repro.vecphys``, ``repro.sim.events`` and ``repro.storage.raid``
# are imported where a sweep or a fleet campaign first needs them.

__all__ = [
    "RackSlot",
    "DriveRack",
    "BaySweepPoint",
    "AttackWindow",
    "FleetSpec",
    "FleetRack",
    "FleetSim",
    "RackOutcome",
    "FleetResult",
    "run_fleet",
]


@dataclass
class RackSlot:
    """One bay of the rack: its drive and its coupling chain."""

    bay: int
    drive: HardDiskDrive
    coupling: AttackCoupling


@dataclass(frozen=True)
class BaySweepPoint:
    """One (bay, frequency) cell of a rack sweep surface, as a flat row."""

    bay: int
    frequency_hz: float
    displacement_m: float
    offtrack_m: float
    p_write: float
    p_read: float

    @property
    def stalled(self) -> bool:
        """No-response regime: the write servo cannot track at all."""
        return self.p_write == 0.0


def _servo_signature(servo: ServoSystem) -> tuple:
    """Value identity of everything the success model reads.

    Two servos with equal signatures produce identical probabilities for
    identical vibrations, so the rack may batch them through one shared
    servo stage.
    """
    return (
        servo.track_pitch_m,
        servo.write_threshold_frac,
        servo.read_threshold_frac,
        servo.servo_limit_frac,
        servo.rejection_corner_hz,
        servo.rejection_order,
        tuple(
            (mode.frequency_hz, mode.damping_ratio, mode.gain)
            for mode in servo.hsa.modes
        ),
        servo.head_gain,
        servo.write_window_s,
        servo.read_window_s,
        servo.grazing_penalty,
        servo.grazing_onset,
        servo.grazing_exponent,
    )


class DriveRack:
    """A tower of drives inside one submerged enclosure.

    All drives share one virtual clock (a single host), and each bay
    gets its own :class:`Scenario` differing only in the tower mount's
    bay height — bays higher up the cantilever couple slightly more.
    """

    def __init__(
        self,
        bays: int = 5,
        environment: Optional[UnderwaterEnvironment] = None,
        clock: Optional[VirtualClock] = None,
        rng: Optional[ReproRandom] = None,
        metal: bool = False,
    ) -> None:
        if not 1 <= bays <= StorageTower.BAYS:
            raise ConfigurationError(f"bays must be in [1, {StorageTower.BAYS}]: {bays}")
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = rng if rng is not None else make_rng().fork("rack")
        env = environment if environment is not None else UnderwaterEnvironment.tank()
        base = Scenario.scenario_3() if metal else Scenario.scenario_2()
        self.slots: List[RackSlot] = []
        for bay in range(bays):
            scenario = Scenario(
                name=f"{base.name} bay {bay}",
                enclosure=base.enclosure,
                mount=StorageTower(bay=bay),
                hdd_offset_m=base.hdd_offset_m,
                calibration=base.calibration,
            )
            drive = HardDiskDrive(
                profile=make_barracuda_profile(),
                clock=self.clock,
                rng=self.rng.fork(f"bay{bay}"),
            )
            coupling = AttackCoupling(environment=env, scenario=scenario)
            self.slots.append(RackSlot(bay=bay, drive=drive, coupling=coupling))
        self.name = "rack0"
        self._obs = obs.get()
        self._attack_active = False

    @property
    def drives(self) -> List[HardDiskDrive]:
        """The member drives, bottom bay first."""
        return [slot.drive for slot in self.slots]

    @property
    def couplings(self) -> List[AttackCoupling]:
        """The per-bay coupling chains, bottom bay first."""
        return [slot.coupling for slot in self.slots]

    def _shared_servo(self) -> Optional[ServoSystem]:
        """One servo representing every bay, or None if they diverge."""
        servos = [slot.drive.profile.servo for slot in self.slots]
        signature = _servo_signature(servos[0])
        for servo in servos[1:]:
            if _servo_signature(servo) != signature:
                return None
        return servos[0]

    def apply_attack(self, config: Optional[AttackConfig]) -> Dict[int, VibrationInput]:
        """Point one speaker at the enclosure; every bay feels it.

        Returns the per-bay vibration for inspection.  ``None`` silences
        the attack.
        """
        self._annotate_attack(config)
        return {
            slot.bay: slot.coupling.apply(slot.drive, config)
            for slot in self.slots
        }

    def _annotate_attack(self, config: Optional[AttackConfig]) -> None:
        """Emit ``attack.on`` / ``attack.off`` edges onto the tracer so
        SLO and dashboard tooling can shade the attack window."""
        tel = self._obs
        if tel is None:
            return
        active = config is not None
        if active and not self._attack_active:
            tel.tracer.instant(
                "attack.on",
                self.clock.now,
                category="attack",
                args={
                    "rack": self.name,
                    "frequency_hz": config.frequency_hz,
                    "source_level_db": config.source_level_db,
                },
            )
        elif not active and self._attack_active:
            tel.tracer.instant(
                "attack.off", self.clock.now, category="attack", args={"rack": self.name}
            )
        self._attack_active = active

    def record_health(self, tracker, t_s: Optional[float] = None) -> str:
        """Classify every bay into ``tracker`` (a
        :class:`~repro.obs.health.HealthTracker`) from the current
        write-success probabilities; returns the rack's rolled-up state."""
        at = self.clock.now if t_s is None else t_s
        return tracker.observe_rack(self.name, self.write_success_probabilities(), at)

    def _success_probabilities(self, op: OpKind) -> Dict[int, float]:
        return {
            slot.bay: slot.drive.success_probability(op) for slot in self.slots
        }

    def write_success_probabilities(self) -> Dict[int, float]:
        """Per-bay p(write attempt succeeds) under the current attack."""
        return self._success_probabilities(OpKind.WRITE)

    def read_success_probabilities(self) -> Dict[int, float]:
        """Per-bay p(read attempt succeeds) under the current attack."""
        return self._success_probabilities(OpKind.READ)

    def stalled_bays(self) -> List[int]:
        """Bays whose servo cannot track at all."""
        probabilities = self.write_success_probabilities()
        return [bay for bay, p in sorted(probabilities.items()) if p == 0.0]

    def healthy_bays(self, threshold: float = 1.0) -> List[int]:
        """Bays still serving writes at probability >= ``threshold``.

        The default reports only *exactly* healthy bays (success
        probability 1.0); a measurably degraded bay — even at 0.9995 —
        is not healthy.  Pass a lower ``threshold`` to tolerate grazing
        degradation, e.g. ``healthy_bays(threshold=0.999)``.
        """
        if not 0.0 < threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1]: {threshold}"
            )
        probabilities = self.write_success_probabilities()
        return [bay for bay, p in sorted(probabilities.items()) if p >= threshold]

    # -- batched sweep surfaces --------------------------------------------------

    def sweep_surface(
        self,
        frequencies: Sequence[float],
        config: Optional[AttackConfig] = None,
    ) -> Dict[str, object]:
        """Per-bay attack response surface over a frequency grid.

        Pure computation — no drive state is mutated.  Returns a
        JSON-able dict: 1-D lists ``frequency_hz`` and
        ``wall_pressure_pa`` plus a ``bays`` list of per-bay rows
        (``bay``, ``displacement_m``, ``offtrack_m``, ``p_write``,
        ``p_read``, ``stalled``).  Homogeneous racks (one servo model,
        one shared wall stage) go through the batched
        :func:`repro.vecphys.fleet_surface`; the scalar reference loop
        returns the byte-identical structure.
        """
        base = config if config is not None else AttackConfig()
        freqs = [float(f) for f in frequencies]
        servo = self._shared_servo()
        if servo is not None:
            from repro import vecphys

            try:
                surface = vecphys.fleet_surface(self.couplings, base, freqs, servo=servo)
            except ConfigurationError:
                pass  # heterogeneous rack: per-bay scalar chain
            else:
                surface["bays"] = [
                    {"bay": slot.bay, **row}
                    for slot, row in zip(self.slots, surface["bays"])
                ]
                return surface
        return self._sweep_surface_scalar(base, freqs)

    def _sweep_surface_scalar(
        self, base: AttackConfig, freqs: List[float]
    ) -> Dict[str, object]:
        """Reference per-bay scalar loop (the parity tests' oracle)."""
        wall: List[float] = []
        bays = [
            {
                "bay": slot.bay,
                "displacement_m": [],
                "offtrack_m": [],
                "p_write": [],
                "p_read": [],
                "stalled": [],
            }
            for slot in self.slots
        ]
        first = self.slots[0].coupling
        for f in freqs:
            point = base.at_frequency(f)
            wall.append(first.wall_pressure_pa(point))
            for slot, row in zip(self.slots, bays):
                vibration = slot.coupling.vibration_at_drive(point)
                servo = slot.drive.profile.servo
                amplitude = servo.offtrack_amplitude_m(vibration)
                row["displacement_m"].append(vibration.displacement_m)
                row["offtrack_m"].append(amplitude)
                row["p_write"].append(
                    servo.success_probability(OpKind.WRITE, vibration)
                )
                row["p_read"].append(
                    servo.success_probability(OpKind.READ, vibration)
                )
                row["stalled"].append(amplitude >= servo.servo_limit_m)
        return {"frequency_hz": freqs, "wall_pressure_pa": wall, "bays": bays}

    def sweep_rows(
        self,
        frequencies: Sequence[float],
        config: Optional[AttackConfig] = None,
    ) -> List[BaySweepPoint]:
        """The sweep surface flattened to one row per (bay, frequency).

        Row order is bay-major (all frequencies of bay 0, then bay 1,
        ...), matching the surface layout.
        """
        surface = self.sweep_surface(frequencies, config)
        freqs = surface["frequency_hz"]
        return [
            BaySweepPoint(
                bay=row["bay"],
                frequency_hz=f,
                displacement_m=d,
                offtrack_m=o,
                p_write=pw,
                p_read=pr,
            )
            for row in surface["bays"]
            for f, d, o, pw, pr in zip(
                freqs,
                row["displacement_m"],
                row["offtrack_m"],
                row["p_write"],
                row["p_read"],
            )
        ]


# -- fleet-scale discrete-event simulation ------------------------------------
#
# Everything below runs on one EventScheduler (docs/SIMULATION.md) and is
# documented, with a tutorial, in docs/FLEET.md.  Units: seconds are
# virtual-clock seconds, frequencies Hz, source levels dB re 1 uPa @ 1 m,
# distances metres, rates requests/second.

#: Minimum bays per tower for each ``FleetSpec.raid`` layout (mirrors
#: RaidArray); "none" is independent disks.
_RAID_MINIMUM_BAYS: Dict[str, int] = {"none": 1, "raid0": 2, "raid1": 2, "raid5": 3}


@dataclass(frozen=True)
class AttackWindow:
    """One scheduled acoustic attack: a tone held for a time window.

    ``start_s``/``duration_s`` are virtual-clock seconds from campaign
    start; the tone is ``frequency_hz`` at ``source_level_db`` (dB re
    1 uPa @ 1 m) from ``distance_m`` away.  The window edges become
    ``LANE_ATTACK`` events, so at a shared timestamp they always apply
    before service ticks sample the field.
    """

    start_s: float
    duration_s: float
    frequency_hz: float = 650.0
    source_level_db: float = 139.0
    distance_m: float = 0.12

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_s < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"attack start must be >= 0 and finite: {self.start_s}"
            )
        if not (0.0 < self.duration_s < math.inf):
            raise ConfigurationError(
                f"attack duration must be positive and finite: {self.duration_s}"
            )
        self.config()  # validate tone parameters via AttackConfig's ranges

    @property
    def end_s(self) -> float:
        """Virtual time at which the attack tone stops."""
        return self.start_s + self.duration_s

    def config(self) -> AttackConfig:
        """The :class:`AttackConfig` for this window's tone."""
        return AttackConfig(
            frequency_hz=self.frequency_hz,
            source_level_db=self.source_level_db,
            distance_m=self.distance_m,
        )

    @classmethod
    def parse(cls, text: str) -> "AttackWindow":
        """Parse the CLI grammar ``START+DUR@FREQ[/LEVEL[/DIST]]``.

        Times in seconds, frequency in Hz, level in dB, distance in
        metres; level and distance fall back to the dataclass defaults.

        >>> AttackWindow.parse("10+30@650/139/0.12").end_s
        40.0
        """
        grammar_error = ConfigurationError(
            f"bad attack window {text!r} "
            "(want START+DUR@FREQ[/LEVEL[/DIST]], e.g. 10+30@650/139/0.12)"
        )
        timing, _, tone = text.partition("@")
        start_text, _, duration_text = timing.partition("+")
        tone_parts = tone.split("/")
        if not tone or not duration_text or len(tone_parts) > 3:
            raise grammar_error
        try:
            kwargs = {}
            if len(tone_parts) >= 2:
                kwargs["source_level_db"] = float(tone_parts[1])
            if len(tone_parts) == 3:
                kwargs["distance_m"] = float(tone_parts[2])
            return cls(
                start_s=float(start_text),
                duration_s=float(duration_text),
                frequency_hz=float(tone_parts[0]),
                **kwargs,
            )
        except ValueError as err:
            raise grammar_error from err


@dataclass(frozen=True)
class FleetSpec:
    """Declarative description of one fleet campaign.

    Topology is ``racks x towers_per_rack x bays`` drives; each tower's
    bays form one RAID group (``raid``: none/raid0/raid1/raid5).  Hosts
    issue ``request_rate_hz`` requests per rack, served in
    ``service_tick_s`` batches for ``duration_s`` virtual seconds,
    while ``attacks`` windows fire as scheduled events.

    The spec is the complete determinism boundary: a campaign's every
    number is a pure function of (spec, rack index), which is what
    makes rack-sharded execution byte-identical to single-process runs
    (docs/FLEET.md).
    """

    racks: int = 4
    towers_per_rack: int = 50
    bays: int = 5
    raid: str = "raid5"
    metal: bool = False
    duration_s: float = 60.0
    request_rate_hz: float = 200.0
    write_fraction: float = 0.5
    service_tick_s: float = 0.5
    health_interval_s: float = 1.0
    rebuild_s: float = 10.0
    base_latency_s: float = 0.008
    max_attempts: int = 10
    seed: int = 0
    attacks: Tuple[AttackWindow, ...] = (AttackWindow(start_s=10.0, duration_s=30.0),)

    def __post_init__(self) -> None:
        for name in (
            "duration_s",
            "request_rate_hz",
            "write_fraction",
            "service_tick_s",
            "health_interval_s",
            "rebuild_s",
            "base_latency_s",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):  # NaN would slip past every range check
                raise ConfigurationError(f"{name} must be finite: {value}")
        if self.racks < 1 or self.towers_per_rack < 1:
            raise ConfigurationError(
                f"need at least one rack and tower: {self.racks}x{self.towers_per_rack}"
            )
        if not 1 <= self.bays <= StorageTower.BAYS:
            raise ConfigurationError(
                f"bays must be in [1, {StorageTower.BAYS}]: {self.bays}"
            )
        if self.raid not in _RAID_MINIMUM_BAYS:
            raise ConfigurationError(
                f"raid must be one of {'/'.join(sorted(_RAID_MINIMUM_BAYS))}: {self.raid!r}"
            )
        minimum = _RAID_MINIMUM_BAYS[self.raid]
        if self.bays < minimum:
            raise ConfigurationError(
                f"{self.raid} needs at least {minimum} bays, got {self.bays}"
            )
        if self.duration_s <= 0.0:
            raise ConfigurationError(f"duration must be positive: {self.duration_s}")
        if self.request_rate_hz < 0.0:
            raise ConfigurationError(f"request rate must be >= 0: {self.request_rate_hz}")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigurationError(
                f"write fraction must be in [0, 1]: {self.write_fraction}"
            )
        if self.service_tick_s <= 0.0 or self.health_interval_s <= 0.0:
            raise ConfigurationError("service and health intervals must be positive")
        ticks = self.duration_s / self.service_tick_s
        if abs(ticks - round(ticks)) > 1e-9:
            raise ConfigurationError(
                f"duration {self.duration_s}s must be a whole number of "
                f"{self.service_tick_s}s service ticks"
            )
        if self.rebuild_s < 0.0:
            raise ConfigurationError(f"rebuild time must be >= 0: {self.rebuild_s}")
        if self.base_latency_s <= 0.0:
            raise ConfigurationError(
                f"base latency must be positive: {self.base_latency_s}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(f"max attempts must be >= 1: {self.max_attempts}")

    @property
    def raid_level(self) -> Optional[RaidLevel]:
        """The parsed RAID layout (None for independent disks)."""
        if self.raid == "none":
            return None
        from repro.storage.raid import RaidLevel

        return RaidLevel(self.raid)

    @property
    def drive_count(self) -> int:
        """Total drives across the whole fleet."""
        return self.racks * self.towers_per_rack * self.bays


@dataclass(frozen=True)
class RackOutcome:
    """Availability accounting for one rack over one campaign.

    Every field is a pure function of ``(FleetSpec, rack index)``:
    identical whether the rack ran alone in a worker shard or
    interleaved with the rest of the fleet on one scheduler.  Times in
    virtual seconds.
    """

    rack: int
    towers: int
    drives: int
    ops_ok: int
    ops_degraded: int
    ops_error: int
    downtime_s: float
    degraded_s: float
    groups_degraded: int
    groups_offline: int
    rebuilds: int
    stalled_bays_peak: int
    p_write_min: float
    latency_sum_s: float
    latency_max_s: float
    events: int

    @property
    def ops(self) -> int:
        """Total host requests issued against this rack."""
        return self.ops_ok + self.ops_error

    @property
    def mean_latency_s(self) -> float:
        """Mean served-request latency (0 when nothing was served)."""
        return self.latency_sum_s / self.ops_ok if self.ops_ok else 0.0

    def to_payload(self) -> Dict[str, object]:
        """JSON-safe dict for the campaign journal (floats round-trip)."""
        return {
            "rack": self.rack,
            "towers": self.towers,
            "drives": self.drives,
            "ops_ok": self.ops_ok,
            "ops_degraded": self.ops_degraded,
            "ops_error": self.ops_error,
            "downtime_s": self.downtime_s,
            "degraded_s": self.degraded_s,
            "groups_degraded": self.groups_degraded,
            "groups_offline": self.groups_offline,
            "rebuilds": self.rebuilds,
            "stalled_bays_peak": self.stalled_bays_peak,
            "p_write_min": self.p_write_min,
            "latency_sum_s": self.latency_sum_s,
            "latency_max_s": self.latency_max_s,
            "events": self.events,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RackOutcome":
        """Rebuild an outcome from :meth:`to_payload` output."""
        return cls(**{f: payload[f] for f in (
            "rack", "towers", "drives", "ops_ok", "ops_degraded", "ops_error",
            "downtime_s", "degraded_s", "groups_degraded", "groups_offline",
            "rebuilds", "stalled_bays_peak", "p_write_min", "latency_sum_s",
            "latency_max_s", "events",
        )})


class FleetRack:
    """One rack of towers as an actor group on the event scheduler.

    Physics is computed **once per (source, rack) geometry**: every
    tower shares the same wall, water column and bay geometry, so the
    rack builds one reference :class:`DriveRack` (tower 0) and attack
    edges evaluate its per-bay success probabilities for all towers.
    Each tower keeps only its own :class:`RaidGroup` state.  Randomness
    comes exclusively from streams
    forked off ``scheduler.rng_for(f"rack{index}")`` by label, so the
    rack's behaviour is independent of which other racks share the
    scheduler.
    """

    def __init__(self, spec: FleetSpec, index: int, scheduler: EventScheduler) -> None:
        if not 0 <= index < spec.racks:
            raise ConfigurationError(f"rack index out of range: {index}")
        self.spec = spec
        self.index = index
        self.name = f"rack{index}"
        self.scheduler = scheduler
        rng = scheduler.rng_for(self.name)
        self._service_rng = rng.fork("service")
        #: Tower 0: the tower whose physics stands in for the rack.
        self.reference = DriveRack(
            bays=spec.bays,
            environment=UnderwaterEnvironment.tank(),
            clock=scheduler.clock,
            rng=rng.fork("tower0"),
            metal=spec.metal,
        )
        # The reference tower carries the rack's name so its
        # attack.on/off tracer instants and health rollups read as
        # rack-level signals.
        self.reference.name = self.name
        from repro.storage.raid import RaidGroup

        self.groups: List[RaidGroup] = [
            RaidGroup(spec.raid_level, spec.bays, name=f"{self.name}/g{tower}")
            for tower in range(spec.towers_per_rack)
        ]
        self._p_write: Dict[int, float] = {bay: 1.0 for bay in range(spec.bays)}
        self._p_read: Dict[int, float] = {bay: 1.0 for bay in range(spec.bays)}
        self._ops_acc = 0.0
        self._op_counter = 0
        self.ops_ok = 0
        self.ops_degraded = 0
        self.ops_error = 0
        self.downtime_s = 0.0
        self.stalled_bays_peak = 0
        self.p_write_min = 1.0
        self.latency_sum_s = 0.0
        self.latency_max_s = 0.0
        self.events = 0
        self.tracker: Optional[HealthTracker] = None

    # -- attack edges (LANE_ATTACK) -----------------------------------

    def attack_on(self, window: AttackWindow) -> None:
        """Start ``window``'s tone: evaluate physics once for the rack."""
        self.events += 1
        self.reference.apply_attack(window.config())
        self._refresh_probabilities()

    def attack_off(self) -> None:
        """Silence the attack and queue rebuilds for recovered bays."""
        self.events += 1
        self.reference.apply_attack(None)
        self._refresh_probabilities()
        to_rebuild = tuple(
            (tower, bay)
            for tower, group in enumerate(self.groups)
            for bay in range(self.spec.bays)
            if group.member_failed(bay) and self._p_write[bay] > 0.0
        )
        if to_rebuild:
            from repro.sim.events import LANE_REPAIR

            self.scheduler.schedule(
                self.spec.rebuild_s,
                lambda pairs=to_rebuild: self._complete_rebuild(pairs),
                label=f"{self.name}.rebuild",
                lane=LANE_REPAIR,
            )

    def _refresh_probabilities(self) -> None:
        """Re-sample per-bay success probabilities and update RAID state."""
        self._p_write = self.reference.write_success_probabilities()
        self._p_read = self.reference.read_success_probabilities()
        stalled = [bay for bay in sorted(self._p_write) if self._p_write[bay] <= 0.0]
        self.stalled_bays_peak = max(self.stalled_bays_peak, len(stalled))
        low = min(self._p_write[bay] for bay in sorted(self._p_write))
        self.p_write_min = min(self.p_write_min, low)
        now = self.scheduler.now
        for group in self.groups:
            for bay in stalled:
                group.fail_member(bay, now)

    def _complete_rebuild(self, pairs: Tuple[Tuple[int, int], ...]) -> None:
        """Finish scheduled rebuilds for members whose bays stayed healthy."""
        self.events += 1
        now = self.scheduler.now
        for tower, bay in pairs:
            if self._p_write[bay] > 0.0:
                self.groups[tower].restore_member(bay, now)

    # -- host service (LANE_SERVICE) ----------------------------------

    def service_tick(self) -> None:
        """Serve one tick of host requests against the current field.

        Arrivals are open-loop at ``request_rate_hz`` with a fractional
        accumulator (deterministic op counts); each op draws its kind
        from the rack's service stream and, when 0 < p < 1, one more
        uniform draw that is inverted through the geometric quantile to
        get the retry count — so the stream advances a bounded, spec-
        determined number of times regardless of telemetry or sharding.
        """
        self.events += 1
        spec = self.spec
        now = self.scheduler.now
        self._ops_acc += spec.request_rate_hz * spec.service_tick_s
        n = int(self._ops_acc)
        self._ops_acc -= n
        if n == 0:
            return
        tel = obs.get()
        served = errors = 0
        towers = spec.towers_per_rack
        for _ in range(n):
            counter = self._op_counter
            self._op_counter += 1
            tower = counter % towers
            bay = (counter // towers) % spec.bays
            is_write = self._service_rng.random() < spec.write_fraction
            p = self._p_write[bay] if is_write else self._p_read[bay]
            group = self.groups[tower]
            latency = None
            if p <= 0.0:
                if group.online and group.degraded:
                    # Redundancy absorbs the stalled member: serve the op
                    # through reconstruction across the surviving bays.
                    latency = spec.base_latency_s * spec.bays
                    self.ops_degraded += 1
            elif p >= 1.0:
                latency = spec.base_latency_s
            else:
                u = self._service_rng.random()
                attempts = 1 + int(math.log(1.0 - u) / math.log(1.0 - p))
                if attempts <= spec.max_attempts:
                    latency = spec.base_latency_s * attempts
            if latency is None:
                self.ops_error += 1
                errors += 1
            else:
                self.ops_ok += 1
                served += 1
                self.latency_sum_s += latency
                self.latency_max_s = max(self.latency_max_s, latency)
                if tel is not None:
                    tel.series.series(
                        "service/latency", kind="hist", bounds=SERVICE_LATENCY_BOUNDS_S
                    ).observe(now, latency)
        if served == 0:
            self.downtime_s += spec.service_tick_s
        if tel is not None:
            if served:
                tel.series.record("service/ops_ok", now, float(served))
            if errors:
                tel.series.record("service/ops_error", now, float(errors))
            tel.metrics.counter(
                "fleet_ops_total",
                description="Host requests issued against a fleet rack.",
                rack=self.name,
            ).inc(n)
            if errors:
                tel.metrics.counter(
                    "fleet_op_errors_total",
                    description="Host requests failed (offline group or retries exhausted).",
                    rack=self.name,
                ).inc(errors)

    # -- monitors (LANE_MONITOR) --------------------------------------

    def observe_health(self) -> None:
        """Classify the rack's bays into the attached health tracker."""
        self.events += 1
        if self.tracker is not None:
            self.reference.record_health(self.tracker)

    # -- end of campaign ----------------------------------------------

    def finish(self, t_s: float) -> RackOutcome:
        """Close the books at ``t_s`` and emit this rack's outcome."""
        for group in self.groups:
            group.finalize(t_s)
        return RackOutcome(
            rack=self.index,
            towers=self.spec.towers_per_rack,
            drives=self.spec.towers_per_rack * self.spec.bays,
            ops_ok=self.ops_ok,
            ops_degraded=self.ops_degraded,
            ops_error=self.ops_error,
            downtime_s=self.downtime_s,
            degraded_s=math.fsum(group.degraded_s for group in self.groups),
            groups_degraded=sum(1 for group in self.groups if group.ever_degraded),
            groups_offline=sum(1 for group in self.groups if group.ever_offline),
            rebuilds=sum(group.rebuilds for group in self.groups),
            stalled_bays_peak=self.stalled_bays_peak,
            p_write_min=self.p_write_min,
            latency_sum_s=self.latency_sum_s,
            latency_max_s=self.latency_max_s,
            events=self.events,
        )


class FleetSim:
    """A whole datacenter campaign on one :class:`EventScheduler`.

    Builds ``FleetRack`` actors for the requested rack indices,
    schedules every attack edge, service tick, and health monitor as
    events, and runs them all on one shared virtual clock.  Because
    each rack's behaviour depends only on ``(spec, rack index)``,
    ``FleetSim(spec, rack_indices=(3,))`` reproduces rack 3 of the full
    fleet bit-for-bit — the property the ``--workers`` sharding in
    :func:`run_fleet` relies on.
    """

    def __init__(
        self,
        spec: FleetSpec,
        rack_indices: Optional[Sequence[int]] = None,
        scheduler: Optional[EventScheduler] = None,
    ) -> None:
        from repro.sim.events import EventScheduler

        self.spec = spec
        if rack_indices is None:
            indices = list(range(spec.racks))
        else:
            indices = sorted(set(int(i) for i in rack_indices))
            for index in indices:
                if not 0 <= index < spec.racks:
                    raise ConfigurationError(f"rack index out of range: {index}")
            if not indices:
                raise ConfigurationError("rack_indices must not be empty")
        self.scheduler = (
            scheduler
            if scheduler is not None
            else EventScheduler(rng=make_rng(spec.seed).fork("fleet"), name="fleet")
        )
        tel = obs.get()
        self.tracker: Optional[HealthTracker] = (
            HealthTracker(recorder=tel.series) if tel is not None else None
        )
        self.racks: List[FleetRack] = []
        for index in indices:
            rack = FleetRack(spec, index, self.scheduler)
            rack.tracker = self.tracker
            self.racks.append(rack)
        self._schedule()

    def _schedule(self) -> None:
        """Queue every campaign event, rack by rack in index order."""
        from repro.sim.events import LANE_ATTACK, LANE_MONITOR, LANE_SERVICE

        spec = self.spec
        for rack in self.racks:
            for window in spec.attacks:
                self.scheduler.schedule_at(
                    window.start_s,
                    lambda rack=rack, window=window: rack.attack_on(window),
                    label=f"{rack.name}.attack.on",
                    lane=LANE_ATTACK,
                )
                self.scheduler.schedule_at(
                    window.end_s,
                    rack.attack_off,
                    label=f"{rack.name}.attack.off",
                    lane=LANE_ATTACK,
                )
            self.scheduler.schedule_every(
                spec.service_tick_s,
                rack.service_tick,
                label=f"{rack.name}.service",
                until=spec.duration_s,
                lane=LANE_SERVICE,
            )
            self.scheduler.schedule_at(
                0.0,
                rack.observe_health,
                label=f"{rack.name}.health",
                lane=LANE_MONITOR,
            )
            self.scheduler.schedule_every(
                spec.health_interval_s,
                rack.observe_health,
                label=f"{rack.name}.health",
                until=spec.duration_s,
                lane=LANE_MONITOR,
            )

    def run(self) -> "FleetResult":
        """Run to ``spec.duration_s`` and collect per-rack outcomes."""
        self.scheduler.run_until(self.spec.duration_s)
        outcomes = [rack.finish(self.spec.duration_s) for rack in self.racks]
        return FleetResult(spec=self.spec, outcomes=outcomes)


@dataclass
class FleetResult:
    """Per-rack outcomes plus fleet-wide rollups and rendering."""

    spec: FleetSpec
    outcomes: List[RackOutcome]
    failures: List[object] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.failures is None:
            self.failures = []

    @property
    def drives(self) -> int:
        """Drives actually simulated (sum over returned racks)."""
        return sum(outcome.drives for outcome in self.outcomes)

    @property
    def ops(self) -> int:
        """Total host requests across the fleet."""
        return sum(outcome.ops for outcome in self.outcomes)

    @property
    def ops_error(self) -> int:
        """Total failed host requests across the fleet."""
        return sum(outcome.ops_error for outcome in self.outcomes)

    @property
    def events(self) -> int:
        """Total rack-level events fired across the fleet."""
        return sum(outcome.events for outcome in self.outcomes)

    def availability(self) -> float:
        """Fraction of host requests served (1.0 when no requests ran)."""
        return 1.0 - self.ops_error / self.ops if self.ops else 1.0

    def render(self) -> str:
        """Fixed-width campaign report, identical at any worker count."""
        spec = self.spec
        lines = [
            f"Fleet campaign: {spec.racks} racks x {spec.towers_per_rack} towers "
            f"x {spec.bays} bays = {spec.drive_count} drives "
            f"({spec.raid}, {'metal' if spec.metal else 'plastic'} enclosure, "
            f"seed {spec.seed})",
        ]
        for window in spec.attacks:
            lines.append(
                f"  attack: t={window.start_s:g}s +{window.duration_s:g}s @ "
                f"{window.frequency_hz:g} Hz / {window.source_level_db:g} dB / "
                f"{window.distance_m:g} m"
            )
        header = (
            f"{'rack':<8}{'drives':>7}{'ops_ok':>9}{'degr':>7}{'errors':>8}"
            f"{'err%':>7}{'down_s':>8}{'degr_s':>9}{'rebuilt':>8}{'p_min':>7}"
        )
        lines.append(header)
        for outcome in self.outcomes:
            err_pct = 100.0 * outcome.ops_error / outcome.ops if outcome.ops else 0.0
            lines.append(
                f"rack{outcome.rack:<4}{outcome.drives:>7}{outcome.ops_ok:>9}"
                f"{outcome.ops_degraded:>7}{outcome.ops_error:>8}{err_pct:>7.2f}"
                f"{outcome.downtime_s:>8.1f}{outcome.degraded_s:>9.1f}"
                f"{outcome.rebuilds:>8}{outcome.p_write_min:>7.3f}"
            )
        lines.append(
            f"fleet: {self.drives} drives, {self.ops} ops, "
            f"{self.ops_error} errors, availability "
            f"{100.0 * self.availability():.3f}%, {self.events} rack events"
        )
        for failure in self.failures:
            lines.append(f"DEGRADED: {failure.describe()}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _RackJob:
    """One shard of a fleet campaign: simulate a single rack."""

    spec: FleetSpec
    rack: int


def _encode_outcome(outcome: RackOutcome) -> Dict[str, object]:
    """Journal/cache encoder for :class:`RackOutcome`."""
    return outcome.to_payload()


def _decode_outcome(payload: Dict[str, object]) -> RackOutcome:
    """Journal/cache decoder for :class:`RackOutcome`."""
    return RackOutcome.from_payload(payload)


def _rack_job(job: _RackJob) -> RackOutcome:
    """Simulate one rack in isolation (the SweepRunner point function)."""
    sim = FleetSim(job.spec, rack_indices=(job.rack,))
    return sim.run().outcomes[0]


def run_fleet(spec: FleetSpec, runner=None) -> FleetResult:
    """Run a fleet campaign, optionally sharded by rack over a runner.

    With ``runner=None`` the whole fleet runs on **one**
    :class:`EventScheduler` (the canonical single event loop).  With a
    :class:`repro.runtime.SweepRunner` each rack becomes one journaled,
    cacheable, resumable point keyed by ``fingerprint(spec, rack)`` and
    simulated on its own scheduler shard — byte-identical outcomes
    either way, because every rack is a pure function of (spec, index).
    """
    if runner is None:
        return FleetSim(spec).run()
    from repro.runtime import PointFailure, fingerprint

    jobs = [_RackJob(spec=spec, rack=index) for index in range(spec.racks)]
    keys = [fingerprint("fleet-rack/v1", job) for job in jobs]
    rows = runner.map(
        _rack_job,
        jobs,
        keys=keys,
        encode=_encode_outcome,
        decode=_decode_outcome,
        label="fleet",
    )
    outcomes = [row for row in rows if not isinstance(row, PointFailure)]
    failures = [row for row in rows if isinstance(row, PointFailure)]
    return FleetResult(spec=spec, outcomes=outcomes, failures=failures)
