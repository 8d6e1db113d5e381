"""Batched physics: the two evaluations that pay for batching.

* :func:`fleet_surface` evaluates the acoustics -> wall -> mount ->
  servo chain over a (bay x frequency) grid for a whole rack.  Every bay
  sits behind one wall in one water column and the rack runs one servo
  model, so the source/water/wall stage and the head-stack/rejection
  stage are computed once per frequency and reused for every bay.  Each
  stage is evaluated by its model class (``Enclosure``, ``Mount``,
  ``ModalResponse``, ``ServoSystem``), so no formula is restated here
  and every cell is bit-identical to the scalar chain run on that
  (bay, frequency) pair.
* :func:`run_sequential_static` evaluates a healthy-regime sequential
  FIO run in closed form: with a per-attempt success probability >= 1
  the per-op issue loop is an arithmetic series, so one
  ``cumsum``/``searchsorted`` reproduces its clock timings, latencies,
  counters and RNG stream (zero draws) exactly.  numpy is used only for
  operations that are IEEE-754-identical to the scalar ``+=`` chain
  (``cumsum`` accumulates strictly left to right, ``diff``,
  ``searchsorted``).  Degraded, stalled, random-mode and traced runs
  fall back to the scalar loop, which is cheap there.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, UnitError
from repro.hdd.servo import OpKind
from repro.units import SECTOR_SIZE

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.coupling import AttackCoupling
    from repro.hdd.servo import ServoSystem
    from repro.workloads.fio import FioJob, FioResult, FioTester

__all__ = ["fleet_surface", "run_sequential_static"]

#: Backstop for the closed-form op-count search: a sweep point's FIO run
#: is a few thousand ops; anything needing more slots than this signals
#: a pathological (runtime, service-time) pair better served scalar.
_MAX_CLOSED_FORM_OPS = 50_000_000


def _grid(frequencies: Sequence[float]) -> List[float]:
    """Validate a frequency grid exactly like the scalar guards."""
    freqs = []
    for f in frequencies:
        f = float(f)
        if not (0.0 < f < math.inf):
            raise UnitError(f"frequency must be positive and finite: {f}")
        freqs.append(f)
    return freqs


# --------------------------------------------------------------------------
# Rack surface: one call per rack
# --------------------------------------------------------------------------


def _shared_rack_stage(couplings: "Sequence[AttackCoupling]") -> "AttackCoupling":
    """Validate that every bay shares the source/water/wall stage.

    Returns the representative coupling whose attacker, environment,
    enclosure, and structure-coupling calibration apply rack-wide.
    Raises :class:`ConfigurationError` for heterogeneous racks — those
    must be evaluated with the per-bay scalar chain.
    """
    first = couplings[0]
    for other in couplings[1:]:
        if other is first:
            continue
        if not (
            (other.environment is first.environment or other.environment == first.environment)
            and (other.attacker is first.attacker or other.attacker == first.attacker)
            and (
                other.scenario.enclosure is first.scenario.enclosure
                or other.scenario.enclosure == first.scenario.enclosure
            )
            and other.scenario.calibration.structure_coupling
            == first.scenario.calibration.structure_coupling
        ):
            raise ConfigurationError(
                "rack bays do not share a source/water/wall stage; "
                "evaluate them with the per-bay scalar chain instead"
            )
    return first


def fleet_surface(
    couplings: "Sequence[AttackCoupling]",
    base_config,
    frequencies: Sequence[float],
    servo: "Optional[ServoSystem]" = None,
) -> "Dict[str, list]":
    """(bay × frequency) attack response surface for a whole rack.

    Returns the lists ``frequency_hz`` and ``wall_pressure_pa`` plus
    ``bays``: one dict per coupling, in order, holding the per-frequency
    lists ``displacement_m``, ``offtrack_m``, ``p_write``, ``p_read`` and
    ``stalled``.  ``servo`` is the one servo model every bay runs
    (default: the paper's Barracuda).  Every element is bit-identical to
    the scalar chain run on that (bay, frequency) cell.
    """
    if not couplings:
        raise ConfigurationError("fleet_surface needs at least one bay")
    freqs = _grid(frequencies)
    first = _shared_rack_stage(couplings)
    if servo is None:
        from repro.hdd.profiles import BARRACUDA_500GB

        servo = BARRACUDA_500GB.servo

    # Shared wall stage: once per frequency for the whole rack.
    enclosure = first.scenario.enclosure
    coupling_gain = first.scenario.calibration.structure_coupling
    pressures = []
    shared = []
    for f in freqs:
        pressure = first.wall_pressure_pa(base_config.at_frequency(f))
        if pressure < 0.0:
            raise UnitError(f"pressure must be non-negative: {pressure}")
        pressures.append(pressure)
        shared.append(
            0.0
            if pressure == 0.0
            else pressure * enclosure.frame_displacement_per_pascal(f) * coupling_gain
        )

    # Shared servo stage: the whole rack runs one servo model.
    head_gain = servo.head_gain
    servo_stage = [
        (servo.hsa.response(f) * head_gain, servo.rejection(f)) for f in freqs
    ]
    limit = servo.servo_limit_m
    success = servo.success_from_amplitude

    bays = []
    for coupling in couplings:
        transmissibility = coupling.scenario.mount.transmissibility
        disps = [
            0.0 if s == 0.0 else s * transmissibility(f)
            for s, f in zip(shared, freqs)
        ]
        offs = [
            0.0 if d == 0.0 else d * mechanical * rejection
            for d, (mechanical, rejection) in zip(disps, servo_stage)
        ]
        bays.append(
            {
                "displacement_m": disps,
                "offtrack_m": offs,
                "p_write": [success(OpKind.WRITE, a, f) for a, f in zip(offs, freqs)],
                "p_read": [success(OpKind.READ, a, f) for a, f in zip(offs, freqs)],
                "stalled": [a >= limit for a in offs],
            }
        )
    return {"frequency_hz": freqs, "wall_pressure_pa": pressures, "bays": bays}


# --------------------------------------------------------------------------
# Closed-form sequential FIO evaluation
# --------------------------------------------------------------------------


def run_sequential_static(
    tester: "FioTester", job: "FioJob", result: "FioResult"
) -> "Optional[FioResult]":
    """Evaluate a healthy-regime sequential FIO run in closed form.

    When every attempt succeeds deterministically (success probability
    >= 1) and the drive state is static, the scalar issue loop is a pure
    arithmetic series: op ``k`` starts at ``T[k] = T[k-1] + base`` with a
    constant near-track service time after the first op.  This function
    reproduces that walk with one ``cumsum`` (bit-identical to the
    scalar ``+=`` chain), derives the op count with ``searchsorted`` on
    the elapsed times, and commits exactly the clock, counter, cache,
    and head-position state the scalar loop would leave behind — with
    zero RNG draws, matching the scalar path's ``p >= 1`` short-circuit.

    Returns ``result`` (filled in) on success, or None when the run is
    not eligible (degraded/stalled point, random mode, telemetry on,
    vibration schedule, I/O fast path off, cursor wrap, ...) — the
    caller then takes the scalar loop unchanged.
    """
    drive = tester.drive
    if job.mode.is_random or tester._obs is not None or drive._obs is not None:
        return None
    if drive._schedule is not None or not drive._fast_path:
        return None
    controller = drive.controller
    if controller._attempt_tracer is not None:
        return None
    runtime_s = job.runtime_s
    is_write = job.mode.is_write
    if not is_write and drive.store_data:
        return None  # scalar reads consult the sector store

    # Replicate the controller's per-command (vibration, parked)
    # identity cache exactly as the first scalar op would, so a fallback
    # after this point leaves the same state a scalar run produces.
    profile = controller.profile
    vibration = drive.vibration
    parked = drive.parked
    op = OpKind.WRITE if is_write else OpKind.READ
    if (
        controller._static_vibration is not vibration
        or controller._static_parked != parked
    ):
        controller._static_vibration = vibration
        controller._static_parked = parked
        controller._static_p_read = None
        controller._static_p_write = None
    success_p = (
        controller._static_p_write if is_write else controller._static_p_read
    )
    if success_p is None:
        success_p = (
            0.0 if parked else profile.servo.success_probability(op, vibration)
        )
        if is_write:
            controller._static_p_write = success_p
        else:
            controller._static_p_read = success_p
    if success_p < 1.0:
        return None  # degraded or stalled: few ops, scalar walk is cheap

    region_start = job.region_start_lba
    region_end = min(region_start + job.region_sectors, drive.total_sectors)
    sectors_per_block = job.sectors_per_block
    span_blocks = (region_end - region_start) // sectors_per_block
    if span_blocks <= 0:
        return None  # scalar path raises the ConfigurationError

    # Service times: the first op may pay a seek; afterwards consecutive
    # sequential ops advance at most one track, so they all share the
    # memoized zero-seek base.
    nbytes = sectors_per_block * 512
    cache = controller._service_write if is_write else controller._service_read
    base = cache.get(nbytes)
    cache_missing = base is None
    if cache_missing:
        overhead = (
            profile.write_overhead_s if is_write else profile.read_overhead_s
        )
        base = overhead + profile.transfer_time_s(nbytes)
    track0, _ = profile.geometry.locate(region_start)
    distance = track0 - controller.current_track
    op0_near = -1 <= distance <= 1
    if op0_near:
        base0 = base
    else:
        seek = profile.seek.seek_time_s(abs(distance))
        overhead = (
            profile.write_overhead_s if is_write else profile.read_overhead_s
        )
        base0 = seek + overhead + profile.transfer_time_s(nbytes)
    host_timeout_s = profile.host_timeout_s
    # IEEE addition is monotone: base <= timeout implies
    # fl(now + base) <= fl(now + timeout), so the scalar deadline check
    # can never fire and the closed form holds with no timeout branch.
    if not (0.0 < base <= host_timeout_s and 0.0 < base0 <= host_timeout_s):
        return None

    # Completion times T[k] = start + base0 + (k-1)*base, accumulated
    # with cumsum to reproduce the scalar += chain bit for bit.
    clock = drive.clock
    start = clock.now
    slots = int(runtime_s / base) + 2
    while True:
        if slots > _MAX_CLOSED_FORM_OPS:
            return None
        steps = np.empty(slots + 1, dtype=np.float64)
        steps[0] = start
        steps[1] = base0
        steps[2:] = base
        times = np.cumsum(steps)
        elapsed = times - start
        if elapsed[-1] >= runtime_s:
            break
        slots *= 2
    completed = int(np.searchsorted(elapsed, runtime_s, side="left"))
    if completed > span_blocks:
        return None  # the sequential cursor would wrap back and re-seek

    # Commit: exactly the state the scalar loop leaves behind.
    latencies = np.diff(times[: completed + 1])
    clock.advance_to(float(times[completed]))
    controller.commands += completed
    if cache_missing and (op0_near or completed >= 2):
        cache[nbytes] = base
    last_lba = region_start + (completed - 1) * sectors_per_block
    if sectors_per_block > 1:
        end_track, _ = profile.geometry.locate(last_lba + sectors_per_block - 1)
    else:
        end_track, _ = profile.geometry.locate(last_lba)
    controller.current_track = end_track
    stats = drive.stats
    if is_write:
        stats.writes += completed
        stats.sectors_written += completed * sectors_per_block
    else:
        stats.reads += completed
        stats.sectors_read += completed * sectors_per_block
        if sectors_per_block not in drive._zero_blocks:
            drive._zero_blocks[sectors_per_block] = b"\x00" * (
                sectors_per_block * SECTOR_SIZE
            )
    drive._sync_counters()

    result.completed_ops = completed
    result.timeout_ops = 0
    result.error_ops = 0
    result.bytes_moved = completed * job.block_bytes
    result.total_latency_s = float(np.cumsum(latencies)[-1])
    result.max_latency_s = float(latencies.max())
    result.busy_time_s = float(elapsed[completed])
    result.latencies_s.frombytes(latencies.tobytes())
    return result
