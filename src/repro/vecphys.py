"""Batched physics: the rack surface, the one evaluation that pays for batching.

:func:`fleet_surface` evaluates the acoustics -> wall -> mount -> servo
chain over a (bay x frequency) grid for a whole rack.  Every bay sits
behind one wall in one water column and the rack runs one servo model,
so the source/water/wall stage and the head-stack/rejection stage are
computed once per frequency and reused for every bay.  Each stage is
evaluated by its model class (``Enclosure``, ``Mount``,
``ModalResponse``, ``ServoSystem``), so no formula is restated here and
every cell is bit-identical to the scalar chain run on that (bay,
frequency) pair.

The closed form of a healthy sequential FIO run lives with the drive it
describes: :meth:`repro.hdd.drive.HardDiskDrive.run_sequential`.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, UnitError
from repro.hdd.servo import OpKind

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.coupling import AttackCoupling
    from repro.hdd.servo import ServoSystem

__all__ = ["fleet_surface"]


def _grid(frequencies: Sequence[float]) -> List[float]:
    """Validate a frequency grid exactly like the scalar guards."""
    freqs = []
    for f in frequencies:
        f = float(f)
        if not (0.0 < f < math.inf):
            raise UnitError(f"frequency must be positive and finite: {f}")
        freqs.append(f)
    return freqs


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
