"""Ablations over the design factors the paper's Section 5 raises.

* container material (structure: "Data Center Structure and HDD types"),
* source level (effective range with bigger speakers),
* water conditions (temperature / salinity / depth),
* candidate defenses (absorbers, isolators, firmware hardening).

Each returns plain rows so benchmarks and the CLI can render or assert
on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.acoustics.medium import WaterConditions
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.sound_speed import sound_speed_medwin
from repro.analysis.tables import Table
from repro.core.attacker import AcousticAttacker, AttackConfig
from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.coupling import AttackCoupling
from repro.core.defenses import (
    AbsorbentCoating,
    Defense,
    DefendedScenario,
    FirmwareNotchFilter,
    VibrationIsolators,
    evaluate_defense,
)
from repro.core.environment import UnderwaterEnvironment
from repro.core.scenario import Scenario
from repro.hdd.profiles import BARRACUDA_500GB, DriveProfile
from repro.hdd.servo import OpKind
from repro.runtime import PointFailure, SweepRunner, fingerprint, make_runner
from repro.vibration.enclosure import Enclosure
from repro.vibration.materials import ACRYLIC, ALUMINUM, HARD_PLASTIC, STEEL, TITANIUM, Material
from repro.vibration.mount import StorageTower

from .paper_data import ATTACK_LEVEL_DB, ATTACK_TONE_HZ

__all__ = [
    "run_material_ablation",
    "run_source_level_ablation",
    "run_water_conditions_ablation",
    "run_defense_ablation",
    "run_drive_type_ablation",
]


def _offtrack_ratios(
    coupling: AttackCoupling,
    frequencies_hz: Sequence[float],
    servo,
    op: OpKind,
) -> "List[float]":
    """Write off-track ratios over a frequency grid (one table row)."""
    threshold = servo.threshold_m(op)
    ratios = []
    for frequency in frequencies_hz:
        config = AttackConfig(frequency, ATTACK_LEVEL_DB, 0.01)
        vibration = coupling.vibration_at_drive(config)
        ratios.append(servo.offtrack_amplitude_m(vibration) / threshold)
    return ratios


# --------------------------------------------------------------------------
# Module-level row jobs (picklable, so ablation grids can fan out over a
# SweepRunner worker pool and memoize like the measurement campaigns)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _MaterialRowSpec:
    material: Material
    frequencies_hz: "tuple[float, ...]"
    soft: bool  # plastics keep raw coupling; metals get the penalty


def _material_row_job(spec: _MaterialRowSpec) -> "List[str]":
    from repro.vibration.transmission import PanelWall

    wall = PanelWall(material=spec.material, thickness_m=0.004)
    enclosure = Enclosure(name=spec.material.name, wall=wall)
    if not spec.soft:
        # Stiff metallic walls get the calibrated rolloff/penalty.
        enclosure.structural_gain *= DEFAULT_CALIBRATION.metal_coupling_penalty
        enclosure.stiffness_rolloff_hz = DEFAULT_CALIBRATION.metal_rolloff_hz
    scenario = Scenario(name=spec.material.name, enclosure=enclosure, mount=StorageTower(bay=1))
    coupling = AttackCoupling.paper_setup(scenario)
    row = [spec.material.name]
    ratios = _offtrack_ratios(
        coupling, spec.frequencies_hz, BARRACUDA_500GB.servo, OpKind.WRITE
    )
    row.extend(f"{ratio:.2f}" for ratio in ratios)
    return row


@dataclass(frozen=True)
class _SourceLevelSpec:
    level_db: float


def _source_level_job(spec: _SourceLevelSpec) -> "List[str]":
    scenario = Scenario.scenario_2()
    environment = UnderwaterEnvironment.open_water(WaterConditions.tank())
    servo = BARRACUDA_500GB.servo
    threshold = servo.threshold_m(OpKind.WRITE)
    attacker = AcousticAttacker.military_rig()
    coupling = AttackCoupling(environment=environment, scenario=scenario, attacker=attacker)

    def ratio_at(distance: float) -> float:
        config = AttackConfig(ATTACK_TONE_HZ, spec.level_db, distance)
        vibration = coupling.vibration_at_drive(config)
        return servo.offtrack_amplitude_m(vibration) / threshold

    if ratio_at(0.01) < 1.0:
        return [f"{spec.level_db:.0f}", "0 (ineffective)"]
    low, high = 0.01, 100_000.0
    if ratio_at(high) >= 1.0:
        return [f"{spec.level_db:.0f}", f">{high:.0f}"]
    for _ in range(200):
        mid = math.sqrt(low * high)
        if ratio_at(mid) >= 1.0:
            low = mid
        else:
            high = mid
    return [f"{spec.level_db:.0f}", f"{low:.2f}"]


@dataclass(frozen=True)
class _DriveRowSpec:
    profile: DriveProfile
    frequencies_hz: "tuple[float, ...]"


def _drive_row_job(spec: _DriveRowSpec) -> "List[str]":
    coupling = AttackCoupling.paper_setup(Scenario.scenario_2())
    row = [spec.profile.name]
    ratios = _offtrack_ratios(
        coupling, spec.frequencies_hz, spec.profile.servo, OpKind.WRITE
    )
    row.extend(f"{ratio:.2f}" for ratio in ratios)
    return row


def _encode_row(row: "List[str]") -> dict:
    return {"row": list(row)}


def _decode_row(payload: dict) -> "List[str]":
    return list(payload["row"])


def _map_rows(
    fn,
    specs,
    kind: str,
    label: str,
    workers: int,
    cache_dir: Optional[str],
    runner: "Optional[SweepRunner]",
    columns: int = 0,
) -> "List[List[str]]":
    """Run ablation row jobs through a runner (or inline when absent).

    Under a resilient runner a row that exhausted its retries comes back
    as a :class:`~repro.runtime.PointFailure`; it is rendered as a
    degraded table row (padded to ``columns`` cells) so the remaining
    ablation rows still print.
    """
    if runner is None:
        runner = make_runner(workers=workers, cache_dir=cache_dir)
    if runner is None:
        return [fn(spec) for spec in specs]
    keys = [fingerprint(kind, spec) for spec in specs]
    rows = runner.map(
        fn, specs, keys=keys, encode=_encode_row, decode=_decode_row, label=label
    )
    resolved = []
    for row in rows:
        if isinstance(row, PointFailure):
            cells = [f"FAILED ({row.kind} x{row.attempts})"]
            resolved.append(cells + ["-"] * (max(columns, 1) - 1))
        else:
            resolved.append(row)
    return resolved


def run_material_ablation(
    frequencies_hz: Sequence[float] = (300.0, 650.0, 1000.0, 1300.0, 1700.0, 2500.0),
    workers: int = 1,
    cache_dir: Optional[str] = None,
    runner: "Optional[SweepRunner]" = None,
) -> Table:
    """Predicted write off-track ratio per wall material and frequency.

    Values >= 1 mean write faults; >= 2.5 (the servo limit over the
    write threshold) means the no-response regime.
    """
    materials = (HARD_PLASTIC, ACRYLIC, ALUMINUM, STEEL, TITANIUM)
    table = Table(
        "Ablation: container material vs predicted write off-track ratio "
        f"(1 cm, {ATTACK_LEVEL_DB:.0f} dB)",
        ["material"] + [f"{f:.0f} Hz" for f in frequencies_hz],
    )
    specs = [
        _MaterialRowSpec(
            material=material,
            frequencies_hz=tuple(frequencies_hz),
            soft=material is HARD_PLASTIC or material is ACRYLIC,
        )
        for material in materials
    ]
    rows = _map_rows(
        _material_row_job, specs, "material-row/v1", "ablation: materials",
        workers, cache_dir, runner, columns=1 + len(frequencies_hz),
    )
    for row in rows:
        table.add_row(*row)
    return table


def run_source_level_ablation(
    levels_db: Sequence[float] = (120.0, 130.0, 140.0, 160.0, 180.0, 200.0, 220.0),
    workers: int = 1,
    cache_dir: Optional[str] = None,
    runner: "Optional[SweepRunner]" = None,
) -> Table:
    """Maximum attack range vs. source level (Section 5, effective range).

    Range = farthest distance where the predicted write off-track ratio
    still exceeds 1 at 650 Hz in open fresh water (spherical spreading +
    absorption).  A military-grade 220 dB source reaches orders of
    magnitude farther than the commercial rig.
    """
    table = Table(
        "Ablation: source level vs maximum effective range (650 Hz, Scenario 2 coupling)",
        ["source dB re 1 uPa", "max range (m)"],
    )
    specs = [_SourceLevelSpec(level_db=level) for level in levels_db]
    rows = _map_rows(
        _source_level_job, specs, "source-level-row/v1", "ablation: source level",
        workers, cache_dir, runner, columns=2,
    )
    for row in rows:
        table.add_row(*row)
    return table


def run_water_conditions_ablation() -> Table:
    """Sound speed and absorption across the Section 5 water scenarios."""
    conditions = {
        "lab tank (fresh, 21 C)": WaterConditions.tank(),
        "Baltic 50 m": WaterConditions.baltic_50m(),
        "Natick site 36 m": WaterConditions.natick_site(),
        "warm shallow sea": WaterConditions(temperature_c=28.0, salinity_ppt=36.0, depth_m=5.0),
    }
    table = Table(
        "Ablation: water conditions (sound speed, absorption at 500 Hz / 650 Hz)",
        ["conditions", "c (m/s)", "alpha@500Hz dB/km", "alpha@650Hz dB/km"],
    )
    for name, cond in conditions.items():
        model = PropagationModel(conditions=cond)
        speed = sound_speed_medwin(cond.temperature_c, cond.salinity_ppt, cond.depth_m)
        table.add_row(
            name,
            f"{speed:.1f}",
            f"{model.absorption_db_per_km(500.0):.4f}",
            f"{model.absorption_db_per_km(650.0):.4f}",
        )
    return table


def run_drive_type_ablation(
    frequencies_hz: Sequence[float] = (300.0, 650.0, 1000.0, 1300.0, 1700.0),
    workers: int = 1,
    cache_dir: Optional[str] = None,
    runner: "Optional[SweepRunner]" = None,
) -> Table:
    """Different HDD types under the same attack (Section 5's question).

    Reports each drive's predicted write off-track ratio at 1 cm/140 dB:
    laptop drives (finer pitch, softer suspension) fare worse than the
    desktop victim, and an RV-compensated enterprise drive shrinks the
    band considerably — firmware matters.
    """
    from repro.hdd.profiles import (
        make_barracuda_profile,
        make_enterprise_profile,
        make_laptop_profile,
        make_ssd_like_profile,
    )

    profiles = [
        make_laptop_profile(),
        make_barracuda_profile(),
        make_enterprise_profile(),
        make_ssd_like_profile(),
    ]
    table = Table(
        "Ablation: HDD type vs predicted write off-track ratio (1 cm, 140 dB)",
        ["drive"] + [f"{f:.0f} Hz" for f in frequencies_hz],
    )
    specs = [
        _DriveRowSpec(profile=profile, frequencies_hz=tuple(frequencies_hz))
        for profile in profiles
    ]
    rows = _map_rows(
        _drive_row_job, specs, "drive-row/v1", "ablation: drive types",
        workers, cache_dir, runner, columns=1 + len(frequencies_hz),
    )
    for row in rows:
        table.add_row(*row)
    return table


def run_defense_ablation(
    frequency_hz: float = ATTACK_TONE_HZ,
) -> Table:
    """Insertion loss and residual vulnerability of each defense."""
    defenses: List[Defense] = [
        AbsorbentCoating(thickness_m=0.02),
        AbsorbentCoating(thickness_m=0.05),
        VibrationIsolators(corner_hz=80.0),
        FirmwareNotchFilter(corner_multiplier=1.8),
    ]
    table = Table(
        f"Ablation: defenses at {frequency_hz:.0f} Hz / {ATTACK_LEVEL_DB:.0f} dB / 1 cm",
        [
            "defense",
            "insertion loss dB",
            "residual write ratio",
            "still effective?",
            "thermal cost C",
        ],
    )
    base = Scenario.scenario_2()
    servo = BARRACUDA_500GB.servo
    for defense in defenses:
        summary = evaluate_defense(defense, scenario=base, frequency_hz=frequency_hz)
        defended = DefendedScenario(base, defense)
        coupling = AttackCoupling.paper_setup(defended)
        config = AttackConfig(frequency_hz, ATTACK_LEVEL_DB, 0.01)
        vibration = coupling.vibration_at_drive(config)
        hardened = defense.harden_servo(servo)
        ratio = hardened.offtrack_amplitude_m(vibration) / hardened.threshold_m(OpKind.WRITE)
        table.add_row(
            defense.name,
            f"{summary['insertion_loss_db']:.1f}",
            f"{ratio:.2f}",
            "yes" if ratio >= 1.0 else "no",
            f"{defense.thermal_penalty_c:.1f}",
        )
    return table
