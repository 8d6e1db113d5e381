"""Drive profiles: the tunable performance envelope of a drive model.

A profile bundles everything the simulator needs to reproduce a specific
commercial drive.  :data:`BARRACUDA_500GB` matches the victim drive of
the case study: its quiescent FIO numbers (18.0 MB/s sequential read,
22.7 MB/s sequential write at 4 KiB, ~0.2 ms latency) are the "No
Attack" rows of the paper's Table 1.

The 4 KiB figures are far below the drive's large-block streaming rate
because each small request pays command overhead; the profile therefore
carries per-command overheads that were fit to the paper's baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnitError
from repro.units import BLOCK_4K, MIB

from .geometry import DiskGeometry, Zone
from .mechanics import SeekModel, SpindleMechanics
from .servo import ServoSystem
from .shock import ShockSensor

__all__ = [
    "DriveProfile",
    "BARRACUDA_500GB",
    "make_barracuda_profile",
    "make_laptop_profile",
    "make_enterprise_profile",
    "make_ssd_like_profile",
]


@dataclass
class DriveProfile:
    """Static description of a drive model.

    Attributes:
        name: marketing name of the drive.
        geometry: platter/zone layout and track pitch.
        spindle: rotation model.
        seek: actuator model.
        servo: servo/fault model.
        shock_sensor: ultrasonic parking path.
        media_rate_bytes_per_s: raw media transfer rate.
        read_overhead_s: firmware + interface overhead per read command.
        write_overhead_s: overhead per write command (lower: write-back
            caching hides part of the path).
        host_timeout_s: how long the host layer waits before declaring a
            command dead (Linux SCSI defaults to 30 s; distribution
            kernels for servers commonly tune it down).
        max_attempts: media retries before the drive returns a hard
            error for a *faulted* (not stalled) operation.
    """

    name: str
    geometry: DiskGeometry
    spindle: SpindleMechanics = field(default_factory=SpindleMechanics)
    seek: SeekModel = field(default_factory=SeekModel)
    servo: ServoSystem = field(default_factory=ServoSystem)
    shock_sensor: ShockSensor = field(default_factory=ShockSensor)
    media_rate_bytes_per_s: float = 120.0 * MIB
    read_overhead_s: float = 0.1950e-3
    write_overhead_s: float = 0.1479e-3
    host_timeout_s: float = 25.0
    max_attempts: int = 256

    def __post_init__(self) -> None:
        if self.media_rate_bytes_per_s <= 0.0:
            raise UnitError("media rate must be positive")
        if self.read_overhead_s < 0.0 or self.write_overhead_s < 0.0:
            raise UnitError("command overheads must be non-negative")
        if self.host_timeout_s <= 0.0:
            raise UnitError("host timeout must be positive")
        if self.max_attempts < 1:
            raise UnitError("need at least one attempt")

    def transfer_time_s(self, nbytes: int) -> float:
        """Media transfer time for ``nbytes`` of data."""
        if nbytes <= 0:
            raise UnitError(f"transfer size must be positive: {nbytes}")
        return nbytes / self.media_rate_bytes_per_s

    def sequential_read_mbps(self, block_bytes: int = BLOCK_4K) -> float:
        """Quiescent sequential read throughput (decimal MB/s)."""
        per_op = self.read_overhead_s + self.transfer_time_s(block_bytes)
        return block_bytes / 1e6 / per_op

    def sequential_write_mbps(self, block_bytes: int = BLOCK_4K) -> float:
        """Quiescent sequential write throughput (decimal MB/s)."""
        per_op = self.write_overhead_s + self.transfer_time_s(block_bytes)
        return block_bytes / 1e6 / per_op


# Campaigns build a fresh rig per sweep point, but the zone table of a
# drive model never changes: share one DiskGeometry per profile family
# so fresh profiles skip rebuilding it.  Mutable per-drive state (servo, seek, spindle,
# shock sensor) stays per-instance — see
# tests/test_hdd_geometry.py::test_fresh_profiles_are_independent.
_BARRACUDA_GEOMETRY = DiskGeometry.barracuda_500gb()


def make_barracuda_profile() -> DriveProfile:
    """Fresh profile instance of the case-study victim drive."""
    geometry = _BARRACUDA_GEOMETRY
    return DriveProfile(
        name="Seagate Barracuda 500GB (victim)",
        geometry=geometry,
        spindle=SpindleMechanics(rpm=7200.0),
        seek=SeekModel(total_tracks=geometry.total_tracks),
        servo=ServoSystem(track_pitch_m=geometry.track_pitch_m),
    )


def make_laptop_profile() -> DriveProfile:
    """A 2.5" 5400 rpm laptop drive (Blue Note's in-air victims).

    Narrower track pitch and a softer suspension make it *more*
    sensitive per pascal; the slower spindle makes each retry pricier.
    """
    zones = [Zone(0, 30_000, max(900, int(1500 * 0.97 ** i))) for i in range(12)]
    tiled = []
    first = 0
    for zone in zones:
        tiled.append(Zone(first, zone.track_count, zone.sectors_per_track))
        first += zone.track_count
    geometry = DiskGeometry(tiled, track_pitch_m=85.0 * 1e-9)
    servo = ServoSystem(track_pitch_m=geometry.track_pitch_m, head_gain=3.6)
    return DriveProfile(
        name="2.5in laptop 320GB",
        geometry=geometry,
        spindle=SpindleMechanics(rpm=5400.0),
        seek=SeekModel(total_tracks=geometry.total_tracks, full_stroke_s=22.0e-3),
        servo=servo,
        media_rate_bytes_per_s=80.0 * MIB,
        read_overhead_s=0.24e-3,
        write_overhead_s=0.19e-3,
    )


def make_enterprise_profile() -> DriveProfile:
    """A 10k rpm enterprise drive with rotational-vibration compensation.

    Enterprise firmware feeds RV-sensor signals forward into the servo
    (modelled as a higher rejection corner and stiffer mounting), the
    defense direction Section 5 raises for data-center drives.
    """
    zones = []
    first = 0
    sectors = 2000
    for _ in range(16):
        zones.append(Zone(first, 30_000, sectors))
        first += 30_000
        sectors = max(1300, int(sectors * 0.97))
    geometry = DiskGeometry(zones, track_pitch_m=120.0 * 1e-9)
    servo = ServoSystem(
        track_pitch_m=geometry.track_pitch_m,
        rejection_corner_hz=1400.0,  # RV feed-forward widens rejection
        head_gain=2.2,
    )
    return DriveProfile(
        name="enterprise 10k 600GB",
        geometry=geometry,
        spindle=SpindleMechanics(rpm=10_000.0),
        seek=SeekModel(
            total_tracks=geometry.total_tracks,
            track_to_track_s=0.4e-3,
            full_stroke_s=12.0e-3,
            settle_s=0.8e-3,
        ),
        servo=servo,
        media_rate_bytes_per_s=180.0 * MIB,
        read_overhead_s=0.11e-3,
        write_overhead_s=0.08e-3,
    )


def make_ssd_like_profile() -> DriveProfile:
    """An SSD stand-in: no mechanics to attack.

    The paper motivates HDDs by cost ("lower cost-to-storage-capacity
    ratio ... compared to SSDs"); the flip side is that solid-state
    storage has no servo to disturb.  Modelled as a drive whose
    "head" barely couples to vibration (no moving parts), with flash
    service times.  Used by the drive-type ablation to quantify the
    trade the paper alludes to.
    """
    geometry = DiskGeometry([Zone(0, 200_000, 4000)], track_pitch_m=110.0 * 1e-9)
    servo = ServoSystem(
        track_pitch_m=geometry.track_pitch_m,
        head_gain=1e-6,  # effectively immune: nothing mechanical moves
    )
    return DriveProfile(
        name="SATA SSD 480GB",
        geometry=geometry,
        spindle=SpindleMechanics(rpm=7200.0),  # unused: no rotational waits
        seek=SeekModel(total_tracks=geometry.total_tracks),
        servo=servo,
        media_rate_bytes_per_s=400.0 * MIB,
        read_overhead_s=0.05e-3,
        write_overhead_s=0.03e-3,
    )


#: Shared immutable-use instance of the victim drive profile.
BARRACUDA_500GB = make_barracuda_profile()
