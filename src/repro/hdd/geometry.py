"""Disk platter geometry: zones, tracks, and LBA mapping.

Modern drives use zoned bit recording: outer zones pack more sectors per
track than inner ones, so sequential throughput is higher at low LBAs.
The geometry also defines the track pitch, which sets the absolute scale
of the servo off-track thresholds (a percentage of the pitch, following
Bolton et al.).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError, UnitError
from repro.units import NM, SECTOR_SIZE

__all__ = ["Zone", "DiskGeometry"]


@dataclass(frozen=True)
class Zone:
    """A recording zone: a contiguous band of tracks with equal density."""

    first_track: int
    track_count: int
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.first_track < 0:
            raise ConfigurationError(f"first track must be >= 0: {self.first_track}")
        if self.track_count <= 0:
            raise ConfigurationError(f"track count must be positive: {self.track_count}")
        if self.sectors_per_track <= 0:
            raise ConfigurationError(
                f"sectors per track must be positive: {self.sectors_per_track}"
            )

    @property
    def last_track(self) -> int:
        """Index one past the final track of the zone."""
        return self.first_track + self.track_count

    @property
    def sectors(self) -> int:
        """Total sectors in the zone."""
        return self.track_count * self.sectors_per_track


class DiskGeometry:
    """Maps logical block addresses to (track, sector-in-track) positions.

    Surfaces are interleaved at track granularity (cylinder mode is not
    modelled separately: "track" here means one servo-track worth of
    sectors across all surfaces, which is sufficient for service-time and
    fault modelling).
    """

    def __init__(self, zones: List[Zone], track_pitch_m: float = 110.0 * NM) -> None:
        if not zones:
            raise ConfigurationError("geometry needs at least one zone")
        if track_pitch_m <= 0.0:
            raise UnitError(f"track pitch must be positive: {track_pitch_m}")
        expected_first = 0
        for zone in zones:
            if zone.first_track != expected_first:
                raise ConfigurationError(
                    f"zones must tile the surface: expected first track "
                    f"{expected_first}, got {zone.first_track}"
                )
            expected_first = zone.last_track
        self.zones = list(zones)
        self.track_pitch_m = track_pitch_m
        self.total_tracks = expected_first
        self.total_sectors = sum(zone.sectors for zone in zones)
        # Cumulative sector offsets for LBA translation.
        self._zone_starts: List[int] = []
        acc = 0
        for zone in zones:
            self._zone_starts.append(acc)
            acc += zone.sectors

    @property
    def capacity_bytes(self) -> int:
        """Usable capacity in bytes (512-byte sectors)."""
        return self.total_sectors * SECTOR_SIZE

    def zone_of_lba(self, lba: int) -> Tuple[int, Zone]:
        """Return (zone index, zone) containing ``lba``."""
        if not 0 <= lba < self.total_sectors:
            raise UnitError(f"LBA out of range: {lba}")
        index = bisect_right(self._zone_starts, lba) - 1
        return index, self.zones[index]

    def locate(self, lba: int) -> Tuple[int, int]:
        """Map ``lba`` to (track index, sector within track)."""
        track, first, _ = self.track_span(lba)
        return track, lba - first

    def track_span(self, lba: int) -> Tuple[int, int, int]:
        """The track holding ``lba``: (track index, its first LBA, the
        LBA one past its last sector)."""
        index, zone = self.zone_of_lba(lba)
        zone_start = self._zone_starts[index]
        sectors_per_track = zone.sectors_per_track
        track_in_zone = (lba - zone_start) // sectors_per_track
        first = zone_start + track_in_zone * sectors_per_track
        return zone.first_track + track_in_zone, first, first + sectors_per_track

    def sectors_per_track_at(self, lba: int) -> int:
        """Sectors per track in the zone containing ``lba``."""
        _, zone = self.zone_of_lba(lba)
        return zone.sectors_per_track

    def track_distance(self, lba_a: int, lba_b: int) -> int:
        """Number of tracks between the homes of two LBAs (seek length)."""
        track_a, _ = self.locate(lba_a)
        track_b, _ = self.locate(lba_b)
        return abs(track_a - track_b)

    @staticmethod
    def barracuda_500gb() -> "DiskGeometry":
        """Approximate zoning of a 500 GB 3.5" desktop drive.

        16 zones from ~1 860 to ~1 100 sectors per track over ~600 k
        tracks; capacity lands within a percent of 500 GB (decimal).
        """
        zones: List[Zone] = []
        first = 0
        sectors_per_track = 1860
        track_count = 38_000
        for _ in range(16):
            zones.append(Zone(first, track_count, sectors_per_track))
            first += track_count
            sectors_per_track = max(1100, int(sectors_per_track * 0.967))
        return DiskGeometry(zones, track_pitch_m=110.0 * NM)
