"""Software RAID over simulated drives.

Data centers do not run on single disks, so the reproduction includes
the obvious mitigation question: *does redundancy help against an
acoustic attack?*  RAID-0/1/5 arrays are implemented over member
:class:`~repro.storage.block.BlockDevice` instances with standard
semantics — striping, mirroring, rotating parity, degraded-mode
reconstruction, member failure tracking.

The punchline (``tests/test_raid.py``, ``results/ablation_raid.txt``):
acoustic interference is a **common-mode fault**.  Every member in the
same enclosure feels the same vibration, so all of them stall together
and redundancy buys nothing — unlike independent mechanical failures,
which RAID handles exactly as designed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import BlockIOError, ConfigurationError, ReproError
from repro.storage.block import BlockDevice

__all__ = ["RaidLevel", "RaidArray", "RaidGroup", "ArrayFailed", "level_tolerance"]


class ArrayFailed(ReproError):
    """Too many members failed; the array can no longer serve I/O."""


class RaidLevel(enum.Enum):
    """Supported array layouts."""

    RAID0 = "raid0"
    RAID1 = "raid1"
    RAID5 = "raid5"


def level_tolerance(level: RaidLevel, members: int) -> int:
    """How many member failures ``level`` survives with ``members`` disks.

    RAID0 stripes with no redundancy (0), RAID1 mirrors everything
    (``members - 1``), RAID5 rotates one member of parity (1).
    """
    return {
        RaidLevel.RAID0: 0,
        RaidLevel.RAID1: members - 1,
        RaidLevel.RAID5: 1,
    }[level]


@dataclass
class _Member:
    device: BlockDevice
    failed: bool = False
    errors: int = 0


def _xor_blocks(blocks: Sequence[bytes], size: int) -> bytes:
    out = bytearray(size)
    for block in blocks:
        for i, byte in enumerate(block):
            out[i] ^= byte
    return bytes(out)


class RaidArray:
    """A RAID-0/1/5 array exposing the block-device interface.

    Members must share a block size.  A member whose request fails is
    marked failed (kicked from the array) and subsequent I/O runs in
    degraded mode where the layout allows it.
    """

    def __init__(self, level: RaidLevel, members: Sequence[BlockDevice]) -> None:
        minimum = {RaidLevel.RAID0: 2, RaidLevel.RAID1: 2, RaidLevel.RAID5: 3}[level]
        if len(members) < minimum:
            raise ConfigurationError(
                f"{level.value} needs at least {minimum} members, got {len(members)}"
            )
        sizes = {member.block_size for member in members}
        if len(sizes) != 1:
            raise ConfigurationError("members must share a block size")
        self.level = level
        self.members = [_Member(device) for device in members]
        self.block_size = members[0].block_size
        self.reads = 0
        self.writes = 0
        self.degraded_reads = 0

    @classmethod
    def from_rack(
        cls, rack, level: RaidLevel, name_prefix: str = "sd"
    ) -> "RaidArray":
        """An array over every drive of a :class:`~repro.core.fleet.DriveRack`.

        This is the common-mode experiment in one line: all members sit
        in the same enclosure, so one acoustic attack on the rack
        (``rack.apply_attack`` — evaluated through the batched fleet
        kernels) degrades every member at once.  Member devices are
        named ``{name_prefix}0..N`` bottom bay first.
        """
        members = [
            BlockDevice(drive, name=f"{name_prefix}{i}")
            for i, drive in enumerate(rack.drives)
        ]
        return cls(level, members)

    # -- geometry ----------------------------------------------------------------

    @property
    def member_count(self) -> int:
        """Total members, failed or not."""
        return len(self.members)

    @property
    def data_members(self) -> int:
        """Members' worth of usable data capacity."""
        if self.level is RaidLevel.RAID0:
            return self.member_count
        if self.level is RaidLevel.RAID1:
            return 1
        return self.member_count - 1  # RAID5: one member of parity

    @property
    def total_blocks(self) -> int:
        """Usable logical blocks."""
        member_blocks = min(m.device.total_blocks for m in self.members)
        return member_blocks * self.data_members

    @property
    def failed_members(self) -> int:
        """How many members have been kicked."""
        return sum(1 for m in self.members if m.failed)

    @property
    def degraded(self) -> bool:
        """True when at least one member has failed."""
        return self.failed_members > 0

    @property
    def online(self) -> bool:
        """True while the array can still serve I/O."""
        return self.failed_members <= level_tolerance(self.level, self.member_count)

    def _check_online(self) -> None:
        if not self.online:
            raise ArrayFailed(
                f"{self.level.value} array lost {self.failed_members} of "
                f"{self.member_count} members"
            )

    # -- member I/O with failure tracking --------------------------------------------

    def _member_read(self, member: _Member, block: int) -> bytes:
        try:
            return member.device.read_block(block)
        except BlockIOError:
            member.failed = True
            member.errors += 1
            raise

    def _member_write(self, member: _Member, block: int, data: bytes) -> None:
        try:
            member.device.write_block(block, data)
        except BlockIOError:
            member.failed = True
            member.errors += 1
            raise

    # -- layout math -------------------------------------------------------------------

    def _raid5_layout(self, logical: int) -> "tuple[int, int, int]":
        """(stripe row, data member index, parity member index)."""
        n = self.member_count
        row, position = divmod(logical, n - 1)
        parity = (n - 1) - (row % n)
        data = position if position < parity else position + 1
        return row, data, parity

    # -- public I/O ----------------------------------------------------------------------

    def read_block(self, logical: int) -> bytes:
        """Read one logical block, reconstructing if degraded."""
        self._check_online()
        if not 0 <= logical < self.total_blocks:
            raise ConfigurationError(f"logical block {logical} out of range")
        self.reads += 1
        if self.level is RaidLevel.RAID0:
            row, position = divmod(logical, self.member_count)
            return self._member_read(self.members[position], row)

        if self.level is RaidLevel.RAID1:
            last_error: Optional[Exception] = None
            for member in self.members:
                if member.failed:
                    continue
                try:
                    return self._member_read(member, logical)
                except BlockIOError as err:
                    last_error = err
                    self._check_online()
            raise ArrayFailed(f"raid1 read failed on every mirror: {last_error}")

        row, data, parity = self._raid5_layout(logical)
        member = self.members[data]
        if not member.failed:
            try:
                return self._member_read(member, row)
            except BlockIOError:
                self._check_online()
        # Degraded: reconstruct from the surviving members + parity.
        self.degraded_reads += 1
        others = [
            self._member_read(self.members[i], row)
            for i in range(self.member_count)
            if i != data and not self.members[i].failed
        ]
        if len(others) != self.member_count - 1:
            raise ArrayFailed("raid5 cannot reconstruct: a second member is gone")
        return _xor_blocks(others, self.block_size)

    def write_block(self, logical: int, data: bytes) -> None:
        """Write one logical block (and parity/mirrors as the level needs)."""
        self._check_online()
        if len(data) != self.block_size:
            raise ConfigurationError(
                f"payload of {len(data)} bytes != block size {self.block_size}"
            )
        if not 0 <= logical < self.total_blocks:
            raise ConfigurationError(f"logical block {logical} out of range")
        self.writes += 1
        if self.level is RaidLevel.RAID0:
            row, position = divmod(logical, self.member_count)
            self._member_write(self.members[position], row, data)
            return

        if self.level is RaidLevel.RAID1:
            wrote = 0
            for member in self.members:
                if member.failed:
                    continue
                try:
                    self._member_write(member, logical, data)
                    wrote += 1
                except BlockIOError:
                    self._check_online()
            if wrote == 0:
                raise ArrayFailed("raid1 write reached no mirror")
            return

        # RAID5: read-modify-write of data + parity.
        row, data_index, parity_index = self._raid5_layout(logical)
        old_data = self.read_block(logical)
        parity_member = self.members[parity_index]
        try:
            if parity_member.failed:
                raise BlockIOError("parity member already failed")
            old_parity = self._member_read(parity_member, row)
            new_parity = _xor_blocks([old_parity, old_data, data], self.block_size)
            if not self.members[data_index].failed:
                self._member_write(self.members[data_index], row, data)
            self._member_write(parity_member, row, new_parity)
        except BlockIOError:
            self._check_online()
            # Parity lost but the data member may still be alive.
            if self.members[data_index].failed:
                raise ArrayFailed("raid5 write lost both data and parity paths")
            self._member_write(self.members[data_index], row, data)

    def flush(self) -> None:
        """Flush every surviving member."""
        self._check_online()
        for member in self.members:
            if not member.failed:
                try:
                    member.device.flush()
                except BlockIOError:
                    self._check_online()

    def status(self) -> str:
        """mdstat-style one-liner."""
        marks = "".join("_" if m.failed else "U" for m in self.members)
        state = "FAILED" if not self.online else ("degraded" if self.degraded else "clean")
        return f"{self.level.value} [{marks}] {state}"


class RaidGroup:
    """Availability accounting for one RAID group, without block I/O.

    :class:`RaidArray` simulates the data path; a 1000-drive fleet
    campaign only needs the *availability* state machine — which members
    are failed, whether the group is degraded or offline, and for how
    long.  ``RaidGroup`` tracks exactly that on the virtual clock:
    :meth:`fail_member` / :meth:`restore_member` flip members at a
    timestamp, degraded wall time accrues between transitions, and
    :meth:`finalize` closes the books at the end of the run.

    Deterministic by construction: pure bookkeeping driven by the
    caller's timestamps (virtual seconds), no RNG, no wall clock.
    ``level=None`` models independent disks (JBOD): any member failure
    takes the group offline.
    """

    def __init__(self, level: Optional[RaidLevel], members: int, name: str = "group0") -> None:
        if members < 1:
            raise ConfigurationError(f"group needs at least one member, got {members}")
        if level is not None and members < {
            RaidLevel.RAID0: 2, RaidLevel.RAID1: 2, RaidLevel.RAID5: 3
        }[level]:
            raise ConfigurationError(f"{level.value} needs more members than {members}")
        self.level = level
        self.members = members
        self.name = name
        self._failed: List[bool] = [False] * members
        self._degraded_since: Optional[float] = None
        self.degraded_s = 0.0
        self.rebuilds = 0
        self.ever_degraded = False
        self.ever_offline = False

    @property
    def tolerance(self) -> int:
        """Member failures survivable before the group goes offline."""
        if self.level is None:
            return 0
        return level_tolerance(self.level, self.members)

    @property
    def failed_members(self) -> int:
        """How many members are currently failed."""
        return sum(1 for failed in self._failed if failed)

    @property
    def degraded(self) -> bool:
        """True while at least one member is failed."""
        return self.failed_members > 0

    @property
    def online(self) -> bool:
        """True while the group can still serve I/O."""
        return self.failed_members <= self.tolerance

    def member_failed(self, member: int) -> bool:
        """Whether ``member`` (0-based) is currently failed."""
        return self._failed[member]

    def fail_member(self, member: int, t_s: float) -> bool:
        """Fail ``member`` at virtual time ``t_s``; True if state changed."""
        if self._failed[member]:
            return False
        self._failed[member] = True
        self.ever_degraded = True
        if not self.online:
            self.ever_offline = True
        if self._degraded_since is None:
            self._degraded_since = t_s
        return True

    def restore_member(self, member: int, t_s: float) -> bool:
        """Rebuild ``member`` back in at ``t_s``; True if state changed."""
        if not self._failed[member]:
            return False
        self._failed[member] = False
        self.rebuilds += 1
        if not self.degraded and self._degraded_since is not None:
            self.degraded_s += t_s - self._degraded_since
            self._degraded_since = None
        return True

    def finalize(self, t_s: float) -> None:
        """Close the degraded-time books at end-of-run time ``t_s``."""
        if self._degraded_since is not None:
            self.degraded_s += t_s - self._degraded_since
            self._degraded_since = t_s if self.degraded else None
