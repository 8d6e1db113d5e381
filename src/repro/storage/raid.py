"""RAID availability accounting over simulated drives.

Data centers do not run on single disks, so the reproduction includes
the obvious mitigation question: *does redundancy help against an
acoustic attack?*  :class:`RaidGroup` tracks which members of a
RAID-0/1/5 group have failed on the virtual clock, and whether the
group is degraded or offline.

The punchline (``results/ablation_raid.txt``, pinned by
``TestExtensionShapes`` in ``tests/test_paper_shapes.py`` and by
``tests/test_raid.py``): acoustic interference is a **common-mode
fault**.  Every member in the same enclosure feels the same
vibration, so all of them stall together
and redundancy buys nothing — unlike independent mechanical failures,
which RAID handles exactly as designed.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.errors import ConfigurationError

__all__ = ["RaidLevel", "RaidGroup", "level_tolerance"]


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


class RaidGroup:
    """Availability accounting for one RAID group, without block I/O.

    A 1000-drive fleet campaign only needs the *availability* state
    machine — which members are failed, whether the group is degraded
    or offline, and for how long.  ``RaidGroup`` tracks exactly that on
    the virtual clock: :meth:`fail_member` / :meth:`restore_member` flip
    members at a timestamp, degraded wall time accrues between
    transitions, and :meth:`finalize` closes the books at the end of
    the run.

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
