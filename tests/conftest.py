"""Shared fixtures: fresh stacks at every layer."""

from __future__ import annotations

import pytest

from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import make_barracuda_profile
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.storage.block import BlockDevice
from repro.storage.fs.filesystem import SimFS
from repro.storage.kv.db import DB, Options


@pytest.fixture
def rng():
    """A deterministic root RNG."""
    return make_rng(1234)


@pytest.fixture
def clock():
    """A fresh virtual clock."""
    return VirtualClock()


@pytest.fixture
def drive(clock, rng):
    """A quiescent victim drive."""
    return HardDiskDrive(profile=make_barracuda_profile(), clock=clock, rng=rng)


@pytest.fixture
def device(drive):
    """A 4 KiB block device over the drive."""
    return BlockDevice(drive)


@pytest.fixture
def fs(device):
    """A freshly formatted filesystem (small journal for speed)."""
    return SimFS.mkfs(device, journal_blocks=64, inode_table_blocks=64)


@pytest.fixture
def db(fs):
    """An open key-value store on the filesystem."""
    fs.mkdir("/db")
    return DB.open(fs, "/db", options=Options())


@pytest.fixture
def coupling():
    """The paper's Scenario 2 coupling chain."""
    return AttackCoupling.paper_setup(Scenario.scenario_2())
