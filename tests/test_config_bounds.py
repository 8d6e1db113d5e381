"""The KV configs and the Table 3 victims reject non-finite values.

A sign-only guard (``x <= 0``) lets NaN through, and a NaN cost, size,
rate or interval then runs silently with a wrong result: gets and puts
charge no virtual time, the memtable never flushes, the rate-limited
writer never writes, a victim survives the attack.  Costs must be
finite and non-negative; sizes, rates, intervals and counts must be
positive and finite.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.apps import Ext4Victim, RocksDBVictim
from repro.storage.kv.db import Options
from repro.storage.oskernel.server import UbuntuServer
from repro.workloads.db_bench import DbBenchConfig

POSITIVE_BAD = [math.nan, math.inf, 0.0, -1.0]
COST_BAD = [math.nan, math.inf, -1.0]


def _cases(names, values):
    return [(name, value) for name in names for value in values]


@pytest.mark.parametrize(
    "name, value",
    _cases(["write_buffer_size", "wal_sync_every_bytes", "l0_compaction_trigger",
            "level_base_bytes", "level_multiplier", "target_file_bytes"], POSITIVE_BAD)
    + _cases(["cpu_put_s", "cpu_get_s"], COST_BAD),
)
def test_kv_options(name, value):
    with pytest.raises(ConfigurationError):
        Options(**{name: value})


@pytest.mark.parametrize("value", POSITIVE_BAD)
def test_db_bench_write_rate_limit(value):
    with pytest.raises(ConfigurationError):
        DbBenchConfig(write_rate_limit_ops=value)


@pytest.mark.parametrize("value", POSITIVE_BAD)
def test_ext4_victim(value):
    with pytest.raises(ConfigurationError):
        Ext4Victim(step_interval_s=value)


@pytest.mark.parametrize(
    "name, value", _cases(["step_interval_s", "shell_interval_s"], POSITIVE_BAD)
)
def test_ubuntu_server(name, value):
    """Also the Ubuntu victim of Table 3, which is this class."""
    with pytest.raises(ConfigurationError):
        UbuntuServer(**{name: value})


@pytest.mark.parametrize(
    "name, value", _cases(["step_interval_s", "write_rate_ops"], POSITIVE_BAD)
)
def test_rocksdb_victim(name, value):
    with pytest.raises(ConfigurationError):
        RocksDBVictim(**{name: value})
