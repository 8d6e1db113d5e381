"""The simulated data-center storage software stack.

Layered exactly like the victim software in the paper's Section 4.4:

* :mod:`repro.storage.block` — kernel block layer with retries and
  buffer I/O error accounting;
* :mod:`repro.storage.fs` — an Ext4-like journaling filesystem whose
  journal aborts with error -5 when commits cannot reach the platter;
* :mod:`repro.storage.oskernel` — an Ubuntu-server-like OS model
  (dmesg, processes, shell) that crashes when its root filesystem goes
  away;
* :mod:`repro.storage.kv` — a RocksDB-like LSM key-value store whose
  write-ahead log sync failure kills the database.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "block": ("BlockDevice", "BlockStats"),
        "faults": ("FaultInjector", "FaultPlan"),
        "raid": ("RaidArray", "RaidLevel", "ArrayFailed"),
    },
)
