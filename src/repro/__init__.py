"""Deep Note reproduction library.

A physics-grounded simulation of the HotStorage '23 paper *Deep Note:
Can Acoustic Interference Damage the Availability of Hard Disk Storage
in Underwater Data Centers?* — underwater acoustics, enclosure
vibration, an HDD servo/fault simulator, a storage software stack
(journaling filesystem, server OS model, LSM key-value store), FIO and
db_bench workload tools, and the attack toolkit that ties them together.

Quickstart::

    from repro import AttackConfig, AttackSession

    session = AttackSession()                 # Scenario 2, tank water
    sweep = session.frequency_sweep([300, 650, 1000, 2000, 8000])
    for point in sweep.points:
        print(point.frequency_hz, point.write_mbps, point.read_mbps)
"""

from . import _lazy

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "core.attack": ("AttackSession", "FrequencySweepResult", "RangeTestResult"),
        "core.attacker": ("AcousticAttacker", "AttackConfig"),
        "core.coupling": ("AttackCoupling",),
        "core.environment": ("UnderwaterEnvironment",),
        "core.monitor": ("AvailabilityMonitor", "CrashReport"),
        "core.scenario": ("Scenario",),
        "hdd.drive": ("HardDiskDrive",),
        "hdd.servo": ("OpKind", "VibrationInput"),
        "workloads.fio": ("FioJob", "FioResult", "FioTester", "IOMode"),
    },
)
__all__.append("__version__")
