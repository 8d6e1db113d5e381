"""The paper's primary contribution: the underwater acoustic attack.

This package composes the acoustics, vibration, and HDD substrates into
the end-to-end attack of Section 3: an attacker with an underwater
speaker targets a submerged enclosure holding a victim drive, sweeping
frequency to find vulnerable bands, varying distance to map the
effective range, and prolonging the tone to crash the software stack.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "calibration": ("CalibrationConstants", "DEFAULT_CALIBRATION"),
        "environment": ("UnderwaterEnvironment",),
        "scenario": ("Scenario",),
        "coupling": ("AttackCoupling",),
        "attacker": ("AcousticAttacker", "AttackConfig"),
        "attack": ("AttackSession", "FrequencySweepResult", "RangeTestResult"),
        "monitor": ("AvailabilityMonitor", "CrashReport"),
        "defenses": (
            "Defense",
            "AbsorbentCoating",
            "VibrationIsolators",
            "FirmwareNotchFilter",
            "evaluate_defense",
        ),
        "detector": (
            "AcousticAttackDetector",
            "AttackAlarm",
            "HydrophoneMonitor",
            "ThroughputAnomalyDetector",
        ),
        "fleet": ("DriveRack", "RackSlot"),
        "campaign": ("CampaignPlan", "CampaignPlanner", "TonePlan"),
    },
)
