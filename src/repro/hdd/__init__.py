"""Hard disk drive simulator.

Models the victim drive of the case study (a 500 GB Seagate Barracuda
class 3.5" desktop drive): platter geometry, spindle/seek mechanics, the
servo loop with read/write off-track fault thresholds, the shock sensor
(ultrasonic parking path from Blue Note), and a controller that retries
faulted operations and times out when the servo cannot track at all —
the "no response" entries of Table 1.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "geometry": ("DiskGeometry", "Zone"),
        "profiles": ("DriveProfile", "BARRACUDA_500GB"),
        "servo": ("ServoSystem", "VibrationInput", "OpKind"),
        "shock": ("ShockSensor",),
        "mechanics": ("SpindleMechanics", "SeekModel"),
        "controller": ("DriveController", "RetryPolicy", "IOResult"),
        "drive": ("HardDiskDrive",),
        "smart": ("SmartAttribute", "SmartLog"),
    },
)
