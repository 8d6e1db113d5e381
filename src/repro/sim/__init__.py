"""Deterministic simulation substrate: virtual clock and event engine.

The event-loop model — ordering, tie-breaking, the determinism
contract, actor lifecycle — is documented in ``docs/SIMULATION.md``.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "clock": ("VirtualClock",),
        "events": (
            "Event",
            "EventQueue",
            "Simulator",
            "EventScheduler",
            "LANE_ATTACK",
            "LANE_SERVICE",
            "LANE_DEFAULT",
            "LANE_REPAIR",
            "LANE_MONITOR",
        ),
    },
)
