"""Per-bay, per-rack, and fleet health rollups.

The rack physics give per-bay write/read success probabilities
(:meth:`~repro.core.fleet.DriveRack.write_success_probabilities`).
:class:`HealthTracker` folds them into a small state machine per unit:

``healthy`` → ``degraded`` → ``stalled``

with worst-state-wins rollups (bay → rack → fleet).  Every transition
is timestamped on the virtual clock and, when a
:class:`~repro.obs.timeseries.SeriesRecorder` is attached, mirrored
into ``health/{unit}`` value series (numeric severity, so dashboards
can render a heatmap) — which keeps the rollup history mergeable across
SweepRunner workers like any other series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from .timeseries import SeriesRecorder

__all__ = [
    "HEALTH_STATES",
    "SEVERITY",
    "classify_probability",
    "HealthTransition",
    "HealthTracker",
]

#: Ordered worst-last; rollups take the maximum severity.  No
#: observation classifies a unit as ``crashed``; the state keeps its
#: rank and its dashboard colour.
HEALTH_STATES = ("healthy", "degraded", "stalled", "crashed")
SEVERITY: Dict[str, int] = {state: rank for rank, state in enumerate(HEALTH_STATES)}


def classify_probability(p: float, healthy_threshold: float = 1.0) -> str:
    """Map a write/read success probability to a health state.

    A bay whose success probability collapsed to zero is stalled (the
    paper's terminal pre-crash state); anything below the healthy
    threshold is degraded.
    """
    if p <= 0.0:
        return "stalled"
    if p >= healthy_threshold:
        return "healthy"
    return "degraded"


@dataclass(frozen=True)
class HealthTransition:
    """One state change of one unit, on the virtual clock."""

    t_s: float
    unit: str
    state: str
    previous: str
    detail: str = ""


@dataclass
class HealthTracker:
    """Tracks unit health and rolls it up to racks and the fleet.

    Units are named hierarchically: ``rack0/bay3`` rolls up into
    ``rack0``, which rolls up into the fleet.
    """

    recorder: Optional[SeriesRecorder] = None
    healthy_threshold: float = 1.0
    states: Dict[str, str] = field(default_factory=dict)
    timeline: List[HealthTransition] = field(default_factory=list)

    # -- observations -------------------------------------------------

    def observe_bay(
        self, rack: str, bay: int, probability: float, t_s: float
    ) -> str:
        """Classify one bay from its success probability."""
        state = classify_probability(probability, self.healthy_threshold)
        return self._set_state(
            f"{rack}/bay{bay}", state, t_s, detail=f"p={probability:.6g}"
        )

    def observe_rack(
        self, rack: str, probabilities: Mapping[int, float], t_s: float
    ) -> str:
        """Classify every bay of a rack and refresh the rack rollup."""
        for bay in sorted(probabilities):
            self.observe_bay(rack, bay, probabilities[bay], t_s)
        return self.states.get(rack, "healthy")

    # -- rollups ------------------------------------------------------

    def unit_state(self, unit: str) -> str:
        return self.states.get(unit, "healthy")

    def rack_state(self, rack: str) -> str:
        return self.states.get(rack, "healthy")

    def fleet_state(self) -> str:
        """Worst state across every rack (or bare unit)."""
        top_level = [
            state for unit, state in self.states.items() if "/" not in unit
        ]
        if not top_level:
            return "healthy"
        return max(top_level, key=lambda state: SEVERITY[state])

    def counts(self) -> Dict[str, int]:
        """How many *leaf* units sit in each state right now."""
        out = {state: 0 for state in HEALTH_STATES}
        leaves = [unit for unit in self.states if self._is_leaf(unit)]
        for unit in leaves:
            out[self.states[unit]] += 1
        return out

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (the dashboard's health island)."""
        return {
            "fleet": self.fleet_state(),
            "counts": self.counts(),
            "units": {unit: self.states[unit] for unit in sorted(self.states)},
            "truncated": [],  # the dashboard template still reads the key
            "timeline": [
                {
                    "t_s": tr.t_s,
                    "unit": tr.unit,
                    "state": tr.state,
                    "previous": tr.previous,
                    "detail": tr.detail,
                }
                for tr in self.timeline
            ],
        }

    # -- internals ----------------------------------------------------

    def _is_leaf(self, unit: str) -> bool:
        prefix = unit + "/"
        return not any(other.startswith(prefix) for other in self.states)

    def _set_state(self, unit: str, state: str, t_s: float, detail: str = "") -> str:
        previous = self.states.get(unit, "healthy")
        if state != previous:
            self.states[unit] = state
            self.timeline.append(
                HealthTransition(
                    t_s=t_s, unit=unit, state=state, previous=previous, detail=detail
                )
            )
        elif unit not in self.states:
            self.states[unit] = state
        if self.recorder is not None:
            self.recorder.record(f"health/{unit}", t_s, float(SEVERITY[state]))
        self._rollup(unit, t_s)
        return state

    def _rollup(self, unit: str, t_s: float) -> None:
        if "/" not in unit:
            return
        parent = unit.rsplit("/", 1)[0]
        prefix = parent + "/"
        children = [
            state for child, state in self.states.items() if child.startswith(prefix)
        ]
        worst = max(children, key=lambda state: SEVERITY[state])
        previous = self.states.get(parent, "healthy")
        if worst != previous:
            self.states[parent] = worst
            self.timeline.append(
                HealthTransition(
                    t_s=t_s,
                    unit=parent,
                    state=worst,
                    previous=previous,
                    detail="rollup",
                )
            )
        elif parent not in self.states:
            self.states[parent] = worst
        if self.recorder is not None:
            self.recorder.record(f"health/{parent}", t_s, float(SEVERITY[worst]))
        self._rollup(parent, t_s)
