"""Retry policy and failure records for campaign points.

A long sweep should not lose hours of work to one flaky point.  When a
:class:`RetryPolicy` is installed on the runner, a point attempt that
raises (or exceeds the per-point timeout) is retried with exponential
backoff; the jitter factor is drawn from :class:`repro.rng.ReproRandom`
forked on the policy seed and the point label, so two runs of the same
campaign produce the *same* retry schedule — resilience does not cost
reproducibility.

A point that exhausts its budget degrades to a :class:`PointFailure`
row: the campaign completes, the failure is journaled, counted in the
metrics registry, and surfaced in the rendered report instead of
aborting the run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.rng import ReproRandom

__all__ = ["RetryPolicy", "PointFailure"]

#: Failure kinds recorded on a :class:`PointFailure`.
FAILURE_ERROR = "error"
FAILURE_TIMEOUT = "timeout"
FAILURE_FAULT = "fault"


@dataclass(frozen=True)
class RetryPolicy:
    """How the runner treats a failing campaign point.

    Args:
        max_retries: extra attempts after the first (0 = try once).
        point_timeout_s: wall-clock budget per attempt, enforced with
            ``workers > 1`` (an in-process attempt cannot be preempted);
            None disables the timeout.  At most ``threading.TIMEOUT_MAX``,
            the longest wait the pool can block for.
        backoff_base_s: delay before the first retry.
        backoff_factor: multiplier applied per further retry.
        jitter_fraction: each delay is scaled by a deterministic factor
            uniform in ``[1 - jitter, 1 + jitter]``.
        seed: root seed for the jitter stream (campaigns pass their own
            seed so retry schedules are reproducible run-to-run).
    """

    max_retries: int = 2
    point_timeout_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0: {self.max_retries}")
        if self.point_timeout_s is not None and not (
            0.0 < self.point_timeout_s <= threading.TIMEOUT_MAX  # also rejects NaN
        ):
            raise ConfigurationError(
                f"point timeout must be positive and at most {threading.TIMEOUT_MAX:.0f} s: "
                f"{self.point_timeout_s}"
            )
        if self.backoff_base_s < 0.0 or self.backoff_factor < 1.0:
            raise ConfigurationError(
                "backoff must have base >= 0 and factor >= 1: "
                f"{self.backoff_base_s}/{self.backoff_factor}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError(
                f"jitter fraction must be in [0, 1]: {self.jitter_fraction}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a point gets before it becomes a failure row."""
        return self.max_retries + 1

    def backoff_s(self, label: str, attempt: int) -> float:
        """Delay before re-running ``label`` after failed attempt ``attempt``.

        Deterministic: the jitter comes from a fork keyed on the policy
        seed, the point label, and the attempt number, never from wall
        time, so the schedule is identical at any worker count and on
        every rerun.
        """
        rng = ReproRandom(self.seed).fork(f"backoff/{label}/{attempt}")
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        jitter = 1.0 + self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return base * jitter


@dataclass(frozen=True)
class PointFailure:
    """A campaign point that exhausted its retry budget.

    Takes the point's slot in the runner's result list so campaigns can
    keep every successful measurement; renderers show these rows as
    degraded instead of dropping the whole run.
    """

    label: str
    key: Optional[str]
    kind: str  # "error" | "timeout" | "fault"
    message: str
    attempts: int

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe dict (for the checkpoint journal)."""
        return {
            "label": self.label,
            "key": self.key,
            "kind": self.kind,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PointFailure":
        """Inverse of :meth:`to_payload`."""
        return cls(
            label=payload["label"],
            key=payload.get("key"),
            kind=payload["kind"],
            message=payload["message"],
            attempts=payload["attempts"],
        )

    def describe(self) -> str:
        """One-line human rendering for reports."""
        return (
            f"{self.label}: {self.kind} after {self.attempts} "
            f"attempt{'s' if self.attempts != 1 else ''} — {self.message}"
        )
