"""Parallel campaign execution, memoization, checkpointing, progress.

The experiments of Sections 4–5 are grids of independent measurements;
this package runs those grids as fast as the hardware allows — and
keeps running them when the hardware (or the operator) misbehaves:

* :class:`SweepRunner` — fans points over a process pool with
  deterministic per-point seeding (``workers=1`` keeps the exact
  sequential path, so parallel and serial runs are bit-identical);
* :class:`ResultCache` — on-disk memoization keyed by
  :func:`fingerprint` over (scenario, attack config, job params, seed);
* :class:`CampaignJournal` — fsync'd per-point completion log with a
  campaign fingerprint header; a killed campaign resumes byte-identical;
* :class:`RetryPolicy` / :class:`PointFailure` — bounded retries with
  deterministic backoff, graceful degradation to recorded failure rows;
* :class:`FaultPlan` — scripted worker faults (fail/hang/slow/kill) so
  the resilience layer is testable on schedule;
* :class:`ProgressReporter` — points/s and ETA reporting.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "cache": ("ResultCache", "ResultCacheStats"),
        "faultinject": ("FaultAction", "FaultPlan", "apply_fault"),
        "fingerprint": ("canonical", "fingerprint"),
        "journal": ("CampaignJournal",),
        "progress": ("ProgressReporter",),
        "retry": ("PointFailure", "RetryPolicy"),
        "runner": ("SweepRunner", "make_runner"),
    },
)
