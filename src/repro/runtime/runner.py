"""The parallel campaign runner.

The paper's headline artifacts are frequency/distance sweeps whose
points are completely independent: each one builds a fresh victim rig
seeded by :meth:`repro.rng.ReproRandom.fork` on a per-point label, so a
point's numbers depend only on its own spec, never on execution order.
:class:`SweepRunner` exploits that to fan points out over a
``ProcessPoolExecutor`` while guaranteeing bit-identical results to a
serial run:

* ``workers=1`` executes every point in-process, in order — the
  original sequential path;
* ``workers>1`` submits each point to the pool; because point functions
  are pure functions of their picklable spec, the gathered results are
  byte-for-byte the numbers the serial path produces, in the same
  order.

On top of that sits the resilience layer (all optional, all off by
default):

* a :class:`~repro.runtime.journal.CampaignJournal` checkpoints every
  completed point to disk (fsync'd) so a killed campaign resumes where
  it stopped;
* a :class:`~repro.runtime.retry.RetryPolicy` gives failing or
  timed-out attempts bounded retries with deterministic exponential
  backoff, then degrades the point to a recorded
  :class:`~repro.runtime.retry.PointFailure` row instead of aborting;
* a :class:`~repro.runtime.faultinject.FaultPlan` scripts worker
  failures (fail/hang/slow/kill) so all of the above is testable on
  schedule.

An optional :class:`~repro.runtime.cache.ResultCache` memoizes point
results on disk keyed by a caller-provided fingerprint, and a
:class:`~repro.runtime.progress.ProgressReporter` prints points/s and
ETA as the campaign advances.
"""

from __future__ import annotations

import os
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CampaignAborted,
    ConfigurationError,
    FaultInjected,
    PointTimeout,
    WorkerCrashed,
)
from repro.obs import telemetry as obs
from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer

from .faultinject import FaultAction, FaultPlan, apply_fault
from .progress import ProgressReporter, _STDERR
from .retry import FAILURE_ERROR, FAILURE_FAULT, FAILURE_TIMEOUT, PointFailure, RetryPolicy

if TYPE_CHECKING:
    # The pool (``--workers > 1``), the cache (``--cache-dir``) and the
    # journal (``--journal``) are imported where they are used, so a
    # serial run without them loads none of these modules.
    import concurrent.futures

    from .cache import ResultCache
    from .journal import CampaignJournal

__all__ = ["SweepRunner", "make_runner"]

#: Smallest tick of the pool wait loop (seconds): bounds how late a
#: timeout or backoff expiry can be noticed without busy-waiting.
_MIN_WAIT_TICK_S = 0.01


def _telemetry_point_job(fn: Callable[[Any], Any], spec: Any, trace_detail: str):
    """Run one point under a fresh telemetry bundle.

    Used for every pending point — in-process and in worker processes
    alike — whenever the parent has telemetry installed.  Isolating each
    point in its own bundle and merging the snapshots back in spec-index
    order makes the aggregated totals *identical* at any worker count:
    counters add the same per-point integers in the same order, and
    histogram sums add the same per-point floats in the same order.
    The bundle's tracer records at the parent's ``trace_detail``, so a
    point's rig traces what it would trace in the parent.
    """
    bundle = Telemetry(tracer=Tracer(detail=trace_detail))
    previous = obs.install(bundle)
    try:
        result = fn(spec)
    finally:
        obs.install(previous)
    metric_snap = bundle.metrics.snapshot()
    if len(bundle.series):
        # Series windows ride inside the metrics snapshot so the
        # (result, trace, metrics) transport triple keeps its shape;
        # the merge loop pops the key back out before metrics.merge.
        metric_snap["series"] = bundle.series.snapshot()
    return result, bundle.tracer.snapshot(), metric_snap


def _attempt_job(
    fn: Callable[[Any], Any],
    spec: Any,
    fault: Optional[FaultAction],
    trace_detail: Optional[str],
):
    """One point attempt as the pool executes it.

    The scripted fault (if any) fires first — it belongs to this
    (point, attempt) pair and rides along in the job payload, so the
    schedule is deterministic with no cross-process coordination.
    ``trace_detail`` is the parent tracer's, or None without telemetry.
    Returns ``(result, trace_snapshot | None, metrics_snapshot | None)``.
    """
    if fault is not None:
        apply_fault(fault, in_process=False)
    if trace_detail is not None:
        return _telemetry_point_job(fn, spec, trace_detail)
    return fn(spec), None, None


def make_runner(
    workers: int = 1,
    cache_dir: Optional[str] = None,
    progress: bool = False,
    *,
    journal_path: Optional[str] = None,
    resume: bool = False,
    campaign: Optional[str] = None,
    point_timeout_s: Optional[float] = None,
    max_retries: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry_seed: int = 0,
) -> "Optional[SweepRunner]":
    """A :class:`SweepRunner` for the given CLI-style options.

    Returns None when every option is at its default, signalling
    callers to keep the plain sequential code path.

    Any resilience option (``journal_path``/``resume``/
    ``point_timeout_s``/``max_retries``/``fault_plan``) also installs a
    :class:`RetryPolicy` (with defaults for whatever was not given), so
    a journaled campaign degrades gracefully instead of aborting on the
    first flaky point.  ``resume`` requires ``journal_path``; a journal
    requires ``campaign`` (the fingerprint written into its header).
    """
    resilient = (
        journal_path is not None
        or resume
        or point_timeout_s is not None
        or max_retries is not None
        or retry is not None
        or fault_plan is not None
    )
    if workers == 1 and cache_dir is None and not progress and not resilient:
        return None
    if resume and journal_path is None:
        raise ConfigurationError(
            "--resume needs a journal; pass --journal PATH, or --cache-dir DIR, "
            "whose journal.jsonl is used"
        )
    cache = None
    if cache_dir is not None:
        from .cache import ResultCache

        cache = ResultCache(cache_dir)
    journal = None
    if journal_path is not None:
        if campaign is None:
            raise ConfigurationError("a journal needs a campaign fingerprint")
        from .journal import CampaignJournal

        journal = CampaignJournal(journal_path, campaign=campaign, resume=resume)
    if retry is None and resilient:
        retry = RetryPolicy(
            max_retries=2 if max_retries is None else max_retries,
            point_timeout_s=point_timeout_s,
            seed=retry_seed,
        )
    return SweepRunner(
        workers=workers,
        cache=cache,
        progress=progress,
        journal=journal,
        retry=retry,
        fault_plan=fault_plan,
    )


class _PointState:
    """Mutable per-point bookkeeping while a map() is executing."""

    __slots__ = ("index", "ordinal", "attempt", "ready_at")

    def __init__(self, index: int, ordinal: int) -> None:
        self.index = index
        self.ordinal = ordinal
        self.attempt = 1
        self.ready_at = float("-inf")


class _MapContext:
    """Everything one :meth:`SweepRunner.map` call threads around."""

    def __init__(
        self,
        runner: "SweepRunner",
        results: List[Any],
        reporter: ProgressReporter,
        telemetry: Optional[Telemetry],
        keys: Optional[Sequence[str]],
        encode: Optional[Callable[[Any], Dict[str, Any]]],
        label: str,
        ordinals: Dict[int, int],
    ) -> None:
        self.runner = runner
        self.results = results
        self.reporter = reporter
        self.telemetry = telemetry
        self.keys = keys
        self.encode = encode
        self.label = label
        self.ordinals = ordinals
        self.snapshots: Dict[int, Tuple[Any, Any]] = {}

    @property
    def trace_detail(self) -> Optional[str]:
        """The parent tracer's detail, or None without telemetry."""
        return None if self.telemetry is None else self.telemetry.tracer.detail

    def key_for(self, index: int) -> Optional[str]:
        return self.keys[index] if self.keys is not None else None

    def point_label(self, index: int) -> str:
        return f"{self.label}[{index}]"

    def complete_ok(self, index: int, value: Any, trace_snap: Any, metric_snap: Any) -> None:
        self.results[index] = value
        if trace_snap is not None:
            self.snapshots[index] = (trace_snap, metric_snap)
        runner = self.runner
        payload = None
        key = self.key_for(index)
        if key is not None and self.encode is not None:
            payload = self.encode(value)
        if runner.cache is not None and key is not None and payload is not None:
            runner.cache.put(key, payload)
        if runner.journal is not None:
            runner.journal.record_ok(key, self.point_label(index), payload)
        self.reporter.advance()

    def complete_failure(self, state: _PointState, failure: PointFailure) -> None:
        self.results[state.index] = failure
        runner = self.runner
        if runner.journal is not None:
            runner.journal.record_failure(failure.key, failure)
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "campaign_point_failures_total", label=self.label, kind=failure.kind
            ).inc()
            self.telemetry.tracer.instant(
                "campaign.point.failure",
                0.0,
                category="campaign",
                args={"text": failure.describe()},
            )
        self.reporter.advance(failed=True)

    def count_retry(self, kind: str) -> None:
        self.reporter.note_retry()
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "campaign_retries_total", label=self.label, kind=kind
            ).inc()

    def count_timeout(self) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(
                "campaign_point_timeouts_total", label=self.label
            ).inc()


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, PointTimeout):
        return FAILURE_TIMEOUT
    if isinstance(exc, FaultInjected):
        return FAILURE_FAULT
    return FAILURE_ERROR


class SweepRunner:
    """Fans independent campaign points over worker processes.

    Args:
        workers: process count; 1 (the default) runs in-process and is
            guaranteed to take the exact sequential code path.
        cache: optional on-disk result cache; points whose key is
            already stored are not re-measured.
        progress: False silences reporting (counters still accumulate
            on the reporter returned by :meth:`last_reporter`).
        progress_stream: where progress lines go (default stderr).
        journal: optional checkpoint journal; completed points are
            appended (fsync'd) and, on a resumed journal, served back
            without re-measuring.  Requires ``keys``+codec on map().
        retry: optional :class:`RetryPolicy`; without one, the first
            point exception propagates (the pre-resilience behavior).
        fault_plan: optional scripted faults, keyed by campaign point
            ordinal (testing aid; see :mod:`repro.runtime.faultinject`).
        sleep_fn/time_fn: injectable clocks for deterministic tests.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        progress: bool = False,
        progress_stream: object = _STDERR,
        journal: Optional[CampaignJournal] = None,
        retry: Optional[RetryPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        sleep_fn: Callable[[float], None] = time.sleep,
        time_fn: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1: {workers}")
        self.workers = workers
        self.cache = cache
        self.progress = progress
        self.progress_stream = progress_stream
        self.journal = journal
        self.retry = retry
        self.fault_plan = fault_plan
        self._sleep_fn = sleep_fn
        self._time_fn = time_fn
        self._last_reporter: Optional[ProgressReporter] = None
        self._next_ordinal = 0

    # -- introspection -----------------------------------------------------

    def last_reporter(self) -> Optional[ProgressReporter]:
        """The reporter of the most recent :meth:`map` (for stats/tests)."""
        return self._last_reporter

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the journal file handle, if any (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- execution ---------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        keys: Optional[Sequence[str]] = None,
        encode: Optional[Callable[[Any], Dict[str, Any]]] = None,
        decode: Optional[Callable[[Dict[str, Any]], Any]] = None,
        label: str = "sweep",
    ) -> List[Any]:
        """``[fn(spec) for spec in specs]``, parallel, memoized, durable.

        ``fn`` must be a module-level callable and every spec picklable
        (only required when ``workers > 1``).  When a cache or journal
        is configured, ``keys`` must align with ``specs`` and
        ``encode``/``decode`` convert results to/from JSON-safe dicts;
        cached, journaled, and resumed points skip measurement entirely.
        Results come back in spec order regardless of completion order.
        With a :class:`RetryPolicy`, a point that exhausts its attempts
        occupies its slot as a :class:`PointFailure` instead of raising.
        """
        specs = list(specs)
        use_cache = self.cache is not None and keys is not None
        if use_cache:
            if len(keys) != len(specs):
                raise ConfigurationError(
                    f"{len(keys)} cache keys for {len(specs)} specs"
                )
            if encode is None or decode is None:
                raise ConfigurationError(
                    "a cache requires encode and decode functions"
                )
        if self.journal is not None:
            if keys is None or encode is None or decode is None:
                raise ConfigurationError(
                    "a journal requires keys, encode, and decode functions"
                )
            if len(keys) != len(specs):
                raise ConfigurationError(
                    f"{len(keys)} journal keys for {len(specs)} specs"
                )

        # Telemetry is sampled per map() call: campaigns install a
        # bundle (obs.session) around the whole run, and the runner
        # forwards per-point telemetry from workers back into it.
        telemetry = obs.get()
        reporter = ProgressReporter(
            total=len(specs),
            label=label,
            stream=self.progress_stream if self.progress else None,
            telemetry=telemetry,
        )
        self._last_reporter = reporter
        reporter.start()

        results: List[Any] = [None] * len(specs)
        ordinals: Dict[int, int] = {}
        context = _MapContext(
            self, results, reporter, telemetry, keys, encode, label, ordinals
        )
        pending: List[int] = []
        for index, spec in enumerate(specs):
            ordinals[index] = self._next_ordinal
            self._next_ordinal += 1
            if self.journal is not None:
                record = self.journal.lookup(keys[index])
                if record is not None:
                    if record["status"] == "ok":
                        results[index] = decode(record["value"])
                        reporter.advance(resumed=True)
                    else:
                        results[index] = PointFailure.from_payload(record["failure"])
                        reporter.advance(resumed=True, failed=True)
                    continue
            if use_cache:
                payload = self.cache.get(keys[index])
                if payload is not None:
                    results[index] = decode(payload)
                    if self.journal is not None:
                        self.journal.record_ok(
                            keys[index], context.point_label(index), payload
                        )
                    reporter.advance(cached=True)
                    continue
            pending.append(index)

        if pending:
            if self.workers == 1:
                self._execute_inline(fn, specs, pending, context)
            else:
                self._execute_pool(fn, specs, pending, context)
            if telemetry is not None:
                for index in pending:
                    snaps = context.snapshots.get(index)
                    if snaps is None:
                        continue  # failed points contribute no telemetry
                    trace_snap, metric_snap = snaps
                    telemetry.tracer.ingest(trace_snap)
                    series_snap = metric_snap.pop("series", None)
                    telemetry.metrics.merge(metric_snap)
                    if series_snap is not None:
                        telemetry.series.merge(series_snap)

        if self.progress:
            reporter.finish()
        return results

    # -- attempt bookkeeping -----------------------------------------------

    def _fault_for(self, state: _PointState) -> Optional[FaultAction]:
        if self.fault_plan is None:
            return None
        return self.fault_plan.action_for(state.ordinal, state.attempt)

    def _after_attempt_failure(
        self, state: _PointState, exc: Exception, context: _MapContext
    ) -> Optional[float]:
        """Handle one failed attempt.

        Returns the backoff delay when the point should retry; records a
        :class:`PointFailure` and returns None when the budget is spent.
        Re-raises when no retry policy is installed (legacy behavior).
        """
        kind = _failure_kind(exc)
        if kind == FAILURE_TIMEOUT:
            context.count_timeout()
        if self.retry is None:
            raise exc
        label = context.point_label(state.index)
        if state.attempt < self.retry.max_attempts:
            context.count_retry(kind)
            return self.retry.backoff_s(label, state.attempt)
        failure = PointFailure(
            label=label,
            key=context.key_for(state.index),
            kind=kind,
            message=str(exc) or type(exc).__name__,
            attempts=state.attempt,
        )
        context.complete_failure(state, failure)
        return None

    # -- sequential engine ---------------------------------------------------

    def _execute_inline(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        pending: Sequence[int],
        context: _MapContext,
    ) -> None:
        for index in pending:
            state = _PointState(index, context.ordinals[index])
            while True:
                fault = self._fault_for(state)
                try:
                    if fault is not None:
                        apply_fault(fault, in_process=True)
                    if context.trace_detail is not None:
                        value, trace_snap, metric_snap = _telemetry_point_job(
                            fn, specs[index], context.trace_detail
                        )
                    else:
                        value, trace_snap, metric_snap = fn(specs[index]), None, None
                except CampaignAborted:
                    raise  # the journal holds everything completed so far
                except Exception as exc:
                    delay = self._after_attempt_failure(state, exc, context)
                    if delay is None:
                        break
                    self._sleep_fn(delay)
                    state.attempt += 1
                    continue
                context.complete_ok(index, value, trace_snap, metric_snap)
                break

    # -- pool engine ---------------------------------------------------------

    def _new_pool(self, pending_count: int) -> concurrent.futures.ProcessPoolExecutor:
        import concurrent.futures

        return concurrent.futures.ProcessPoolExecutor(
            max_workers=min(self.workers, pending_count)
        )

    def _reap_pool(self, pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Terminate a pool whose workers may be hung.

        ``shutdown`` alone would block behind a hung worker, so the
        worker processes are terminated first (private attribute,
        guarded — worst case the hung worker lingers until exit).
        """
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, AttributeError):  # pragma: no cover - best effort
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    def _execute_pool(
        self,
        fn: Callable[[Any], Any],
        specs: Sequence[Any],
        pending: Sequence[int],
        context: _MapContext,
    ) -> None:
        import concurrent.futures

        timeout_s = self.retry.point_timeout_s if self.retry is not None else None
        waiting: List[_PointState] = [
            _PointState(index, context.ordinals[index]) for index in pending
        ]
        inflight: Dict[concurrent.futures.Future, Tuple[_PointState, Optional[float]]] = {}
        pool = self._new_pool(len(pending))
        try:
            while waiting or inflight:
                now = self._time_fn()
                still_waiting: List[_PointState] = []
                for state in waiting:
                    if state.ready_at > now:
                        still_waiting.append(state)
                        continue
                    try:
                        future = pool.submit(
                            _attempt_job,
                            fn,
                            specs[state.index],
                            self._fault_for(state),
                            context.trace_detail,
                        )
                    except concurrent.futures.process.BrokenProcessPool as exc:
                        raise WorkerCrashed(
                            f"a campaign worker died after "
                            f"{context.reporter.completed} of "
                            f"{context.reporter.total} points "
                            f"(pid {os.getpid()} lost its pool): {exc}"
                        ) from exc
                    deadline = None if timeout_s is None else now + timeout_s
                    inflight[future] = (state, deadline)
                waiting = still_waiting

                if not inflight:
                    next_ready = min(state.ready_at for state in waiting)
                    self._sleep_fn(max(0.0, next_ready - self._time_fn()))
                    continue

                done, _ = concurrent.futures.wait(
                    list(inflight),
                    timeout=self._wait_budget(waiting, inflight, now),
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    state, _deadline = inflight.pop(future)
                    try:
                        value, trace_snap, metric_snap = future.result()
                    except concurrent.futures.process.BrokenProcessPool as exc:
                        raise WorkerCrashed(
                            f"a campaign worker died after "
                            f"{context.reporter.completed} of "
                            f"{context.reporter.total} points "
                            f"(pid {os.getpid()} lost its pool): {exc}"
                        ) from exc
                    except Exception as exc:
                        delay = self._after_attempt_failure(state, exc, context)
                        if delay is not None:
                            state.attempt += 1
                            state.ready_at = self._time_fn() + delay
                            waiting.append(state)
                    else:
                        context.complete_ok(state.index, value, trace_snap, metric_snap)

                if timeout_s is not None and inflight:
                    pool, waiting = self._expire_timeouts(
                        pool, inflight, waiting, context, len(pending)
                    )
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _wait_budget(
        self,
        waiting: Sequence[_PointState],
        inflight: Dict[concurrent.futures.Future, Tuple[_PointState, Optional[float]]],
        now: float,
    ) -> Optional[float]:
        """How long the wait loop may block before it must look around."""
        horizons = [deadline for _state, deadline in inflight.values() if deadline is not None]
        horizons.extend(state.ready_at for state in waiting)
        if not horizons:
            return None
        return max(_MIN_WAIT_TICK_S, min(horizons) - now)

    def _expire_timeouts(
        self,
        pool: concurrent.futures.ProcessPoolExecutor,
        inflight: Dict[concurrent.futures.Future, Tuple[_PointState, Optional[float]]],
        waiting: List[_PointState],
        context: _MapContext,
        pending_count: int,
    ) -> Tuple[concurrent.futures.ProcessPoolExecutor, List[_PointState]]:
        """Fail attempts past their deadline; rebuild the pool if any.

        A hung worker cannot be cancelled, so the whole pool is
        terminated and recreated.  In-flight attempts that had *not*
        timed out are resubmitted without consuming an attempt — their
        results are pure functions of the spec, so re-running them is
        free of side effects.
        """
        now = self._time_fn()
        expired = [
            future
            for future, (_state, deadline) in inflight.items()
            if deadline is not None and now >= deadline and not future.done()
        ]
        if not expired:
            return pool, waiting
        expired_states = {inflight[future][0] for future in expired}
        self._reap_pool(pool)
        for future, (state, _deadline) in list(inflight.items()):
            if state in expired_states:
                timeout = PointTimeout(
                    f"{context.point_label(state.index)} exceeded "
                    f"{self.retry.point_timeout_s:.1f} s (attempt {state.attempt})"
                )
                delay = self._after_attempt_failure(state, timeout, context)
                if delay is not None:
                    state.attempt += 1
                    state.ready_at = now + delay
                    waiting.append(state)
            else:
                state.ready_at = float("-inf")
                waiting.append(state)
        inflight.clear()
        return self._new_pool(pending_count), waiting
