"""The resilience layer: journal, retries, fault injection, resume identity.

The contract under test: a campaign can be killed at any instant,
relaunched with ``resume``, and produce output byte-identical to an
uninterrupted run — at any worker count — while flaky points degrade to
recorded failure rows instead of aborting everyone else's measurements.
"""

import json

import pytest

from repro.errors import (
    CampaignAborted,
    ConfigurationError,
    FaultInjected,
    ResumeMismatch,
    WorkerCrashed,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.table1 import run_table1
from repro.runtime import (
    CampaignJournal,
    FaultAction,
    FaultPlan,
    PointFailure,
    RetryPolicy,
    SweepRunner,
    fingerprint,
    make_runner,
)

GRID = [300.0, 650.0, 3000.0]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad point {x}")


def _encode(value):
    return {"value": value}


def _decode(payload):
    return payload["value"]


def _no_sleep(_seconds):
    return None


def _fast_retry(**overrides):
    defaults = dict(max_retries=2, backoff_base_s=0.0, seed=7)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# --------------------------------------------------------------------------
# Retry policy
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s("sweep[3]", 1) == policy.backoff_s("sweep[3]", 1)
        assert RetryPolicy(seed=7).backoff_s("sweep[3]", 1) == policy.backoff_s(
            "sweep[3]", 1
        )

    def test_backoff_varies_by_label_and_attempt(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff_s("a[0]", 1) != policy.backoff_s("a[1]", 1)
        assert policy.backoff_s("a[0]", 1) != policy.backoff_s("a[0]", 2)

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, jitter_fraction=0.5, seed=7
        )
        for attempt in (1, 2, 3):
            nominal = 0.1 * 2.0 ** (attempt - 1)
            delay = policy.backoff_s("p", attempt)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_seed_changes_the_schedule(self):
        assert RetryPolicy(seed=1).backoff_s("p", 1) != RetryPolicy(seed=2).backoff_s(
            "p", 1
        )

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(point_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)

    def test_point_failure_round_trips_through_payload(self):
        failure = PointFailure(
            label="sweep[3]", key="ab" * 32, kind="timeout", message="too slow", attempts=3
        )
        assert PointFailure.from_payload(failure.to_payload()) == failure
        assert "sweep[3]" in failure.describe()
        assert "3 attempts" in failure.describe()


# --------------------------------------------------------------------------
# Fault plan grammar
# --------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_single_entry(self):
        plan = FaultPlan.parse("3=fail")
        assert plan.action_for(3, 1) == FaultAction(kind="fail")
        assert plan.action_for(3, 2) is None  # one attempt by default
        assert plan.action_for(2, 1) is None

    def test_parse_full_grammar(self):
        plan = FaultPlan.parse("2x3=slow@0.5, 7=kill")
        action = plan.action_for(2, 3)
        assert action.kind == "slow" and action.seconds == 0.5
        assert plan.action_for(2, 4) is None
        assert plan.action_for(7, 1).kind == "kill"

    def test_hang_gets_a_default_duration(self):
        assert FaultPlan.parse("0=hang").action_for(0, 1).seconds > 0.0

    def test_parse_rejects_garbage(self):
        for spec in ("3", "x=fail", "3=explode", "-1=fail", "3=fail@soon"):
            with pytest.raises(ConfigurationError):
                FaultPlan.parse(spec)

    @pytest.mark.parametrize(
        "spec", ["0=hang@nan", "1=slow@inf", "2=fail@-1", "0=hang@-inf", "3=slow@NaN"]
    )
    def test_parse_rejects_non_finite_or_negative_durations(self, spec):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(spec)

    def test_cli_rejects_a_non_finite_duration_with_exit_2(self, capsys):
        from repro import cli

        assert cli.main(["figure2", "--runtime", "0.1", "--inject-faults", "0=hang@nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("deepnote: ConfigurationError: ")

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan.parse("1=fail")


# --------------------------------------------------------------------------
# Checkpoint journal
# --------------------------------------------------------------------------


class TestCampaignJournal:
    CAMPAIGN = fingerprint("test-campaign/v1", 7)

    def _journal(self, tmp_path, resume=False):
        return CampaignJournal(tmp_path / "journal.jsonl", self.CAMPAIGN, resume=resume)

    def test_round_trip(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.record_ok("k1", "sweep[0]", {"x": 1.5})
            journal.record_failure(
                "k2",
                PointFailure(
                    label="sweep[1]", key="k2", kind="fault", message="boom", attempts=3
                ),
            )
        with self._journal(tmp_path, resume=True) as resumed:
            assert len(resumed) == 2
            assert resumed.lookup("k1")["value"] == {"x": 1.5}
            failed = resumed.lookup("k2")
            assert failed["status"] == "failed"
            assert PointFailure.from_payload(failed["failure"]).kind == "fault"
            assert resumed.lookup("k3") is None

    def test_fresh_open_truncates_previous_campaign(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.record_ok("k1", "sweep[0]", {"x": 1})
        with self._journal(tmp_path) as journal:  # no resume: start over
            pass
        with self._journal(tmp_path, resume=True) as resumed:
            assert len(resumed) == 0

    def test_resume_into_missing_file_is_fresh(self, tmp_path):
        with self._journal(tmp_path, resume=True) as journal:
            assert len(journal) == 0
            journal.record_ok("k1", "sweep[0]", {"x": 1})

    def test_torn_tail_is_truncated_not_fatal(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with self._journal(tmp_path) as journal:
            journal.record_ok("k1", "sweep[0]", {"x": 1})
            journal.record_ok("k2", "sweep[1]", {"x": 2})
        # Simulate a crash mid-append: a half-written record at the tail.
        with path.open("a") as handle:
            handle.write('{"type": "point", "key": "k3", "sta')
        with self._journal(tmp_path, resume=True) as resumed:
            assert len(resumed) == 2
            assert resumed.lookup("k3") is None
        # The torn bytes are gone: a second resume sees a clean file.
        assert not path.read_text().rstrip().endswith('"sta')

    def test_campaign_mismatch_refuses_resume(self, tmp_path):
        with self._journal(tmp_path) as journal:
            journal.record_ok("k1", "sweep[0]", {"x": 1})
        other = fingerprint("test-campaign/v1", 8)
        with pytest.raises(ResumeMismatch, match="refusing to mix"):
            CampaignJournal(tmp_path / "journal.jsonl", other, resume=True)

    def test_corrupt_header_refuses_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text("this is not a journal\n")
        with pytest.raises(ResumeMismatch, match="unreadable header"):
            CampaignJournal(path, self.CAMPAIGN, resume=True)

    def test_foreign_format_refuses_resume(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text(json.dumps({"format": "something-else", "version": 1}) + "\n")
        with pytest.raises(ResumeMismatch, match="refusing to resume"):
            CampaignJournal(path, self.CAMPAIGN, resume=True)

    def test_journal_requires_a_campaign(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CampaignJournal(tmp_path / "journal.jsonl", campaign="")


# --------------------------------------------------------------------------
# Runner: retries, degradation, faults
# --------------------------------------------------------------------------


class TestRunnerRetries:
    def test_injected_failure_retries_to_success_inline(self):
        runner = SweepRunner(
            retry=_fast_retry(),
            fault_plan=FaultPlan.parse("0x2=fail"),
            sleep_fn=_no_sleep,
        )
        assert runner.map(_square, [3]) == [9]
        assert runner.last_reporter().retries == 2
        assert runner.last_reporter().failed == 0

    def test_injected_failure_retries_to_success_in_pool(self):
        runner = SweepRunner(
            workers=2,
            retry=_fast_retry(),
            fault_plan=FaultPlan.parse("0x2=fail"),
            sleep_fn=_no_sleep,
        )
        assert runner.map(_square, [3, 4]) == [9, 16]
        assert runner.last_reporter().retries == 2

    def test_exhausted_retries_degrade_to_failure_row(self):
        runner = SweepRunner(
            retry=_fast_retry(max_retries=1),
            fault_plan=FaultPlan.parse("1x5=fail"),
            sleep_fn=_no_sleep,
        )
        results = runner.map(_square, [3, 4, 5], label="demo")
        assert results[0] == 9 and results[2] == 25
        failure = results[1]
        assert isinstance(failure, PointFailure)
        assert failure.kind == "fault"
        assert failure.attempts == 2
        assert failure.label == "demo[1]"
        assert runner.last_reporter().failed == 1

    def test_without_retry_policy_exceptions_propagate(self):
        runner = SweepRunner(fault_plan=FaultPlan.parse("0=fail"))
        with pytest.raises(FaultInjected):
            runner.map(_square, [3])

    def test_plain_exception_becomes_error_failure(self):
        runner = SweepRunner(retry=_fast_retry(max_retries=0), sleep_fn=_no_sleep)
        results = runner.map(_boom, [1])
        assert results[0].kind == "error"
        assert "bad point" in results[0].message

    def test_kill_fault_aborts_inline(self):
        runner = SweepRunner(
            retry=_fast_retry(), fault_plan=FaultPlan.parse("0=kill"), sleep_fn=_no_sleep
        )
        with pytest.raises(CampaignAborted):
            runner.map(_square, [3])

    def test_kill_fault_crashes_pool_as_clean_abort(self):
        runner = SweepRunner(
            workers=2,
            retry=_fast_retry(),
            fault_plan=FaultPlan.parse("0=kill"),
            sleep_fn=_no_sleep,
        )
        with pytest.raises(WorkerCrashed):
            runner.map(_square, [3, 4])

    def test_hang_trips_point_timeout_in_pool(self):
        runner = SweepRunner(
            workers=2,
            retry=_fast_retry(max_retries=0, point_timeout_s=0.3),
            fault_plan=FaultPlan.parse("0=hang@10"),
            sleep_fn=_no_sleep,
        )
        results = runner.map(_square, [3, 4], label="drill")
        assert results[1] == 16  # the healthy point survived the reaped pool
        assert isinstance(results[0], PointFailure)
        assert results[0].kind == "timeout"

    def test_retry_metrics_flow_into_telemetry(self):
        from repro import obs

        with obs.session(obs.Telemetry()) as tel:
            runner = SweepRunner(
                retry=_fast_retry(max_retries=1),
                fault_plan=FaultPlan.parse("0x5=fail"),
                sleep_fn=_no_sleep,
            )
            runner.map(_square, [3], label="wired")
        metrics = tel.metrics
        assert metrics.counter_value(
            "campaign_retries_total", label="wired", kind="fault"
        ) == 1
        assert metrics.counter_value(
            "campaign_point_failures_total", label="wired", kind="fault"
        ) == 1
        names = [event.name for event in tel.tracer.events]
        assert "campaign.point.failure" in names


# --------------------------------------------------------------------------
# Runner + journal: checkpoint/resume mechanics
# --------------------------------------------------------------------------


class TestRunnerJournal:
    CAMPAIGN = fingerprint("runner-journal/v1", 7)

    def _runner(self, tmp_path, resume=False, **kwargs):
        return make_runner(
            journal_path=str(tmp_path / "journal.jsonl"),
            resume=resume,
            campaign=self.CAMPAIGN,
            **kwargs,
        )

    def test_journal_requires_keys_and_codec(self, tmp_path):
        runner = self._runner(tmp_path)
        with pytest.raises(ConfigurationError):
            runner.map(_square, [1, 2])

    def test_resumed_points_skip_measurement(self, tmp_path):
        with self._runner(tmp_path) as runner:
            first = runner.map(
                _square, [2, 3], keys=["k2", "k3"], encode=_encode, decode=_decode
            )
        with self._runner(tmp_path, resume=True) as resumed_runner:
            # _boom never runs: every point is served from the journal.
            second = resumed_runner.map(
                _boom, [2, 3], keys=["k2", "k3"], encode=_encode, decode=_decode
            )
            assert first == second == [4, 9]
            assert resumed_runner.last_reporter().resumed == 2

    def test_resume_honors_recorded_failures(self, tmp_path):
        with self._runner(tmp_path, max_retries=0) as runner:
            runner.fault_plan = FaultPlan.parse("0x5=fail")
            runner._sleep_fn = _no_sleep
            results = runner.map(
                _square, [2], keys=["k2"], encode=_encode, decode=_decode
            )
            assert isinstance(results[0], PointFailure)
        with self._runner(tmp_path, resume=True) as resumed_runner:
            # The point would succeed now, but yesterday's exhausted
            # retries are a durable outcome until the journal is deleted.
            resumed = resumed_runner.map(
                _square, [2], keys=["k2"], encode=_encode, decode=_decode
            )
            assert isinstance(resumed[0], PointFailure)
            assert resumed[0].kind == "fault"

    def test_cache_hits_are_journaled_too(self, tmp_path):
        from repro.runtime import ResultCache

        cache = ResultCache(tmp_path / "cache")
        cache.put("k2", {"value": 4})
        with SweepRunner(
            cache=cache,
            journal=CampaignJournal(
                tmp_path / "journal.jsonl", self.CAMPAIGN, resume=False
            ),
        ) as runner:
            runner.map(_boom, [2], keys=["k2"], encode=_encode, decode=_decode)
        with self._runner(tmp_path, resume=True) as resumed_runner:
            assert len(resumed_runner.journal) == 1

    def test_make_runner_validates_resume_and_campaign(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_runner(resume=True)  # no journal to resume from
        with pytest.raises(ConfigurationError):
            make_runner(journal_path=str(tmp_path / "j.jsonl"))  # no campaign

    def test_make_runner_installs_default_retry_policy(self, tmp_path):
        runner = make_runner(point_timeout_s=5.0)
        assert runner.retry is not None
        assert runner.retry.max_retries == 2
        assert runner.retry.point_timeout_s == 5.0


# --------------------------------------------------------------------------
# End to end: kill a real campaign, resume it, diff the bytes
# --------------------------------------------------------------------------


@pytest.mark.slow
class TestResumeIdentity:
    """Killed + resumed campaigns render byte-identical artifacts."""

    SCENARIOS_KW = dict(frequencies_hz=GRID, fio_runtime_s=0.3, seed=7)
    CAMPAIGN = fingerprint("figure2-resume/v1", GRID, 0.3, 7)

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        from repro.core.scenario import Scenario

        return run_figure2(
            scenarios=[Scenario.scenario_2()], **self.SCENARIOS_KW
        )

    def _killed_then_resumed(self, tmp_path, workers):
        from repro.core.scenario import Scenario

        journal_path = str(tmp_path / "journal.jsonl")
        killed = make_runner(
            workers=workers,
            journal_path=journal_path,
            campaign=self.CAMPAIGN,
            fault_plan=FaultPlan.parse("2=kill"),
        )
        with pytest.raises(CampaignAborted):
            run_figure2(
                scenarios=[Scenario.scenario_2()], runner=killed, **self.SCENARIOS_KW
            )
        killed.close()
        with CampaignJournal(journal_path, self.CAMPAIGN, resume=True) as journal:
            completed_before = len(journal)
        resumed_runner = make_runner(
            workers=workers,
            journal_path=journal_path,
            resume=True,
            campaign=self.CAMPAIGN,
        )
        result = run_figure2(
            scenarios=[Scenario.scenario_2()], runner=resumed_runner, **self.SCENARIOS_KW
        )
        resumed_runner.close()
        return result, completed_before

    @pytest.mark.parametrize("workers", [1, 4])
    def test_kill_and_resume_is_byte_identical(
        self, tmp_path, uninterrupted, workers
    ):
        result, completed_before = self._killed_then_resumed(tmp_path, workers)
        assert result.to_csv("write") == uninterrupted.to_csv("write")
        assert result.to_csv("read") == uninterrupted.to_csv("read")
        assert result.render() == uninterrupted.render()
        # The kill really did interrupt a partially-journaled campaign
        # (the baseline map commits before the sweep map starts).
        assert completed_before >= 1

    def test_resume_refuses_a_different_campaign(self, tmp_path):
        journal_path = str(tmp_path / "journal.jsonl")
        make_runner(journal_path=journal_path, campaign=self.CAMPAIGN).close()
        with pytest.raises(ResumeMismatch):
            make_runner(
                journal_path=journal_path,
                resume=True,
                campaign=fingerprint("figure2-resume/v1", GRID, 0.3, 8),
            )


@pytest.mark.slow
class TestDegradedRendering:
    """Exhausted points surface as DEGRADED rows, not lost campaigns."""

    def test_table1_renders_failed_distance(self):
        runner = SweepRunner(
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.0, seed=7),
            fault_plan=FaultPlan.parse("2x5=fail"),  # ordinal 0 = baseline
            sleep_fn=_no_sleep,
        )
        result = run_table1(
            distances_m=(0.01, 0.10, 0.25), fio_runtime_s=0.3, seed=7, runner=runner
        )
        assert len(result.range_test.failures) == 1
        assert len(result.range_test.points) == 2
        rendered = result.render()
        assert "DEGRADED: 1 distance" in rendered
        assert "fault" in rendered

    def test_baseline_failure_aborts_cleanly(self):
        runner = SweepRunner(
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.0, seed=7),
            fault_plan=FaultPlan.parse("0x5=fail"),
            sleep_fn=_no_sleep,
        )
        with pytest.raises(CampaignAborted, match="baseline"):
            run_table1(
                distances_m=(0.01,), fio_runtime_s=0.3, seed=7, runner=runner
            )
