"""SLO engine, health rollups, dashboard artifacts, and the serving e2e.

Covers the PR 8 observability stack above the recorder: the ``--slo``
grammar, windowed evaluation with stall semantics, attack-window
pairing from tracer edges, bay→rack→fleet health rollups, dashboard
HTML validated by the same tool CI runs, incident-report edge cases
(empty telemetry, crash exactly on a window boundary), monitor
step-budget truncation, worker-count series parity, and the
YCSB-under-attack end-to-end story: p99 rises during the attack window,
violation minutes are nonzero, and recovery time is finite.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import validate_trace  # noqa: E402  (tools/ is not a package)

from repro import obs
from repro.core.attacker import AttackConfig
from repro.core.fleet import DriveRack
from repro.core.monitor import AvailabilityMonitor, WatchTruncation
from repro.errors import ConfigurationError
from repro.obs.dashboard import (
    dashboard_payload,
    render_dashboard_html,
    render_text_summary,
    sparkline,
)
from repro.obs.health import HealthTracker, classify_probability
from repro.obs.slo import (
    SloObjective,
    attack_windows_from_tracer,
    evaluate_slo,
    parse_slo,
)
from repro.obs.timeseries import SeriesRecorder
from repro.obs.trace import Tracer
from repro.sim.clock import VirtualClock
from repro.workloads.ycsb import WORKLOADS, run_service_attack

LATENCY_BOUNDS = (0.001, 0.005, 0.025, 0.1)


class TestParseSlo:
    def test_units_normalise_to_seconds(self):
        p99, p50, p999 = parse_slo("p99<5ms, p50<=250us, p999<1s")
        assert (p99.metric, p99.op, p99.threshold) == ("p99", "<", 0.005)
        assert p50.threshold == pytest.approx(250e-6)
        assert p999.threshold == 1.0

    def test_avail_is_a_bare_percent(self):
        (avail,) = parse_slo("avail>=99.9")
        assert avail.threshold == 99.9
        assert avail.describe() == "avail >= 99.9%"
        with pytest.raises(ConfigurationError):
            parse_slo("avail>=99.9ms")

    def test_garbage_rejected(self):
        for bad in ("p98<5ms", "p99=5ms", "p99<", "", "p99<5parsec", "avail>=200"):
            with pytest.raises(ConfigurationError):
                parse_slo(bad)

    def test_holds_respects_comparator(self):
        assert SloObjective("p99", "<", 0.005).holds(0.004)
        assert not SloObjective("p99", "<", 0.005).holds(0.005)
        assert SloObjective("avail", ">=", 99.9).holds(99.9)
        assert not SloObjective("avail", ">", 99.9).holds(99.9)


def _serving_recorder():
    """Three windows of traffic with a stall hole in the middle:
    window 0 fast, window 1 empty (stall), window 2 slow."""
    recorder = SeriesRecorder()
    for _ in range(10):
        recorder.series(
            "service/latency", kind="hist", bounds=LATENCY_BOUNDS
        ).observe(0.5, 0.0005)
        recorder.record("service/ops_ok", 0.5, 1.0)
    for _ in range(10):
        recorder.series(
            "service/latency", kind="hist", bounds=LATENCY_BOUNDS
        ).observe(2.5, 0.09)
        recorder.record("service/ops_ok", 2.5, 1.0)
    return recorder


class TestEvaluateSlo:
    def test_stall_window_counts_as_zero_availability(self):
        report = evaluate_slo(_serving_recorder(), parse_slo("avail>=99.9"))
        assert len(report.windows) == 3  # contiguous, stall included
        stall = report.windows[1]
        assert stall.ops == 0 and stall.avail_pct == 0.0
        assert stall.violated
        assert report.violation_s == 1.0

    def test_latency_objectives_vacuous_on_empty_windows(self):
        report = evaluate_slo(_serving_recorder(), parse_slo("p99<25ms"))
        assert not report.windows[0].violated
        assert not report.windows[1].violated  # empty: no latency verdict
        assert report.windows[2].violated  # 90ms bucket breaks 25ms
        assert report.worst("p99") == 0.1

    def test_overflow_bucket_reads_as_inf_and_violates(self):
        recorder = SeriesRecorder()
        recorder.series(
            "service/latency", kind="hist", bounds=LATENCY_BOUNDS
        ).observe(0.1, 5.0)
        recorder.record("service/ops_ok", 0.1, 1.0)
        report = evaluate_slo(recorder, parse_slo("p99<25ms"))
        assert math.isinf(report.windows[0].latency["p99"])
        assert report.windows[0].violated
        # inf serialises as null in the JSON payload, never a number.
        payload = report.to_payload()
        assert payload["windows"][0]["latency"]["p99"] is None

    def test_empty_recorder_evaluates_to_empty_report(self):
        report = evaluate_slo(SeriesRecorder(), parse_slo("p99<5ms,avail>=99.9"))
        assert report.windows == []
        assert report.violation_minutes == 0.0
        assert report.error_budget_burn() is None
        assert "windows evaluated: 0" in report.render()

    def test_attack_window_stats(self):
        # Attack spans the stall window [1, 2); recovery at window 2 is
        # clean for avail, so time-to-recover is the gap to window 2.
        report = evaluate_slo(
            _serving_recorder(),
            parse_slo("avail>=99.9"),
            attack_windows=[(1.0, 2.0)],
        )
        (attack,) = report.attack_windows
        assert attack.degraded_s == 1.0
        assert attack.time_to_recover_s == 0.0
        assert "degraded" in attack.describe()

    def test_never_recovered_is_none(self):
        recorder = SeriesRecorder()
        recorder.record("service/ops_error", 0.5, 1.0)
        recorder.record("service/ops_error", 1.5, 1.0)
        report = evaluate_slo(
            recorder, parse_slo("avail>=99.9"), attack_windows=[(0.0, 1.0)]
        )
        (attack,) = report.attack_windows
        assert attack.time_to_recover_s is None
        assert "never recovered" in attack.describe()


class TestAttackWindowsFromTracer:
    def test_pairs_edges_in_time_order(self):
        tracer = Tracer()
        tracer.instant("attack.on", 2.0, category="attack")
        tracer.instant("attack.off", 5.0, category="attack")
        tracer.instant("attack.on", 9.0, category="attack")
        assert attack_windows_from_tracer(tracer) == [(2.0, 5.0), (9.0, None)]

    def test_none_tracer_and_no_edges(self):
        assert attack_windows_from_tracer(None) == []
        assert attack_windows_from_tracer(Tracer()) == []

    def test_rack_emits_edges_on_attack_toggle(self):
        with obs.session() as tel:
            rack = DriveRack(bays=2)
            rack.apply_attack(AttackConfig(650.0, 140.0, 0.05))
            rack.apply_attack(AttackConfig(650.0, 140.0, 0.05))  # no re-edge
            rack.apply_attack(None)
        windows = attack_windows_from_tracer(tel.tracer)
        assert len(windows) == 1
        start_s, end_s = windows[0]
        assert end_s is not None and end_s >= start_s


class TestHealthRollups:
    def test_classify_probability(self):
        assert classify_probability(1.0) == "healthy"
        assert classify_probability(0.5) == "degraded"
        assert classify_probability(0.0) == "stalled"
        assert classify_probability(0.97, healthy_threshold=0.95) == "healthy"

    def test_worst_state_wins_up_the_hierarchy(self):
        tracker = HealthTracker()
        tracker.observe_rack("rack0", {0: 1.0, 1: 0.4, 2: 0.0}, t_s=3.0)
        assert tracker.unit_state("rack0/bay0") == "healthy"
        assert tracker.unit_state("rack0/bay1") == "degraded"
        assert tracker.unit_state("rack0/bay2") == "stalled"
        assert tracker.rack_state("rack0") == "stalled"
        assert tracker.fleet_state() == "stalled"
        assert tracker.counts()["stalled"] == 1

    def test_transitions_mirror_into_series(self):
        recorder = SeriesRecorder()
        tracker = HealthTracker(recorder=recorder)
        tracker.observe_bay("rack0", 1, 0.4, t_s=2.5)
        bay = recorder.get("health/rack0/bay1")
        rack = recorder.get("health/rack0")
        assert bay.value_at(2, "last") == 1.0  # degraded severity
        assert rack.value_at(2, "last") == 1.0


class TestDashboard:
    @staticmethod
    def _artifacts():
        recorder = _serving_recorder()
        report = evaluate_slo(
            recorder,
            parse_slo("p99<25ms,avail>=99.9"),
            attack_windows=[(1.0, 2.0)],
        )
        health = HealthTracker(recorder=recorder)
        health.observe_rack("rack0", {0: 1.0, 1: 0.0}, t_s=1.5)
        return recorder, report, health

    def test_html_passes_the_ci_validator(self, tmp_path):
        recorder, report, health = self._artifacts()
        html = render_dashboard_html(
            recorder,
            slo_report=report,
            health=health,
            attack_windows=[(1.0, 2.0)],
            title="test run",
        )
        assert validate_trace.validate_dashboard(html) == []
        path = tmp_path / "dash.html"
        path.write_text(html)
        assert validate_trace.main([str(path)]) == 0

    def test_payload_is_json_safe_and_escaped(self):
        recorder, report, health = self._artifacts()
        payload = dashboard_payload(
            recorder, slo_report=report, health=health, title="</script>"
        )
        encoded = json.dumps(payload)  # raises on inf/nan
        assert "</script>" in encoded
        html = render_dashboard_html(recorder, title="</script>")
        island = html.split('id="dashboard-data">', 1)[1].split("</script>", 1)[0]
        assert "</" not in island  # escaped as <\/ inside the island

    def test_sparkline_shape(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert sparkline([]) == ""
        assert sparkline([math.inf, 1.0]) != ""

    def test_text_summary_mentions_every_series(self):
        recorder, report, health = self._artifacts()
        text = render_text_summary(recorder, slo_report=report, health=health)
        assert "service/latency" in text
        assert "service/ops_ok" in text


class TestIncidentEdgeCases:
    """Satellite: incident reports from empty telemetry and a crash
    landing exactly on a window boundary."""

    def test_report_from_empty_telemetry(self):
        from repro.obs.metrics import MetricsRegistry

        report = obs.build_incident_report(
            [], tracer=Tracer(), metrics=MetricsRegistry()
        )
        assert report.startswith("# Incident report")
        assert "0/0 applications crashed." in report
        assert "No timeline records captured" in report

    def test_crash_exactly_on_window_boundary(self):
        # A crash at t == k * interval belongs to window k (closed left
        # edge): the error sample and the health transition land in the
        # same window the SLO engine blames.
        recorder = SeriesRecorder()
        recorder.record("service/ops_ok", 0.5, 1.0)
        recorder.record("service/ops_ok", 1.5, 1.0)
        recorder.record("service/ops_error", 2.0, 1.0)  # boundary crash
        tracker = HealthTracker(recorder=recorder)
        tracker.observe_bay("rack0", 0, 0.0, t_s=2.0)  # the bay stalls
        report = evaluate_slo(recorder, parse_slo("avail>=99.9"))
        assert [w.violated != () for w in report.windows] == [False, False, True]
        assert report.windows[2].t_s == 2.0
        health = recorder.get("health/rack0/bay0")
        assert health.window_indexes() == [2]


class _BusyApp:
    """Never crashes; each step costs a fixed slice of virtual time."""

    name = "busyapp"

    def __init__(self, clock, step_s=0.001):
        self._clock = clock
        self._step_s = step_s

    def step(self):
        self._clock.advance(self._step_s)


class TestMonitorTruncation:
    """Satellite: step-budget exhaustion is not survival."""

    def test_truncation_recorded_with_counter_and_health(self):
        clock = VirtualClock()
        with obs.session() as tel:
            monitor = AvailabilityMonitor(clock)
            report = monitor.watch(
                _BusyApp(clock), deadline_s=100.0, max_steps=50
            )
        assert report is None
        (truncation,) = monitor.truncations
        assert isinstance(truncation, WatchTruncation)
        assert truncation.steps == 50
        assert truncation.elapsed_s < truncation.deadline_s
        assert "truncated" in str(truncation)
        assert (
            tel.metrics.counter_value(
                "monitor_step_budget_exhausted_total", app="busyapp"
            )
            == 1
        )
        assert tel.metrics.counter_value("monitor_survivals_total", app="busyapp") == 0
        assert tel.metrics.description("monitor_step_budget_exhausted_total")
        (instant,) = [e for e in tel.tracer.events if e.name == "watch.truncated"]
        assert instant.args["steps"] == 50

    def test_real_survival_is_not_a_truncation(self):
        clock = VirtualClock()
        with obs.session() as tel:
            monitor = AvailabilityMonitor(clock)
            report = monitor.watch(
                _BusyApp(clock, step_s=0.1), deadline_s=1.0, max_steps=1_000_000
            )
        assert report is None
        assert monitor.truncations == []
        assert tel.metrics.counter_value("monitor_survivals_total", app="busyapp") == 1
        assert (
            tel.metrics.counter_value(
                "monitor_step_budget_exhausted_total", app="busyapp"
            )
            == 0
        )

    def test_telemetry_off_still_records_truncations(self):
        clock = VirtualClock()
        monitor = AvailabilityMonitor(clock)
        assert monitor.watch(_BusyApp(clock), deadline_s=100.0, max_steps=10) is None
        assert len(monitor.truncations) == 1


@pytest.mark.slow
class TestServiceAttackEndToEnd:
    """The acceptance story: a KV service under a 139 dB attack shows
    p99 inflation inside the attack window, nonzero violation minutes,
    and a finite time-to-recover."""

    @pytest.fixture(scope="class")
    def run(self):
        with obs.session() as tel:
            result = run_service_attack(
                WORKLOADS["A"],
                warmup_s=2.0,
                attack_s=3.0,
                recovery_s=3.0,
                config=AttackConfig(650.0, 139.0, 0.12),
                record_count=200,
                seed=7,
            )
        windows = attack_windows_from_tracer(tel.tracer)
        report = evaluate_slo(
            tel.series, parse_slo("p99<25ms,avail>=99.9"), attack_windows=windows
        )
        return tel, result, windows, report

    def test_attack_window_recovered_from_tracer(self, run):
        _, result, windows, _ = run
        assert windows == [result.attack_window]
        start_s, end_s = windows[0]
        assert start_s == pytest.approx(result.attack_start_s)
        assert end_s > start_s

    def test_p99_rises_during_the_attack(self, run):
        tel, result, _, report = run
        def p99(window):
            return window.latency["p99"]
        quiet = [w for w in report.windows if w.t_s + w.interval_s <= result.attack_start_s]
        attacked = [
            w
            for w in report.windows
            if result.attack_start_s <= w.t_s < result.attack_end_s
        ]
        assert quiet and attacked
        assert max(map(p99, attacked)) > 4 * max(map(p99, quiet))

    def test_violation_minutes_nonzero_and_recovery_finite(self, run):
        _, _, _, report = run
        assert report.violation_minutes > 0.0
        (attack,) = report.attack_windows
        assert attack.degraded_s > 0.0
        assert attack.time_to_recover_s is not None  # finite recovery

    def test_series_round_trip_through_jsonl(self, run, tmp_path):
        tel, _, _, _ = run
        lines = obs.series_jsonl_lines(tel.series)
        assert validate_trace.validate_series_lines(lines) == []
        path = tmp_path / "series.jsonl"
        obs.write_series_jsonl(tel.series, path)
        assert path.read_text().splitlines() == lines


@pytest.mark.slow
class TestWorkerSeriesParity:
    """Acceptance gate: the series JSONL a 4-worker campaign dumps is
    byte-identical to the single-worker dump."""

    @staticmethod
    def _campaign(workers):
        from repro.core.scenario import Scenario
        from repro.experiments.figure2 import run_figure2
        from repro.runtime import SweepRunner

        with obs.session() as tel:
            run_figure2(
                frequencies_hz=[300.0, 650.0],
                scenarios=[Scenario.scenario_2()],
                fio_runtime_s=0.2,
                seed=7,
                runner=SweepRunner(workers=workers),
            )
        return tel

    def test_series_jsonl_byte_identical_across_worker_counts(self):
        one = obs.series_jsonl_lines(self._campaign(1).series)
        four = obs.series_jsonl_lines(self._campaign(4).series)
        assert one  # the campaign actually recorded series
        assert "\n".join(four) == "\n".join(one)
