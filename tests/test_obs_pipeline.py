"""Telemetry wired through the real pipeline.

End-to-end checks: instrumented sweeps produce the expected spans and
counters, worker fan-out merges to float-identical telemetry, and the
Table 3 incident report tells the same crash story as the reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest

from repro import obs
from repro.cli import main
from repro.core.attack import AttackSession
from repro.core.scenario import Scenario
from repro.experiments.figure2 import run_figure2
from repro.experiments.table3 import run_table3
from repro.experiments.apps import Ext4Victim, UbuntuVictim
from repro.runtime import SweepRunner

GRID = [300.0, 650.0]
SCENARIOS = [Scenario.scenario_2()]


class TestInstrumentedSweep:
    @pytest.fixture(scope="class")
    def traced(self):
        with obs.session() as tel:
            session = AttackSession(seed=7, fio_runtime_s=0.2)
            result = session.frequency_sweep([650.0])
        return tel, result

    def test_each_point_gets_its_own_track(self, traced):
        tel, _ = traced
        (point,) = tel.tracer.find_spans("sweep.point")
        assert point.track == "Scenario 2/sweep/650.0Hz"
        assert point.args == {"frequency_hz": 650.0}
        (baseline,) = tel.tracer.find_spans("baseline.point")
        assert baseline.track == "Scenario 2/baseline"

    def test_drive_commands_recorded_inside_the_point(self, traced):
        tel, _ = traced
        reads = tel.tracer.find_spans("drive.read", track="Scenario 2/sweep/650.0Hz")
        writes = tel.tracer.find_spans("drive.write", track="Scenario 2/sweep/650.0Hz")
        assert reads and writes
        assert all(s.category == "drive" for s in reads + writes)

    def test_counters_cover_the_whole_stack(self, traced):
        tel, result = traced
        metrics = tel.metrics
        assert metrics.counter_value("attack_points_total", kind="sweep") == 1
        assert metrics.counter_value("attack_points_total", kind="baseline") == 1
        assert metrics.counter_total("drive_ops_total") > 0
        assert metrics.counter_total("fio_ops_total") > 0
        # Drive op count in the registry matches what the spans recorded.
        assert metrics.counter_total("drive_ops_total") == len(
            [s for s in tel.tracer.spans if s.name in ("drive.read", "drive.write")]
        )

    def test_fio_latency_histogram_fed(self, traced):
        tel, _ = traced
        hist = tel.metrics.histogram("fio_op_latency_s", mode="read")
        assert hist.count > 0

    def test_results_identical_with_and_without_telemetry(self, traced):
        _, traced_result = traced
        plain = AttackSession(seed=7, fio_runtime_s=0.2).frequency_sweep([650.0])
        assert plain.points == traced_result.points
        assert plain.baseline_write_mbps == traced_result.baseline_write_mbps


class TestAttemptDetail:
    def _run(self, detail):
        with obs.session(obs.Telemetry(tracer=obs.Tracer(detail=detail))) as tel:
            AttackSession(seed=7, fio_runtime_s=0.2).frequency_sweep([650.0])
        return tel.tracer

    def test_attempts_detail_records_per_attempt_spans(self):
        tracer = self._run("attempts")
        assert tracer.find_spans("drive.attempt")

    def test_commands_detail_does_not(self):
        tracer = self._run("commands")
        assert not tracer.find_spans("drive.attempt")
        assert tracer.find_spans("drive.read")


class TestWorkerMerge:
    """The acceptance gate: per-worker telemetry merges to the exact
    totals the single-process run produces."""

    @staticmethod
    def _campaign(workers):
        # An explicit runner on both sides: make_runner(workers=1)
        # intentionally returns None (plain sequential path, no
        # reporter), which would leave the single-process run without
        # campaign counters to compare against.
        with obs.session() as tel:
            result = run_figure2(
                frequencies_hz=GRID,
                scenarios=SCENARIOS,
                fio_runtime_s=0.2,
                seed=7,
                runner=SweepRunner(workers=workers),
            )
        return tel, result

    def test_pool_merge_identical_to_single_process(self):
        tel_one, result_one = self._campaign(workers=1)
        tel_two, result_two = self._campaign(workers=2)
        for name in result_one.sweeps:
            assert result_two.sweeps[name].points == result_one.sweeps[name].points
        assert json.dumps(tel_two.metrics.snapshot(), sort_keys=True) == json.dumps(
            tel_one.metrics.snapshot(), sort_keys=True
        )
        assert json.dumps(tel_two.tracer.snapshot(), sort_keys=True) == json.dumps(
            tel_one.tracer.snapshot(), sort_keys=True
        )

    def test_campaign_counters_distinguish_fresh_from_cached(self):
        with obs.session() as tel:
            runner = SweepRunner(workers=1)
            runner.map(_double, [1, 2, 3], label="demo")
        assert tel.metrics.counter_value(
            "campaign_points_total", label="demo", source="fresh"
        ) == 3
        assert tel.metrics.counter_value(
            "campaign_points_total", label="demo", source="cached"
        ) == 0


def _double(x):
    return 2 * x


class TestCommandMetricsDump:
    """What ``figure2 --metrics-out`` keeps across ``--workers``.

    The serial command runs without a runner, so it counts no campaign
    points, and it keeps one running sum per histogram where the pool
    merges per-point sums.  Everything else is equal line for line.  The
    two sums differ only by float rounding, so their ``.9g`` texts may
    differ by one in the ninth significant digit (they do in the
    default-seed run), never by more.
    """

    @staticmethod
    def _dump(tmp_path, workers):
        metrics = tmp_path / f"metrics-{workers}.prom"
        argv = [
            "figure2", "--runtime", "0.05", "--seed", "7", "--workers", str(workers),
            "--trace", str(tmp_path / f"trace-{workers}.json"),
            "--metrics-out", str(metrics),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return metrics.read_text().splitlines()

    def test_only_point_counts_and_sum_rounding_differ(self, tmp_path):
        serial, pooled = self._dump(tmp_path, 1), self._dump(tmp_path, 2)
        points = [line for line in pooled if "campaign_points_total" in line]
        assert len(points) == 7  # the TYPE line and one line per label
        assert not any("campaign_points_total" in line for line in serial)
        pooled = [line for line in pooled if line not in points]
        assert len(pooled) == len(serial)
        for one, two in zip(serial, pooled):
            name, _, value = one.rpartition(" ")
            if name.partition("{")[0].endswith("_sum"):
                other_name, _, other = two.rpartition(" ")
                assert other_name == name
                unit = 10.0 ** (math.floor(math.log10(abs(float(value)) or 1.0)) - 8)
                assert abs(float(other) - float(value)) <= unit * 1.0001
            else:
                assert two == one


class TestTable3Incident:
    @pytest.fixture(scope="class")
    def traced(self):
        with obs.session() as tel:
            result = run_table3(deadline_s=120.0, victims=[Ext4Victim, UbuntuVictim])
        return tel, result

    def test_crash_instants_match_crash_reports(self, traced):
        tel, result = traced
        for name, report in result.reports.items():
            assert report is not None
            (watch,) = tel.tracer.find_spans("monitor.watch", track=f"victim/{name}")
            crashes = [
                e
                for e in tel.tracer.events
                if e.name == "crash" and e.track == f"victim/{name}"
            ]
            assert len(crashes) == 1
            assert crashes[0].ts_s == pytest.approx(
                watch.start_s + report.time_to_crash_s
            )

    def test_smart_forensics_collected_per_victim(self, traced):
        _, result = traced
        assert set(result.smart_reports) == set(result.reports)
        assert all(result.smart_reports.values())

    def test_kernel_log_lands_on_the_timeline(self, traced):
        tel, _ = traced
        dmesg = [e for e in tel.tracer.events if e.track == "victim/Ubuntu/dmesg"]
        assert dmesg
        assert any("error" in (e.args or {}).get("text", "").lower() for e in dmesg)

    def test_incident_report_tells_the_story(self, traced):
        tel, result = traced
        report = result.incident_report(tel)
        assert "2/2 applications crashed" in report
        assert "CRASH" in report
        for name, crash in result.reports.items():
            assert name in report
            assert f"{crash.time_to_crash_s:.1f}" in report
        assert "By the numbers" in report
        assert "SMART" in report

    def test_smart_collection_off_without_telemetry(self):
        result = run_table3(deadline_s=120.0, victims=[Ext4Victim])
        assert result.smart_reports == {}
