"""The parallel campaign runner: determinism, memoization, progress."""

import io
import itertools
import os
import time

import pytest

from repro.core.attack import AttackSession
from repro.core.scenario import Scenario
from repro.core.coupling import AttackCoupling
from repro.errors import ConfigurationError, WorkerCrashed
from repro.experiments.figure2 import run_figure2
from repro.runtime import (
    ProgressReporter,
    ResultCache,
    SweepRunner,
    canonical,
    fingerprint,
    make_runner,
)

GRID = [300.0, 650.0, 3000.0]
SCENARIOS = [Scenario.scenario_2()]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"bad point {x}")


def _die(x):
    os._exit(3)  # simulate a segfaulting worker, not a Python exception


def _encode(value):
    return {"value": value}


def _decode(payload):
    return payload["value"]


class TestFingerprint:
    def test_stable_across_instances(self):
        a = fingerprint("k", AttackCoupling.paper_setup(), 7)
        b = fingerprint("k", AttackCoupling.paper_setup(), 7)
        assert a == b

    def test_sensitive_to_every_part(self):
        base = fingerprint("k", AttackCoupling.paper_setup(), 7)
        assert fingerprint("k", AttackCoupling.paper_setup(), 8) != base
        assert fingerprint("other", AttackCoupling.paper_setup(), 7) != base

    def test_scenario_changes_fingerprint(self):
        two = fingerprint(AttackCoupling.paper_setup(Scenario.scenario_2()))
        three = fingerprint(AttackCoupling.paper_setup(Scenario.scenario_3()))
        assert two != three

    def test_canonical_has_no_memory_addresses(self):
        text = canonical(AttackCoupling.paper_setup())
        assert " at 0x" not in text

    def test_dict_order_does_not_matter(self):
        assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})

    def test_coupling_fingerprint_ignores_evaluation_state(self):
        from repro.core.attacker import AttackConfig

        coupling = AttackCoupling.paper_setup()
        before = fingerprint(coupling)
        coupling.vibration_at_drive(AttackConfig(frequency_hz=777.0))
        assert fingerprint(coupling) == before

    def test_profile_fingerprint_ignores_evaluation_state(self):
        from repro.hdd.drive import HardDiskDrive
        from repro.hdd.profiles import make_barracuda_profile

        profile = make_barracuda_profile()
        before = fingerprint(profile)
        # An LBA no other test touches, so the shared locate cache grows.
        HardDiskDrive(profile=profile).write(654_321_987, 8)
        assert fingerprint(profile) == before

    def test_repeated_sweep_hits_the_cache(self, tmp_path):
        session = AttackSession(seed=5, fio_runtime_s=0.2)
        grid = [300.0, 650.0, 1000.0]
        first = make_runner(cache_dir=str(tmp_path))
        session.frequency_sweep(grid, runner=first)
        assert first.cache.stats.hits == 0
        second = make_runner(cache_dir=str(tmp_path))
        session.frequency_sweep(grid, runner=second)
        # The baseline and every sweep point come back from the cache.
        assert second.cache.stats.hits == 1 + len(grid)
        assert second.cache.stats.misses == 0


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1.5})
        assert cache.get("ab" * 32) == {"x": 1.5}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss_on_absent_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 32) is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, {"x": 1})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_cache_dir_must_be_a_directory(self, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("x")
        with pytest.raises(ConfigurationError):
            ResultCache(occupied)

    def test_len_counts_entries_on_disk(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("aa" * 32, {"x": 1})
        cache.put("bb" * 32, {"x": 2})
        cache.put("aa" * 32, {"x": 3})  # a rewrite replaces its entry
        assert len(cache) == 2


class TestSweepRunnerMechanics:
    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(workers=0)

    def test_in_process_map_preserves_order(self):
        assert SweepRunner(workers=1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        assert SweepRunner(workers=2).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_cache_requires_aligned_keys(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path))
        with pytest.raises(ConfigurationError):
            runner.map(_square, [1, 2], keys=["only-one"], encode=_encode, decode=_decode)

    def test_cache_requires_codec(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path))
        with pytest.raises(ConfigurationError):
            runner.map(_square, [1], keys=["k"])

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="bad point"):
            SweepRunner(workers=2).map(_boom, [1])

    def test_worker_crash_is_a_clean_error_not_a_hang(self):
        with pytest.raises(WorkerCrashed):
            SweepRunner(workers=2).map(_die, [1, 2])

    def test_cached_points_skip_measurement(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        first = runner.map(_square, [2, 3], keys=["k2", "k3"], encode=_encode, decode=_decode)
        second = SweepRunner(cache=ResultCache(tmp_path)).map(
            _boom, [2, 3], keys=["k2", "k3"], encode=_encode, decode=_decode
        )
        # _boom never ran: both points came from disk.
        assert first == second == [4, 9]

    def test_make_runner_defaults_to_sequential_path(self, tmp_path):
        assert make_runner() is None
        assert make_runner(workers=4).workers == 4
        assert make_runner(cache_dir=str(tmp_path)).cache is not None


class TestProgressReporter:
    def test_counts_and_rate(self):
        times = itertools.chain([0.0, 1.0], itertools.repeat(2.0))
        reporter = ProgressReporter(total=4, stream=None, time_fn=lambda: next(times))
        reporter.start()
        reporter.advance()
        reporter.advance(cached=True)
        assert reporter.completed == 2
        assert reporter.cached == 1
        assert reporter.points_per_second == pytest.approx(1.0)
        assert reporter.eta_s == pytest.approx(2.0)

    def test_summary_line(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, label="demo", stream=stream, time_fn=lambda: 1.0)
        reporter.start()
        reporter.advance()
        reporter.advance()
        line = reporter.finish()
        assert "demo" in line and "2/2" in line
        assert "points/s" in stream.getvalue()

    def test_silent_stream_still_counts(self):
        reporter = ProgressReporter(total=1, stream=None)
        reporter.advance()
        assert reporter.completed == 1

    def test_summary_separates_fresh_from_cached(self):
        reporter = ProgressReporter(total=4, stream=None, time_fn=lambda: 1.0)
        reporter.start()
        for cached in (False, True, True, True):
            reporter.advance(cached=cached)
        assert reporter.fresh == 1
        assert reporter.cache_hit_rate == pytest.approx(0.75)
        line = reporter.summary()
        assert "1 fresh" in line
        assert "3 from cache" in line
        assert "75% hit" in line

    def test_eta_zero_for_empty_campaign(self):
        reporter = ProgressReporter(total=0, stream=None)
        reporter.start()
        assert reporter.eta_s == 0.0

    def test_eta_zero_once_complete(self):
        times = itertools.chain([0.0], itertools.repeat(5.0))
        reporter = ProgressReporter(total=1, stream=None, time_fn=lambda: next(times))
        reporter.start()
        reporter.advance()
        assert reporter.eta_s == 0.0

    def test_eta_nan_before_any_rate(self):
        reporter = ProgressReporter(total=3, stream=None, time_fn=lambda: 2.0)
        reporter.start()
        assert reporter.eta_s != reporter.eta_s  # NaN: no points yet

    def test_eta_formatting_over_an_hour(self):
        from repro.runtime.progress import _format_eta

        assert _format_eta(5.4) == "5.4s"
        assert _format_eta(59.94) == "59.9s"
        assert _format_eta(59.96) == "1m00s"  # no "60.0s" artifact
        assert _format_eta(61.0) == "1m01s"
        assert _format_eta(3599.4) == "59m59s"
        assert _format_eta(3600.0) == "1h00m"
        assert _format_eta(5400.0) == "1h30m"
        assert _format_eta(86400.0) == "24h00m"
        assert _format_eta(-1.0) == "--"
        assert _format_eta(float("nan")) == "--"

    def test_telemetry_hook_counts_points_by_source(self):
        from repro.obs.telemetry import Telemetry

        bundle = Telemetry()
        reporter = ProgressReporter(
            total=3, label="wired", stream=None, telemetry=bundle
        )
        reporter.advance()
        reporter.advance(cached=True)
        reporter.advance()
        metrics = bundle.metrics
        assert metrics.counter_value(
            "campaign_points_total", label="wired", source="fresh"
        ) == 2
        assert metrics.counter_value(
            "campaign_points_total", label="wired", source="cached"
        ) == 1


@pytest.mark.slow
class TestCampaignDeterminism:
    """Serial vs parallel vs cached: bit-identical numbers."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=7
        )

    def test_parallel_is_bit_identical_to_serial(self, serial):
        parallel = run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=7, workers=4
        )
        assert parallel.to_csv("write") == serial.to_csv("write")
        assert parallel.to_csv("read") == serial.to_csv("read")
        for name in serial.sweeps:
            assert parallel.sweeps[name].points == serial.sweeps[name].points
            assert (
                parallel.sweeps[name].baseline_write_mbps
                == serial.sweeps[name].baseline_write_mbps
            )

    def test_warm_cache_is_bit_identical_and_skips_work(self, serial, tmp_path):
        cold = run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=7,
            cache_dir=str(tmp_path),
        )
        warm_cache = ResultCache(tmp_path)
        warm = run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=7,
            runner=SweepRunner(cache=warm_cache),
        )
        assert warm.to_csv("write") == cold.to_csv("write") == serial.to_csv("write")
        # Per scenario: one baseline + len(GRID) points, all from disk.
        assert warm_cache.stats.hits == len(SCENARIOS) * (len(GRID) + 1)
        assert warm_cache.stats.misses == 0

    def test_warm_cache_halves_wall_time(self, tmp_path):
        """A memoized re-run costs less than half the cold run (measured
        5-12x: tens of milliseconds cold, a few warm)."""
        grid = [300.0, 650.0, 1000.0, 1300.0, 1700.0, 3000.0]

        def timed(**kwargs):
            started = time.perf_counter()
            result = run_figure2(
                frequencies_hz=grid, scenarios=Scenario.all_three(), fio_runtime_s=0.3,
                seed=7, **kwargs
            )
            return result, time.perf_counter() - started

        cold, cold_s = timed(cache_dir=str(tmp_path))
        warm_s = []
        for _ in range(3):  # the best of three rides out a scheduling hiccup
            warm_cache = ResultCache(tmp_path)
            warm, seconds = timed(runner=SweepRunner(cache=warm_cache))
            assert warm.to_csv("write") == cold.to_csv("write")
            assert warm_cache.stats.misses == 0
            warm_s.append(seconds)
        assert min(warm_s) < cold_s / 2.0, f"warm {warm_s} s, cold {cold_s:.3f} s"

    def test_seed_change_misses_the_cache(self, tmp_path):
        run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=7,
            cache_dir=str(tmp_path),
        )
        other_cache = ResultCache(tmp_path)
        run_figure2(
            frequencies_hz=GRID, scenarios=SCENARIOS, fio_runtime_s=0.3, seed=8,
            runner=SweepRunner(cache=other_cache),
        )
        assert other_cache.stats.hits == 0
        assert other_cache.stats.misses == len(SCENARIOS) * (len(GRID) + 1)

    def test_runtime_change_misses_the_cache(self, tmp_path):
        session = AttackSession(seed=7, fio_runtime_s=0.3)
        short = session._point_key("sweep-point/v1", None)
        session_long = AttackSession(seed=7, fio_runtime_s=0.5)
        long = session_long._point_key("sweep-point/v1", None)
        assert short != long

    def test_range_test_parallel_identity(self):
        serial = AttackSession(seed=7, fio_runtime_s=0.3).range_test([0.01, 0.25])
        parallel = AttackSession(seed=7, fio_runtime_s=0.3).range_test(
            [0.01, 0.25], runner=SweepRunner(workers=2)
        )
        assert parallel.baseline == serial.baseline
        assert parallel.points == serial.points
