"""Final edge-case batch: multi-snapshot compaction, misc boundaries."""

import pytest

from repro.errors import ConfigurationError
from repro.rng import make_rng
from repro.storage.kv.db import DB, Options, Snapshot


class TestMultipleSnapshots:
    def test_two_pinned_generations_survive_churn(self, fs):
        fs.mkdir("/multi")
        options = Options(write_buffer_size=8 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/multi", options=options)
        key = b"versioned"
        db.put(key, b"gen1")
        snap1 = db.snapshot()
        db.put(key, b"gen2")
        snap2 = db.snapshot()
        for round_ in range(6):
            for i in range(120):
                db.put(f"filler{i:04d}".encode(), bytes([round_]) * 40)
            db.flush()
        db.compactor.maybe_compact(max_rounds=8)
        assert db.get(key, snapshot=snap1) == b"gen1"
        assert db.get(key, snapshot=snap2) == b"gen2"
        assert db.get(key) == b"gen2"

    def test_release_allows_reclaim_on_next_compaction(self, fs):
        fs.mkdir("/rel")
        options = Options(write_buffer_size=4 * 1024, l0_compaction_trigger=2)
        db = DB.open(fs, "/rel", options=options)
        db.put(b"k", b"old")
        snap = db.snapshot()
        db.put(b"k", b"new")
        db.release_snapshot(snap)
        db.compact_range()
        # With the pin gone, the old version may (and does) disappear.
        assert db.get(b"k") == b"new"
        assert db.get(b"k", snapshot=snap.sequence) in (b"new", None)

    def test_snapshot_of_empty_db(self, db):
        snap = db.snapshot()
        assert isinstance(snap, Snapshot)
        db.put(b"k", b"v")
        assert db.get(b"k", snapshot=snap) is None


class TestSmartWindowMaintenance:
    def test_old_samples_are_trimmed(self, drive):
        from repro.hdd.smart import SmartLog

        smart = SmartLog(drive, window_s=2.0)
        for _ in range(50):
            drive.clock.advance(5.0)
            smart.sample()
        # The deque never grows unboundedly.
        assert len(smart._samples) < 20

    def test_window_validation(self, drive):
        from repro.hdd.smart import SmartLog

        with pytest.raises(ConfigurationError):
            SmartLog(drive, window_s=0.0)


class TestRackMetalVariant:
    def test_metal_rack_narrower_response(self):
        from repro.core.attacker import AttackConfig
        from repro.core.fleet import DriveRack

        plastic = DriveRack(bays=3, metal=False)
        metal = DriveRack(bays=3, metal=True)
        config = AttackConfig(1500.0, 140.0, 0.01)
        plastic_vib = plastic.apply_attack(config)
        metal_vib = metal.apply_attack(config)
        assert metal_vib[1].displacement_m < plastic_vib[1].displacement_m


class TestCampaignPlanEdges:
    def test_bursts_never_overlap(self):
        from repro.core.campaign import CampaignPlanner
        from repro.core.coupling import AttackCoupling

        planner = CampaignPlanner(AttackCoupling.paper_setup())
        plan = planner.plan_degradation_campaign(total_s=300.0, duty_cycle=0.5, burst_s=10.0)
        for (s1, e1), (s2, e2) in zip(plan.bursts, plan.bursts[1:]):
            assert e1 <= s2

    def test_active_at_boundaries(self):
        from repro.core.campaign import CampaignPlan
        from repro.core.attacker import AttackConfig

        plan = CampaignPlan(
            objective="degrade",
            config=AttackConfig(650.0, 140.0, 0.01),
            bursts=[(1.0, 2.0)],
        )
        assert not plan.active_at(0.99)
        assert plan.active_at(1.0)
        assert plan.active_at(1.99)
        assert not plan.active_at(2.0)


class TestYcsbResultMath:
    def test_zero_elapsed_rates(self):
        from repro.workloads.ycsb import YcsbResult

        result = YcsbResult(workload="A")
        assert result.ops_per_second == 0.0

    def test_runner_validation(self, db, rng):
        from repro.workloads.ycsb import YcsbRunner

        with pytest.raises(ConfigurationError):
            YcsbRunner(db, record_count=0)
        with pytest.raises(ConfigurationError):
            YcsbRunner(db, value_size=0)
