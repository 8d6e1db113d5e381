"""fsck and campaign planning."""

import pytest

from repro.core.campaign import CampaignPlanner
from repro.core.coupling import AttackCoupling
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError
from repro.storage.fs.fsck import check
from repro.storage.fs.inode import Extent


class TestFsck:
    def test_fresh_filesystem_is_clean(self, fs):
        report = check(fs)
        assert report.clean
        assert report.inodes_checked == 1

    def test_populated_filesystem_is_clean(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/b/file")
        fs.write_file("/a/b/file", b"x" * 9000)
        fs.create("/top")
        report = check(fs)
        assert report.clean, report.render()
        assert report.blocks_checked >= 3

    def test_detects_dangling_directory_entry(self, fs):
        fs.create("/victim")
        inode = fs.stat("/victim")
        del fs.inodes[inode.ino]  # simulate lost inode record
        report = check(fs)
        assert not report.clean
        assert any("dangling" in e for e in report.errors)

    def test_detects_shared_blocks(self, fs):
        fs.create("/a")
        fs.write_file("/a", b"x" * 4096)
        fs.create("/b")
        fs.write_file("/b", b"y" * 4096)
        fs.stat("/b").extents[:] = list(fs.stat("/a").extents)
        report = check(fs)
        assert any("shared" in e for e in report.errors)

    def test_detects_orphaned_inode(self, fs):
        fs.create("/ghost")
        inode = fs.stat("/ghost")
        entries = fs._dir_entries(fs.stat("/"))
        del entries[("ghost")]
        fs._write_dir_entries(fs.stat("/"), entries)
        report = check(fs)
        assert any("orphaned" in e and str(inode.ino) in e for e in report.errors)

    def test_detects_size_beyond_allocation(self, fs):
        fs.create("/f")
        fs.write_file("/f", b"x" * 100)
        fs.stat("/f").size = 999_999
        report = check(fs)
        assert any("exceeds allocated" in e for e in report.errors)

    def test_detects_cursor_violation(self, fs):
        fs.create("/f")
        fs.stat("/f").extents.append(Extent(fs.device.total_blocks - 4, 2))
        fs.alloc_cursor = fs.data_start  # pretend nothing was allocated
        report = check(fs)
        assert any("allocator cursor" in e for e in report.errors)

    def test_render_mentions_errors(self, fs):
        fs.create("/x")
        del fs.inodes[fs.stat("/").ino]  # nuke root: catastrophic
        fs.inodes.clear()
        report = check(fs)
        assert "root inode missing" in report.render()


class TestCampaignPlanner:
    @pytest.fixture
    def planner(self):
        return CampaignPlanner(AttackCoupling.paper_setup(Scenario.scenario_2()))

    def test_best_tone_is_in_band_and_stalls(self, planner):
        tone = planner.best_tone()
        assert 300.0 <= tone.frequency_hz <= 1700.0
        assert tone.stalls_servo
        assert tone.write_ratio > tone.read_ratio

    def test_vulnerable_band_prediction(self, planner):
        band = planner.vulnerable_band()
        assert band is not None
        low, high = band
        assert low <= 400.0
        assert 1200.0 <= high <= 2200.0

    def test_no_band_far_away(self, planner):
        assert planner.vulnerable_band(distance_m=0.25) is None

    def test_max_stall_distance_near_paper_cliff(self, planner):
        reach = planner.max_stall_distance_m(650.0)
        assert 0.03 < reach < 0.10  # paper: no response at 5 cm, not at 10

    def test_crash_campaign_covers_horizon(self, planner):
        plan = planner.plan_crash_campaign()
        assert plan.objective == "crash"
        assert plan.total_on_time_s >= planner.crash_horizon_s
        assert plan.active_at(10.0)

    def test_crash_campaign_impossible_from_afar(self, planner):
        with pytest.raises(ConfigurationError):
            planner.plan_crash_campaign(distance_m=0.25)

    def test_degradation_campaign_stays_under_horizon(self, planner):
        plan = planner.plan_degradation_campaign(total_s=300.0, duty_cycle=0.25, burst_s=20.0)
        assert plan.objective == "degrade"
        for start, stop in plan.bursts:
            assert stop - start < planner.crash_horizon_s
        assert plan.total_on_time_s == pytest.approx(0.25 * 300.0, rel=0.15)
        assert plan.active_at(5.0)
        assert not plan.active_at(25.0)

    def test_degradation_burst_bounds_validated(self, planner):
        with pytest.raises(ConfigurationError):
            planner.plan_degradation_campaign(total_s=100.0, burst_s=100.0)
