"""More property-based tests: RAID and campaign math."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rng import make_rng
from repro.sim.clock import VirtualClock

_settings = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestRaidProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)), min_size=1, max_size=50),
        st.sampled_from(["raid1", "raid5"]),
        st.integers(0, 2),
    )
    @_settings
    def test_reads_match_model_even_degraded(self, writes, level_name, victim):
        from repro.hdd.drive import HardDiskDrive
        from repro.storage.block import BlockDevice
        from repro.storage.raid import RaidArray, RaidLevel
        from repro.units import BLOCK_4K

        clock = VirtualClock()
        members = [
            BlockDevice(
                HardDiskDrive(clock=clock, rng=make_rng(5).fork(f"m{i}")),
                name=f"sd{i}",
            )
            for i in range(3)
        ]
        level = RaidLevel.RAID1 if level_name == "raid1" else RaidLevel.RAID5
        array = RaidArray(level, members)
        model = {}
        for block, byte in writes:
            data = bytes([byte]) * BLOCK_4K
            array.write_block(block, data)
            model[block] = data
        array.members[victim].failed = True  # lose any one member
        for block, data in model.items():
            assert array.read_block(block) == data


class TestCampaignProperties:
    @given(
        st.floats(min_value=0.05, max_value=0.9),
        st.floats(min_value=1.0, max_value=70.0),
        st.floats(min_value=50.0, max_value=500.0),
    )
    @_settings
    def test_degradation_duty_cycle_is_respected(self, duty, burst, total):
        from repro.core.campaign import CampaignPlanner
        from repro.core.coupling import AttackCoupling

        planner = CampaignPlanner(AttackCoupling.paper_setup())
        if burst >= planner.crash_horizon_s:
            return  # planner rejects these; covered by unit tests
        plan = planner.plan_degradation_campaign(
            total_s=total, duty_cycle=duty, burst_s=burst
        )
        # Every burst stays under the horizon, and total on-time tracks
        # the duty cycle (within one burst of quantization).
        for start, stop in plan.bursts:
            assert stop - start <= burst + 1e-9
        assert plan.total_on_time_s <= duty * total + burst
