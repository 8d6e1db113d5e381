"""More property-based tests: campaign math."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_settings = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


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
