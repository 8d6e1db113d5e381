"""Alternative drive profiles."""

from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.experiments.ablations import run_drive_type_ablation
from repro.hdd.profiles import (
    make_barracuda_profile,
    make_enterprise_profile,
    make_laptop_profile,
)
from repro.hdd.servo import OpKind


class TestDriveProfiles:
    def test_laptop_profile_geometry(self):
        profile = make_laptop_profile()
        assert profile.spindle.rpm == 5400.0
        assert profile.geometry.track_pitch_m < make_barracuda_profile().geometry.track_pitch_m

    def test_enterprise_profile_faster_everything(self):
        enterprise = make_enterprise_profile()
        desktop = make_barracuda_profile()
        assert enterprise.spindle.rpm > desktop.spindle.rpm
        assert enterprise.sequential_read_mbps() > desktop.sequential_read_mbps()

    def test_enterprise_rv_compensation_rejects_more(self):
        enterprise = make_enterprise_profile()
        desktop = make_barracuda_profile()
        assert enterprise.servo.rejection(650.0) < desktop.servo.rejection(650.0)

    def test_vulnerability_ordering_under_paper_attack(self):
        """Laptop >= desktop > enterprise sensitivity at the attack tone."""
        coupling = AttackCoupling.paper_setup()
        vibration = coupling.vibration_at_drive(AttackConfig.paper_best())

        def ratio(profile):
            return profile.servo.offtrack_amplitude_m(vibration) / profile.servo.threshold_m(
                OpKind.WRITE
            )

        laptop = ratio(make_laptop_profile())
        desktop = ratio(make_barracuda_profile())
        enterprise = ratio(make_enterprise_profile())
        assert laptop > desktop > enterprise

    def test_enterprise_band_shrinks_but_survives_at_650(self):
        """RV compensation saves the enterprise drive at 650 Hz...

        ...but a narrower vulnerable band remains around its servo
        corner (≈900-1300 Hz): firmware shrinks, not eliminates, the
        attack surface.
        """
        coupling = AttackCoupling.paper_setup()
        servo = make_enterprise_profile().servo

        def ratio(freq):
            vibration = coupling.vibration_at_drive(AttackConfig(freq, 140.0, 0.01))
            return servo.offtrack_amplitude_m(vibration) / servo.threshold_m(OpKind.WRITE)

        assert ratio(650.0) < 1.0
        assert ratio(900.0) > 1.0

    def test_drive_type_ablation_table(self):
        table = run_drive_type_ablation(frequencies_hz=(650.0, 1700.0))
        rendered = table.render()
        assert "laptop" in rendered
        assert "enterprise" in rendered
        rows = {row[0]: [float(c) for c in row[1:]] for row in table.rows}
        laptop_650 = rows["2.5in laptop 320GB"][0]
        enterprise_650 = rows["enterprise 10k 600GB"][0]
        assert laptop_650 > enterprise_650
