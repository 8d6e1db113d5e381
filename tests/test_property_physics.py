"""Property-based tests: physics invariants of the coupling chain."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.acoustics.absorption import absorption_ainslie_mccolm
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.medium import WaterConditions
from repro.acoustics.sound_speed import sound_speed_medwin
from repro.acoustics.spl import pressure_to_spl, spl_to_pressure
from repro.hdd.servo import OpKind, ServoSystem, VibrationInput

_settings = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

frequencies = st.floats(min_value=20.0, max_value=50_000.0)
audio_band = st.floats(min_value=50.0, max_value=16_900.0)
temperatures = st.floats(min_value=0.0, max_value=34.0)
salinities = st.floats(min_value=0.0, max_value=40.0)
depths = st.floats(min_value=0.0, max_value=900.0)
levels = st.floats(min_value=60.0, max_value=220.0)
displacements = st.floats(min_value=0.0, max_value=1e-5)


class TestAcousticInvariants:
    @given(levels)
    @_settings
    def test_spl_pressure_roundtrip(self, level):
        assert pressure_to_spl(spl_to_pressure(level)) == pytest_approx(level)

    @given(temperatures, salinities, depths)
    @_settings
    def test_sound_speed_in_physical_range(self, t, s, z):
        speed = sound_speed_medwin(t, s, z)
        assert 1350.0 < speed < 1650.0

    @given(temperatures, salinities, depths)
    @_settings
    def test_sound_speed_monotone_in_depth(self, t, s, z):
        assert sound_speed_medwin(t, s, z + 50.0) > sound_speed_medwin(t, s, z)

    @given(frequencies, temperatures, depths)
    @_settings
    def test_absorption_positive_and_rising(self, f, t, z):
        alpha = absorption_ainslie_mccolm(f, t, 35.0, z)
        alpha_double = absorption_ainslie_mccolm(2 * f, t, 35.0, z)
        assert alpha > 0.0
        assert alpha_double > alpha

    @given(
        st.floats(min_value=0.011, max_value=1000.0),
        st.floats(min_value=1.001, max_value=10.0),
        audio_band,
    )
    @_settings
    def test_transmission_loss_monotone_in_distance(self, distance, factor, f):
        model = PropagationModel(conditions=WaterConditions.tank())
        near = model.transmission_loss_db(distance, f)
        far = model.transmission_loss_db(distance * factor, f)
        assert far > near


class TestServoInvariants:
    @given(audio_band, displacements)
    @_settings
    def test_probabilities_are_probabilities(self, f, x):
        servo = ServoSystem()
        vibration = VibrationInput(f, x)
        for op in (OpKind.READ, OpKind.WRITE):
            p = servo.success_probability(op, vibration)
            assert 0.0 <= p <= 1.0

    @given(audio_band, displacements)
    @_settings
    def test_reads_never_worse_than_writes(self, f, x):
        servo = ServoSystem()
        vibration = VibrationInput(f, x)
        p_read = servo.success_probability(OpKind.READ, vibration)
        p_write = servo.success_probability(OpKind.WRITE, vibration)
        assert p_read >= p_write - 1e-9

    @given(audio_band, displacements, st.floats(min_value=1.01, max_value=10.0))
    @_settings
    def test_more_vibration_never_helps(self, f, x, factor):
        servo = ServoSystem()
        weaker = servo.success_probability(OpKind.WRITE, VibrationInput(f, x))
        stronger = servo.success_probability(OpKind.WRITE, VibrationInput(f, x * factor))
        assert stronger <= weaker + 1e-9

    @given(audio_band, displacements)
    @_settings
    def test_excursion_scales_linearly(self, f, x):
        servo = ServoSystem()
        single = servo.offtrack_amplitude_m(VibrationInput(f, x))
        double = servo.offtrack_amplitude_m(VibrationInput(f, 2 * x))
        assert double == pytest_approx(2 * single, rel=1e-9)

    @given(st.floats(min_value=20.0, max_value=20_000.0))
    @_settings
    def test_rejection_bounded(self, f):
        servo = ServoSystem()
        assert 0.0 < servo.rejection(f) <= 1.0


def pytest_approx(value, rel=1e-6):
    import pytest

    return pytest.approx(value, rel=rel)
