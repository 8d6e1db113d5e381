"""Scalar <-> batched parity for :mod:`repro.vecphys` and the FIO closed form.

The contract under test is *exact* equality, never approximate: the
rack surface must reproduce the scalar chain float for float, stage by
stage, over randomized grids, all shipped drive profiles, all three
paper scenarios and three water conditions; the closed-form FIO
evaluator (:meth:`HardDiskDrive.run_sequential`) must leave the rig —
clock, stats, caches, head position, RNG stream — in the identical state
the scalar issue loop produces; and the Figure 2 CSVs must be
byte-identical with the closed form switched off.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import vecphys
from repro.acoustics.medium import WaterConditions
from repro.core.attacker import AttackConfig
from repro.core.coupling import AttackCoupling
from repro.core.environment import UnderwaterEnvironment
from repro.core.scenario import Scenario
from repro.errors import ConfigurationError, UnitError
from repro.experiments.paper_data import ATTACK_LEVEL_DB
from repro.hdd.drive import HardDiskDrive
from repro.hdd.profiles import (
    BARRACUDA_500GB,
    make_barracuda_profile,
    make_enterprise_profile,
    make_laptop_profile,
    make_ssd_like_profile,
)
from repro.hdd.servo import OpKind, VibrationInput
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.workloads.fio import FioJob, FioTester, IOMode

_settings = settings(
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
    derandomize=True,
)

#: Frequencies inside the attacker rig's reachable band (the paper grid).
band_grids = st.lists(
    st.floats(min_value=100.0, max_value=8000.0), min_size=1, max_size=40
)
#: Wider grids for the drive-side stages (no attacker in the loop).
wide_grids = st.lists(
    st.floats(min_value=1.0, max_value=50_000.0), min_size=1, max_size=40
)
displacement_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e-5), min_size=1, max_size=40
)

ALL_PROFILES = (
    make_laptop_profile(),
    make_barracuda_profile(),
    make_enterprise_profile(),
    make_ssd_like_profile(),
)

BASE = AttackConfig(frequency_hz=650.0, source_level_db=ATTACK_LEVEL_DB, distance_m=0.01)


def _surface(coupling, freqs, servo=None, base=BASE):
    """The one-bay fleet surface of ``coupling`` over ``freqs``."""
    surface = vecphys.fleet_surface([coupling], base, freqs, servo=servo)
    return surface, surface["bays"][0]


@contextmanager
def _closed_form(enabled: bool):
    """Run the block with the closed-form FIO evaluator on or off.

    Off replaces it with a stub that always declines, so the runs take
    the scalar issue loop with every other fast path unchanged.
    """
    if enabled:
        yield
        return
    with mock.patch.object(
        HardDiskDrive, "run_sequential", lambda self, *args: None
    ):
        yield


def test_public_surface_is_the_rack_kernel():
    assert vecphys.__all__ == ["fleet_surface"]


class TestKernelParity:
    """Stage-by-stage exact parity of the rack surface with the scalar chain."""

    @given(band_grids)
    @_settings
    def test_servo_chain_kernels(self, freqs):
        coupling = AttackCoupling.paper_setup()
        for profile in ALL_PROFILES:
            servo = profile.servo
            _, bay = _surface(coupling, freqs, servo=servo)
            for i, f in enumerate(freqs):
                vib = coupling.vibration_at_drive(BASE.at_frequency(f))
                assert bay["offtrack_m"][i] == servo.offtrack_amplitude_m(vib)
                assert bay["stalled"][i] == servo.is_stalled(vib)

    @given(wide_grids, displacement_lists)
    @_settings
    def test_offtrack_and_success_probability(self, freqs, disps):
        for profile in ALL_PROFILES:
            servo = profile.servo
            for f, d in zip(freqs, disps):
                vib = VibrationInput(frequency_hz=f, displacement_m=d)
                amplitude = servo.offtrack_amplitude_m(vib)
                for op in (OpKind.WRITE, OpKind.READ):
                    assert servo.success_from_amplitude(
                        op, amplitude, f
                    ) == servo.success_probability(op, vib)

    @given(band_grids)
    @_settings
    def test_enclosure_and_mount_kernels(self, freqs):
        for scenario in Scenario.all_three():
            coupling = AttackCoupling.paper_setup(scenario)
            surface, bay = _surface(coupling, freqs)
            for i, f in enumerate(freqs):
                pressure = surface["wall_pressure_pa"][i]
                assert bay["displacement_m"][i] == scenario.chassis_displacement_m(
                    pressure, f
                )

    @given(band_grids)
    @_settings
    def test_absorption_and_transmission_loss(self, freqs):
        conditions = (
            WaterConditions.tank(),  # fresh-water branch
            WaterConditions.natick_site(),
            WaterConditions.baltic_50m(),
        )
        for cond in conditions:
            coupling = AttackCoupling(
                environment=UnderwaterEnvironment.open_water(cond),
                scenario=Scenario.scenario_2(),
            )
            base = BASE.at_distance(3.5)
            surface, _ = _surface(coupling, freqs, base=base)
            for i, f in enumerate(freqs):
                assert surface["wall_pressure_pa"][i] == coupling.wall_pressure_pa(
                    base.at_frequency(f)
                )

    @given(band_grids)
    @_settings
    def test_sweep_surface_all_scenarios(self, freqs):
        servo = BARRACUDA_500GB.servo
        for scenario in Scenario.all_three():
            coupling = AttackCoupling.paper_setup(scenario)
            surface, bay = _surface(coupling, freqs, servo=servo)
            assert surface["frequency_hz"] == [float(f) for f in freqs]
            for i, f in enumerate(freqs):
                config = BASE.at_frequency(f)
                pressure = coupling.wall_pressure_pa(config)
                displacement = scenario.chassis_displacement_m(pressure, f)
                vib = VibrationInput(frequency_hz=f, displacement_m=displacement)
                assert surface["wall_pressure_pa"][i] == pressure
                assert bay["displacement_m"][i] == displacement
                assert bay["offtrack_m"][i] == servo.offtrack_amplitude_m(vib)
                assert bay["p_write"][i] == servo.success_probability(OpKind.WRITE, vib)
                assert bay["p_read"][i] == servo.success_probability(OpKind.READ, vib)
                assert bay["stalled"][i] == (
                    servo.offtrack_amplitude_m(vib) >= servo.servo_limit_m
                )

    def test_guards_match_scalar_chain(self):
        coupling = AttackCoupling.paper_setup()
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(UnitError):
                vecphys.fleet_surface([coupling], BASE, [650.0, bad])
            with pytest.raises(UnitError):
                coupling.vibration_at_drive(BASE.at_frequency(bad))
        with pytest.raises(ConfigurationError):
            vecphys.fleet_surface([], BASE, [650.0])
        metal = AttackCoupling.paper_setup(Scenario.scenario_3())
        with pytest.raises(ConfigurationError):  # bays behind different walls
            vecphys.fleet_surface([coupling, metal], BASE, [650.0])


class TestScalarEdgeFixes:
    """The numeric edges the parity sweep exposed (satellite audit)."""

    def test_nan_frequency_rejected_everywhere(self):
        from repro.acoustics.absorption import absorption_for_conditions

        servo = BARRACUDA_500GB.servo
        scenario = Scenario.scenario_2()
        for f in (math.nan, math.inf):
            with pytest.raises(UnitError):
                servo.rejection(f)
            with pytest.raises(UnitError):
                servo.hsa.response(f)
            with pytest.raises(UnitError):
                scenario.mount.transmissibility(f)
            with pytest.raises(UnitError):
                scenario.enclosure.wall.displacement_per_pascal(f)
            with pytest.raises(UnitError):
                absorption_for_conditions(f, WaterConditions.tank())
            with pytest.raises(UnitError):
                VibrationInput(frequency_hz=f, displacement_m=0.0)

    def test_nan_displacement_rejected_inf_is_a_stall(self):
        with pytest.raises(UnitError):
            VibrationInput(frequency_hz=650.0, displacement_m=math.nan)
        stall = VibrationInput(frequency_hz=650.0, displacement_m=math.inf)
        servo = BARRACUDA_500GB.servo
        assert servo.success_probability(OpKind.WRITE, stall) == 0.0

    def test_spl_edges(self):
        from repro.acoustics.spl import pressure_to_spl
        from repro.units import P_REF_WATER

        assert pressure_to_spl(P_REF_WATER) == 0.0  # exactly at reference
        with pytest.raises(UnitError):
            pressure_to_spl(math.nan)

    def test_spreading_rejects_nan_distance(self):
        from repro.acoustics.propagation import spherical_spreading_db

        with pytest.raises(UnitError):
            spherical_spreading_db(math.nan)
        with pytest.raises(UnitError):
            spherical_spreading_db(1.0, reference_m=math.nan)

    def test_modal_response_finite_at_exact_resonance(self):
        from repro.vibration.modes import ModalResponse

        hsa = ModalResponse.head_stack_assembly()
        for mode in hsa.modes:
            value = hsa.response(mode.frequency_hz)
            assert math.isfinite(value) and value > 0.0


def _rig(seed: int = 7):
    clock = VirtualClock()
    drive = HardDiskDrive(
        profile=BARRACUDA_500GB,
        clock=clock,
        rng=make_rng(seed).fork("drive"),
        store_data=False,
    )
    return drive, FioTester(drive, rng=make_rng(seed).fork("fio"))


def _rig_state(drive):
    controller = drive.controller
    return (
        drive.clock.now,
        dict(vars(drive.stats)),
        controller.commands,
        controller.current_track,
        dict(controller._service_write),
        dict(controller._service_read),
        sorted(drive._zero_blocks),
    )


def _walk_state(drive):
    """What a declined closed form must leave alone."""
    controller = drive.controller
    return (
        drive.clock.now,
        dict(vars(drive.stats)),
        controller.commands,
        controller.current_track,
    )


def _result_state(result):
    return (
        result.completed_ops,
        result.timeout_ops,
        result.error_ops,
        result.bytes_moved,
        result.total_latency_s,
        result.max_latency_s,
        result.busy_time_s,
        bytes(result.latencies_s),
    )


class TestClosedFormFio:
    """The closed-form evaluator must be rig-state identical to the
    scalar issue loop — and must only engage where it is exact."""

    def _compare(
        self, vibration=None, modes=(IOMode.SEQ_WRITE, IOMode.SEQ_READ), **job_fields
    ):
        fields = {"runtime_s": 0.35, "name": "parity", **job_fields}
        states = []
        for enabled in (True, False):
            drive, tester = _rig()
            if vibration is not None:
                drive.set_vibration(vibration)
            run_states = []
            with _closed_form(enabled):
                for mode in modes:
                    job = FioJob(mode=mode, **fields)
                    result = tester.run(job)
                    run_states.append((_result_state(result), _rig_state(drive)))
            states.append(run_states)
        assert states[0] == states[1]
        return states[0]

    def test_quiescent_back_to_back_runs_match_scalar(self):
        runs = self._compare()
        assert all(state[0][0] > 0 for state in runs)  # ops completed

    def test_degraded_point_falls_back_and_matches(self):
        degraded = VibrationInput(frequency_hz=650.0, displacement_m=3.4e-8)
        drive, tester = _rig()
        drive.set_vibration(degraded)
        assert drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 0.2) is None
        assert drive.clock.now == 0.0 and drive.stats.writes == 0
        self._compare(vibration=degraded)

    def test_stalled_point_falls_back_and_matches(self):
        stall = VibrationInput(frequency_hz=650.0, displacement_m=1e-6)
        self._compare(vibration=stall)

    def test_random_mode_matches_with_identical_draws(self):
        self._compare(modes=(IOMode.RAND_WRITE, IOMode.RAND_READ))

    def test_closed_form_makes_zero_rng_draws(self):
        from unittest import mock

        from repro.rng import ReproRandom

        draws = {"n": 0}
        original = ReproRandom.chance

        def counting(self, p):
            draws["n"] += 1
            return original(self, p)

        drive, tester = _rig()
        with mock.patch.object(ReproRandom, "chance", counting):
            result = tester.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.3))
        assert result.completed_ops > 0
        assert draws["n"] == 0  # matches the scalar p>=1 short-circuit

    def test_telemetry_session_disables_closed_form(self):
        from repro import obs

        with obs.session():
            drive, tester = _rig()
            assert drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 0.1) is None

    def test_schedule_disables_closed_form(self):
        drive, tester = _rig()
        drive.set_vibration_schedule(lambda t: None)
        assert drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 0.1) is None
        job = FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.1)
        assert tester.run(job).completed_ops > 0

    def test_stored_reads_disable_closed_form(self):
        drive = HardDiskDrive(profile=BARRACUDA_500GB, rng=make_rng(7))
        assert drive.run_sequential(OpKind.READ, 0, 8, 1000, 0.1) is None
        assert drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 0.1) is not None

    def _walk_length(self):
        drive, _ = _rig()
        return len(drive.run_sequential(OpKind.WRITE, 0, 8, 100_000, 0.35))

    def test_walk_longer_than_max_commands_declines_and_matches(self):
        count = self._walk_length()
        drive, _ = _rig()
        assert drive.run_sequential(OpKind.WRITE, 0, 8, count, 0.35) is not None
        drive, _ = _rig()
        before = _walk_state(drive)
        assert drive.run_sequential(OpKind.WRITE, 0, 8, count - 1, 0.35) is None
        assert _walk_state(drive) == before
        # A region of fewer blocks than the runtime issues: the cursor
        # wraps and seeks back, so the run goes command by command.
        runs = self._compare(region_sectors=8 * (count // 3))
        assert all(state[0][0] > count // 3 for state in runs)

    def test_runtime_inside_one_service_time_completes_one_command(self):
        drive, _ = _rig()
        latencies = drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 1e-9)
        assert len(latencies) == 1
        assert drive.controller.commands == 1 and drive.stats.writes == 1
        assert drive.clock.now == latencies[0]
        runs = self._compare(runtime_s=1e-9)
        assert all(state[0][0] == 1 for state in runs)

    def test_runtime_landing_on_a_completion_stops_there(self):
        drive, _ = _rig()
        count = len(drive.run_sequential(OpKind.WRITE, 0, 8, 1000, 0.01))
        runtime_s = drive.clock.now  # the rig starts at 0: the last completion
        drive, _ = _rig()
        assert len(drive.run_sequential(OpKind.WRITE, 0, 8, 1000, runtime_s)) == count
        self._compare(runtime_s=runtime_s)

    def test_head_stays_on_the_track_of_the_last_block(self):
        spt = BARRACUDA_500GB.geometry.sectors_per_track_at(0)
        count = self._walk_length()
        start = (count * 8 // spt + 2) * spt - count * 8  # the walk ends a track
        drive, _ = _rig()
        assert len(drive.run_sequential(OpKind.WRITE, start, 8, 100_000, 0.35)) == count
        self._compare(modes=(IOMode.SEQ_WRITE,), region_start_lba=start)

    def test_backstop_declines_and_commits_nothing(self, monkeypatch):
        from repro.hdd import controller

        count = self._walk_length()
        monkeypatch.setattr(controller, "_MAX_CLOSED_FORM_OPS", count)
        drive, _ = _rig()
        assert drive.run_sequential(OpKind.WRITE, 0, 8, 100_000, 0.35) is not None
        monkeypatch.setattr(controller, "_MAX_CLOSED_FORM_OPS", count - 1)
        drive, tester = _rig()
        before = _walk_state(drive)
        assert drive.run_sequential(OpKind.WRITE, 0, 8, 100_000, 0.35) is None
        assert _walk_state(drive) == before
        result = tester.run(FioJob(mode=IOMode.SEQ_WRITE, runtime_s=0.35))
        assert result.completed_ops == count  # issued command by command


class TestExperimentParity:
    """Whole-experiment byte identity with the closed form switched off."""

    FREQS = [300.0, 650.0, 1000.0, 2500.0]

    def test_figure2_csvs_byte_identical(self):
        from repro.experiments.figure2 import run_figure2

        def csvs():
            figure = run_figure2(frequencies_hz=self.FREQS, fio_runtime_s=0.25, seed=7)
            return figure.to_csv("write") + figure.to_csv("read")

        fast = csvs()
        with _closed_form(False):
            baseline = csvs()
        assert fast == baseline

    def test_batched_pool_map_matches_inline(self):
        from repro.runtime import SweepRunner

        from tests.test_runtime import _square

        pooled = SweepRunner(workers=2).map(_square, list(range(9)))
        inline = [_square(n) for n in range(9)]
        assert pooled == inline
