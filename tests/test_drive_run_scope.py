"""The drive's run scope against per-command recording.

Inside :meth:`HardDiskDrive.batched` a completed command keeps its span
row and sector count, and the kept commands reach obs in one bulk emit.
The reference is the per-command path: the same command sequence issued
one call at a time outside any scope (a FIO run whose drive opens no
scope, or the same direct calls without ``batched``).  The tracer's
spans, events and drop count and the metrics snapshot must be
identical: same rows in the same order and on the same tracks, same
counter totals, same histogram buckets and float sums.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import DriveTimeout, MediumError
from repro.hdd.controller import RetryPolicy
from repro.hdd.drive import HardDiskDrive
from repro.hdd.servo import OpKind, VibrationInput
from repro.rng import make_rng
from repro.sim.clock import VirtualClock
from repro.workloads.fio import FioJob, FioTester, IOMode

#: Per-attempt success ~0.48 for writes and ~0.68 for reads at 650 Hz:
#: commands retry, and with a two-attempt budget some end in a medium
#: error.
DEGRADE = {
    IOMode.SEQ_WRITE: VibrationInput(frequency_hz=650.0, displacement_m=3.2e-8),
    IOMode.SEQ_READ: VibrationInput(frequency_hz=650.0, displacement_m=6e-8),
}
#: Past the servo limit: no command completes before the host timeout.
STALL = VibrationInput(frequency_hz=650.0, displacement_m=1e-6)


def _healthy(drive: HardDiskDrive, mode: IOMode) -> None:
    drive.set_vibration(None)


def _degraded(drive: HardDiskDrive, mode: IOMode) -> None:
    drive.controller.retry_policy = RetryPolicy(max_attempts=2)
    drive.set_vibration(DEGRADE[mode])


def _stalled(drive: HardDiskDrive, mode: IOMode) -> None:
    # Healthy for 20 ms, then stalled: completions, then a timeout.
    drive.set_vibration_schedule(lambda t: STALL if t >= 0.02 else None)


def _observed(tel: obs.Telemetry) -> tuple:
    tracer = tel.tracer
    return tracer._spans, tracer._events, tracer.dropped, tel.metrics.snapshot()


def _fio_telemetry(point, mode: IOMode, tracer_kwargs: dict, batched: bool):
    """Telemetry of one traced FIO job on a fresh rig at ``point``."""
    with obs.session(obs.Telemetry(tracer=obs.Tracer(**tracer_kwargs))) as tel:
        drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(11), store_data=False)
        if not batched:
            drive.batched = lambda op: contextlib.nullcontext()
        tester = FioTester(drive, rng=make_rng(12))
        point(drive, mode)
        with tel.tracer.track("point"):
            tester.run(FioJob(mode=mode, runtime_s=0.2))
    return _observed(tel), drive.stats


@pytest.mark.parametrize("mode", [IOMode.SEQ_WRITE, IOMode.SEQ_READ], ids=["write", "read"])
@pytest.mark.parametrize(
    "point", [_healthy, _degraded, _stalled], ids=["healthy", "degraded", "stalled"]
)
@pytest.mark.parametrize(
    "tracer_kwargs",
    [{}, {"max_records": 10}, {"detail": "attempts"}],
    ids=["commands", "max-records-hit", "attempts"],
)
def test_fio_run_emits_what_per_command_recording_does(point, mode, tracer_kwargs):
    batched, stats = _fio_telemetry(point, mode, tracer_kwargs, batched=True)
    reference, reference_stats = _fio_telemetry(point, mode, tracer_kwargs, batched=False)
    assert batched == reference
    assert stats == reference_stats
    spans, _, dropped, _ = batched
    # Each point exercised what it is named for.
    completed = stats.reads + stats.writes
    assert completed > 0
    if point is _degraded:
        assert stats.retries > 0 and stats.medium_errors > 0
    if point is _stalled:
        assert stats.timeouts == 1
    if "max_records" in tracer_kwargs:
        assert dropped > 0 and len(spans) == tracer_kwargs["max_records"]


#: One step of a direct command script: enter or leave a track, issue a
#: read or write (of 8 or 3000 sectors, so some cross a track), or issue
#: one under a stall (a timeout).
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("enter"), st.sampled_from(["a", "b"])),
        st.just(("exit",)),
        st.tuples(
            st.sampled_from(["write", "read", "stalled-write"]),
            st.integers(0, 50),
            st.sampled_from([8, 3000]),
        ),
    ),
    max_size=30,
)


def _run_script(steps, scoped: bool, max_records: int) -> tuple:
    with obs.session(obs.Telemetry(tracer=obs.Tracer(max_records))) as tel:
        drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(5), store_data=False)
    tracer = tel.tracer
    with contextlib.ExitStack() as tracks:
        with drive.batched(OpKind.WRITE) if scoped else contextlib.nullcontext():
            for step in steps:
                if step[0] == "enter":
                    tracks.enter_context(tracer.track(step[1]))
                elif step[0] == "exit":
                    tracks.close()
                else:
                    kind, block, sectors = step
                    lba = block * 1000
                    drive.set_vibration(STALL if kind == "stalled-write" else None)
                    try:
                        if kind == "read":
                            drive.read(lba, sectors)
                        else:
                            drive.write(lba, sectors)
                    except (DriveTimeout, MediumError):
                        pass
    return _observed(tel)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(steps=_STEPS, max_records=st.sampled_from([1_000_000, 5]))
def test_direct_commands_keep_their_order_and_tracks(steps, max_records):
    # Each kept span's track is the tracer's track when its command
    # completed; reads (the other op) and timeouts are recorded on their
    # own, after the writes kept before them.
    assert _run_script(steps, True, max_records) == _run_script(steps, False, max_records)
