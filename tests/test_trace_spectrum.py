"""I/O trace capture/replay."""

import pytest

from repro.core.attacker import AttackConfig
from repro.errors import ConfigurationError
from repro.hdd.servo import OpKind
from repro.workloads.trace import (
    IOTrace,
    TraceRecord,
    TraceReplayer,
    synthesize_trace,
)


class TestTraceFormat:
    def test_record_roundtrip(self):
        record = TraceRecord(1.25, OpKind.WRITE, 4096, 8)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_trace_dumps_loads(self):
        trace = synthesize_trace(duration_s=0.05, iops=1000.0)
        clone = IOTrace.loads(trace.dumps())
        assert clone.records == trace.records

    def test_loads_skips_comments_and_blanks(self):
        text = "# a comment\n\n0.0 read 0 8\n0.001 write 8 8\n"
        trace = IOTrace.loads(text)
        assert len(trace) == 2
        assert trace.records[1].op is OpKind.WRITE

    def test_time_ordering_enforced(self):
        trace = IOTrace()
        trace.append(TraceRecord(1.0, OpKind.READ, 0, 8))
        with pytest.raises(ConfigurationError):
            trace.append(TraceRecord(0.5, OpKind.READ, 8, 8))

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceRecord.from_line("not a trace line")

    def test_synthesize_respects_mix(self):
        trace = synthesize_trace(duration_s=0.2, iops=5000.0, write_fraction=1.0)
        assert all(r.op is OpKind.WRITE for r in trace.records)
        trace = synthesize_trace(duration_s=0.2, iops=5000.0, write_fraction=0.0)
        assert all(r.op is OpKind.READ for r in trace.records)

    def test_bytes_requested(self):
        trace = IOTrace([TraceRecord(0.0, OpKind.READ, 0, 8)])
        assert trace.bytes_requested() == 4096


class TestTraceReplay:
    def test_replay_completes_everything_on_quiet_drive(self, drive):
        trace = synthesize_trace(duration_s=0.2, iops=2000.0)
        result = TraceReplayer(drive).replay(trace)
        assert result.completed == len(trace)
        assert result.errors == 0 and result.timeouts == 0
        assert result.completion_fraction == 1.0

    def test_replay_honours_issue_times(self, drive):
        trace = IOTrace(
            [
                TraceRecord(0.0, OpKind.READ, 0, 8),
                TraceRecord(0.5, OpKind.READ, 8, 8),
            ]
        )
        result = TraceReplayer(drive).replay(trace)
        assert result.elapsed_s >= 0.5

    def test_replay_under_attack_loses_requests(self, drive, coupling):
        trace = synthesize_trace(duration_s=0.2, iops=1000.0, write_fraction=1.0)
        coupling.apply(drive, AttackConfig.paper_best())
        result = TraceReplayer(drive).replay(trace)
        assert result.completed == 0
        assert result.timeouts >= 1
        assert result.completion_fraction == 0.0

    def test_same_trace_comparable_across_conditions(self, coupling):
        from repro.hdd.drive import HardDiskDrive
        from repro.rng import make_rng
        from repro.sim.clock import VirtualClock

        trace = synthesize_trace(duration_s=0.2, iops=2000.0, write_fraction=0.5)
        quiet_drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(1))
        quiet = TraceReplayer(quiet_drive).replay(trace)
        attacked_drive = HardDiskDrive(clock=VirtualClock(), rng=make_rng(1))
        coupling.apply(attacked_drive, AttackConfig(650.0, 140.0, 0.12))
        attacked = TraceReplayer(attacked_drive).replay(trace)
        assert attacked.throughput_mbps < quiet.throughput_mbps
        assert attacked.total_latency_s > quiet.total_latency_s

