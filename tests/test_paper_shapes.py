"""Acceptance criteria: the paper's qualitative shapes must hold.

These are the integration tests of the whole reproduction — each one
asserts a claim the paper makes, or one of the ablations and extension
studies makes, against the full simulated stack.  Each runs at the
smallest scale that still shows its shape; ``tools/make_results.py``
renders the full-fidelity versions into ``results/``, and the extension
studies are imported from it, so these tests check the code that writes
those files.
"""

import pathlib
import sys

import pytest

from repro.core.attack import AttackSession
from repro.core.coupling import AttackCoupling
from repro.core.monitor import AvailabilityMonitor
from repro.core.scenario import Scenario
from repro.experiments.ablations import (
    run_defense_ablation,
    run_material_ablation,
    run_source_level_ablation,
    run_water_conditions_ablation,
)
from repro.experiments.apps import Ext4Victim, RocksDBVictim
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.paper_data import TABLE3_PAPER

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import make_results  # noqa: E402


@pytest.fixture(scope="module")
def short_sweep():
    """One sweep per scenario over a compact grid (module-scoped: slow)."""
    frequencies = [100.0, 200.0, 300.0, 400.0, 650.0, 1000.0, 1300.0, 1700.0, 2500.0, 8000.0]
    sweeps = {}
    for scenario in Scenario.all_three():
        session = AttackSession(
            coupling=AttackCoupling.paper_setup(scenario), fio_runtime_s=0.3
        )
        sweeps[scenario.name] = session.frequency_sweep(frequencies)
    return sweeps


class TestFigure2Shapes:
    def test_zero_throughput_inside_band_all_scenarios(self, short_sweep):
        # Shape 1: at 1 cm / 140 dB the band's core is a dead zone.
        for sweep in short_sweep.values():
            by_freq = {p.frequency_hz: p for p in sweep.points}
            assert by_freq[650.0].write_mbps < 1.0
            assert by_freq[1000.0].write_mbps < 1.0

    def test_no_effect_well_outside_band(self, short_sweep):
        for sweep in short_sweep.values():
            by_freq = {p.frequency_hz: p for p in sweep.points}
            assert by_freq[100.0].write_mbps > 20.0
            assert by_freq[8000.0].write_mbps > 20.0
            assert by_freq[100.0].read_mbps > 17.0

    def test_band_starts_near_300hz(self, short_sweep):
        for sweep in short_sweep.values():
            band = sweep.vulnerable_band(0.5, "write")
            assert band is not None
            assert band[0] <= 400.0
            by_freq = {p.frequency_hz: p for p in sweep.points}
            assert by_freq[200.0].write_mbps > 15.0

    def test_metal_band_narrower_than_plastic_at_top(self, short_sweep):
        plastic = short_sweep["Scenario 2"].vulnerable_band(0.5, "write")
        metal = short_sweep["Scenario 3"].vulnerable_band(0.5, "write")
        assert metal[1] < plastic[1]

    def test_metal_read_band_narrower_than_its_write_band(self, short_sweep):
        metal = short_sweep["Scenario 3"]
        write_band = metal.vulnerable_band(0.5, "write")
        read_band = metal.vulnerable_band(0.5, "read")
        assert read_band[1] <= write_band[1]

    def test_writes_always_hurt_at_least_as_much_as_reads(self, short_sweep):
        for sweep in short_sweep.values():
            for point in sweep.points:
                write_loss = 1.0 - point.write_mbps / sweep.baseline_write_mbps
                read_loss = 1.0 - point.read_mbps / sweep.baseline_read_mbps
                assert write_loss >= read_loss - 0.1

    def test_write_dead_zone_at_least_as_wide_as_read(self, short_sweep):
        for sweep in short_sweep.values():
            write_dead = sum(1 for p in sweep.points if p.write_mbps < 1.0)
            read_dead = sum(1 for p in sweep.points if p.read_mbps < 1.0)
            assert write_dead >= read_dead

    def test_reads_dead_at_650hz_all_scenarios(self, short_sweep):
        # Figure 2b: the read panel shares the dead core of the band.
        for sweep in short_sweep.values():
            by_freq = {p.frequency_hz: p for p in sweep.points}
            assert by_freq[650.0].read_mbps < 2.0

    def test_band_closed_by_2500hz(self, short_sweep):
        for sweep in short_sweep.values():
            by_freq = {p.frequency_hz: p for p in sweep.points}
            assert by_freq[2500.0].write_mbps > 20.0
            assert by_freq[2500.0].read_mbps > 17.0


class TestTable1Shapes:
    @pytest.fixture(scope="class")
    def table1(self):
        return run_table1(fio_runtime_s=0.5)

    def test_baseline_matches_paper(self, table1):
        base = table1.range_test.baseline
        assert base.read.throughput_mbps == pytest.approx(18.0, abs=0.4)
        assert base.write.throughput_mbps == pytest.approx(22.7, abs=0.4)

    def test_no_response_at_1_and_5_cm(self, table1):
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        for cm in (1, 5):
            assert not points[cm].read.responded
            assert not points[cm].write.responded

    def test_partial_at_10cm_writes_worse_than_reads(self, table1):
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        ten = points[10]
        assert ten.write.throughput_mbps < 1.0
        assert 8.0 < ten.read.throughput_mbps < 18.0

    def test_write_only_loss_at_15cm(self, table1):
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        fifteen = points[15]
        assert fifteen.write.throughput_mbps < 8.0
        assert fifteen.read.throughput_mbps > 16.0

    def test_recovered_by_20_25cm(self, table1):
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        for cm in (20, 25):
            assert points[cm].write.throughput_mbps > 19.0
            assert points[cm].read.throughput_mbps > 17.0

    def test_latency_dash_in_no_response_regime(self, table1):
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        assert points[1].write.avg_latency_ms is None
        assert points[25].write.avg_latency_ms == pytest.approx(0.2, abs=0.1)

    def test_latency_inflated_at_15cm_healthy_at_25cm(self, table1):
        # Paper: 4.0 ms write latency at 15 cm, ~0.2 ms once out of range.
        points = {round(p.distance_m * 100): p for p in table1.range_test.points}
        assert points[15].write.avg_latency_ms > 0.5
        assert points[25].read.avg_latency_ms == pytest.approx(0.2, abs=0.1)


class TestTable2Shapes:
    """RocksDB's dead zone reaches farther than raw FIO's: the writer's
    blocked WAL sync stalls the whole readwhilewriting pipeline."""

    @pytest.fixture(scope="class")
    def table2(self):
        # At 0.1 s no point shows the attack yet; 0.2 s shows all of it.
        return run_table2(duration_s=0.2, seed=42)

    @staticmethod
    def by_cm(table2):
        return {round(d * 100): r for d, r in table2.points}

    def test_baseline_in_paper_regime(self, table2):
        assert table2.baseline.ops_per_second == pytest.approx(110_000, rel=0.25)
        assert table2.baseline.throughput_mbps == pytest.approx(8.7, rel=0.25)

    def test_dead_through_10cm(self, table2):
        points = self.by_cm(table2)
        for cm in (1, 5, 10):
            assert points[cm].throughput_mbps < 0.5
            assert points[cm].ops_per_second < 0.05 * table2.baseline.ops_per_second

    def test_partial_at_15cm(self, table2):
        partial = self.by_cm(table2)[15].throughput_mbps
        baseline = table2.baseline.throughput_mbps
        assert 0.1 * baseline < partial < 0.9 * baseline

    def test_recovered_by_20_25cm(self, table2):
        points = self.by_cm(table2)
        for cm in (20, 25):
            assert points[cm].throughput_mbps == pytest.approx(
                table2.baseline.throughput_mbps, rel=0.12
            )

    def test_dead_zone_wider_than_fio_reads(self, table2):
        # Table 1 at the same seed: at 10 cm FIO reads still move data
        # (paper: 12.6 MB/s) while RocksDB serves nothing.
        table1 = run_table1(distances_m=(0.10,), fio_runtime_s=0.5, seed=42)
        assert table1.range_test.points[0].read.throughput_mbps > 8.0
        assert self.by_cm(table2)[10].throughput_mbps < 0.5


class TestTable3Shapes:
    @pytest.fixture(scope="class")
    def table3(self):
        return run_table3(deadline_s=200.0)

    def test_all_three_victims_crash(self, table3):
        assert all(report is not None for report in table3.reports.values())

    def test_crash_times_near_80s(self, table3):
        for name, report in table3.reports.items():
            paper = TABLE3_PAPER[name]
            assert report.time_to_crash_s == pytest.approx(paper, abs=5.0)

    def test_crash_ordering_matches_paper(self, table3):
        times = {n: r.time_to_crash_s for n, r in table3.reports.items()}
        assert times["Ext4"] <= times["Ubuntu"] <= times["RocksDB"]

    def test_error_signatures(self, table3):
        assert "error -5" in table3.reports["Ext4"].error_output
        assert "Kernel panic" in table3.reports["Ubuntu"].error_output
        assert "sync_without_flush" in table3.reports["RocksDB"].error_output

    def test_average_near_paper(self, table3):
        assert table3.average_time_to_crash_s() == pytest.approx(80.8, abs=3.0)

    def test_render_includes_rows(self, table3):
        rendered = table3.render()
        for name in ("Ext4", "Ubuntu", "RocksDB"):
            assert name in rendered

    def test_victims_survive_a_quiet_tank(self):
        # The control: 8 s covers the RocksDB victim's first WAL sync
        # (~6.3 s in) and Ext4's first journal commit (5 s in).
        for factory in (Ext4Victim, RocksDBVictim):
            victim = factory()
            monitor = AvailabilityMonitor(victim.drive.clock)
            assert monitor.watch(victim, deadline_s=8.0) is None, factory.name


def _range_m(cell: str) -> float:
    """A source-level table's range cell as metres (0 if ineffective)."""
    if cell.startswith(">"):
        return float(cell[1:])
    return 0.0 if cell.startswith("0 ") else float(cell)


class TestAblationShapes:
    """The Section 5 design-space tables, at the defaults
    ``tools/make_results.py`` renders."""

    def test_container_material(self):
        table = run_material_ablation()
        column = {header: i for i, header in enumerate(table.columns)}
        rows = {row[0]: row for row in table.rows}
        # Every material still lets the 650 Hz tone through at 1 cm...
        for name, row in rows.items():
            assert float(row[column["650 Hz"]]) > 1.0, name
        # ...but stiff metals attenuate the high end more than plastic.
        plastic = float(rows["hard plastic"][column["1700 Hz"]])
        for metal in ("aluminum", "steel", "titanium"):
            assert float(rows[metal][column["1700 Hz"]]) < plastic, metal

    def test_range_grows_tenfold_per_20db(self):
        ranges = {
            float(level): _range_m(cell) for level, cell in run_source_level_ablation().rows
        }
        assert list(ranges.values()) == sorted(ranges.values())
        pairs = [
            (ranges[level], ranges[level + 20.0])
            for level in ranges
            if level + 20.0 in ranges and 0.01 < ranges[level] and ranges[level + 20.0] < 90_000
        ]
        assert len(pairs) >= 3
        for small, big in pairs:
            assert big / small == pytest.approx(10.0, rel=0.35)

    def test_water_conditions(self):
        rows = {row[0]: row[1:] for row in run_water_conditions_ablation().rows}
        # The warm shallow sea is the fastest medium of the set...
        speeds = {name: float(cells[0]) for name, cells in rows.items()}
        assert speeds.pop("warm shallow sea") > max(speeds.values())
        # ...and fresh water absorbs less at 500 Hz than any sea site.
        absorption = {name: float(cells[1]) for name, cells in rows.items()}
        assert absorption.pop("lab tank (fresh, 21 C)") < min(absorption.values())

    def test_defense_trade_offs(self):
        rows = {row[0]: row[1:] for row in run_defense_ablation().rows}
        thin = rows["absorbent coating (2 cm foam)"]
        thick = rows["absorbent coating (5 cm foam)"]
        # Thicker foam: more insertion loss, and more thermal cost.
        assert float(thick[0]) > float(thin[0])
        assert float(thick[3]) > float(thin[3])
        # The firmware filter costs no cooling.
        assert float(rows["firmware notch filter (x1.8 corner)"][3]) == 0.0


class TestExtensionShapes:
    """The extension studies ``tools/make_results.py`` writes."""

    def test_rack_coverage_shrinks_with_distance(self):
        rows = make_results.rack_coverage()
        by_cm = {cm: (disabled, stalled) for cm, disabled, stalled in rows}
        assert by_cm[1] == (5, 5)  # the whole tower down at 1 cm
        assert by_cm[25] == (0, 0)  # untouched at 25 cm
        coverage = [disabled for _, disabled, _ in rows]
        assert coverage == sorted(coverage, reverse=True)

    @pytest.mark.slow
    def test_read_only_ycsb_mix_survives_attack(self):
        retained = {name: kept for name, (_, _, kept) in make_results.ycsb_mixes().items()}
        assert retained["C"] > 0.5
        assert retained["A"] < retained["C"]
        assert retained["F"] < retained["C"]

    def test_attack_heard_beyond_ten_attack_radii(self):
        # The tone works inside ~0.25 m; a hydrophone hears it from
        # metres away at every site, farther where the sea is quieter.
        ranges = make_results.detection_ranges()
        assert min(ranges.values()) > 10 * 0.25
        assert ranges["quiet site"] > ranges["average"] > ranges["busy harbor"]
