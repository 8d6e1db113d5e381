"""Experiment drivers, ablations, and the CLI."""

import re

import pytest

from repro.cli import build_parser, main
from repro.core.attack import FrequencySweepResult, SweepPoint
from repro.experiments.ablations import (
    run_defense_ablation,
    run_material_ablation,
    run_source_level_ablation,
    run_water_conditions_ablation,
)
from repro.experiments.figure2 import Figure2Result, default_frequencies, run_figure2
from repro.experiments.table2 import run_table2


class TestFigure2Driver:
    def test_small_grid_runs_and_renders(self):
        result = run_figure2(
            frequencies_hz=[300.0, 650.0, 3000.0], fio_runtime_s=0.2
        )
        assert set(result.sweeps) == {"Scenario 1", "Scenario 2", "Scenario 3"}
        rendered = result.render()
        assert "Figure 2a" in rendered and "Figure 2b" in rendered
        assert "Scenario 3" in rendered

    def test_mismatched_grids_join_on_frequency(self):
        """Regression: to_csv/render indexed points positionally into
        frequencies_hz, so a sweep on a different grid crashed or put
        every number after the mismatch on the wrong row."""

        def sweep(points):
            result = FrequencySweepResult(
                scenario_name="synthetic",
                baseline_write_mbps=20.0,
                baseline_read_mbps=20.0,
            )
            for freq, mbps in points:
                result.points.append(SweepPoint(freq, mbps, mbps))
            return result

        result = Figure2Result(frequencies_hz=[100.0, 200.0, 300.0])
        result.sweeps["Scenario 1"] = sweep([(100.0, 1.0), (200.0, 2.0), (300.0, 3.0)])
        # Different, partially overlapping grid — and fewer points.
        result.sweeps["Scenario 2"] = sweep([(200.0, 5.0), (650.0, 6.0)])

        lines = result.to_csv("write").strip().splitlines()
        assert lines[0] == "frequency_hz,Scenario_1,Scenario_2"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        # Each value sits on the row of its own frequency...
        assert rows["200.0"] == ["2.000", "5.000"]
        assert rows["650.0"] == ["", "6.000"]
        assert rows["100.0"] == ["1.000", ""]
        # ...and the union of grids is covered, sorted.
        assert list(rows) == ["100.0", "200.0", "300.0", "650.0"]

        rendered = result.render()  # must not raise IndexError
        assert "650" in rendered and "-" in rendered

    def test_default_grid_covers_paper_band(self):
        freqs = default_frequencies()
        assert freqs[0] == 100.0
        assert freqs[-1] <= 8000.0
        assert 600.0 in freqs and 700.0 in freqs  # brackets the 650 Hz tone
        assert 1300.0 in freqs

    def test_figure2_csv_export(self):
        result = run_figure2(frequencies_hz=[650.0, 3000.0], fio_runtime_s=0.2)
        csv = result.to_csv("write")
        lines = csv.strip().splitlines()
        assert lines[0].startswith("frequency_hz,")
        assert len(lines) == 3
        assert lines[1].startswith("650.0,")


class TestTable2Driver:
    def test_shape_and_render(self):
        result = run_table2(distances_m=(0.01, 0.25), duration_s=0.3)
        assert result.baseline.ops_per_second > 50_000
        near = result.points[0][1]
        far = result.points[1][1]
        assert near.throughput_mbps < 0.5
        assert far.throughput_mbps == pytest.approx(
            result.baseline.throughput_mbps, rel=0.1
        )
        rendered = result.render()
        assert "No Attack" in rendered and "25 cm" in rendered


class TestAblations:
    def test_material_ablation_rows(self):
        table = run_material_ablation(frequencies_hz=(650.0, 1700.0))
        rendered = table.render()
        assert "hard plastic" in rendered and "aluminum" in rendered
        assert "steel" in rendered

    def test_source_level_monotone_range(self):
        table = run_source_level_ablation(levels_db=(140.0, 180.0, 220.0))
        ranges = []
        for row in table.rows:
            cell = row[1]
            if cell.startswith(">"):
                ranges.append(float(cell[1:]))
            elif cell.startswith("0"):
                ranges.append(0.0)
            else:
                ranges.append(float(cell))
        assert ranges == sorted(ranges)
        assert ranges[-1] > 100 * max(ranges[0], 0.01)

    def test_water_conditions_rows(self):
        rendered = run_water_conditions_ablation().render()
        assert "Baltic" in rendered
        assert "lab tank" in rendered

    def test_defense_ablation_marks_effectiveness(self):
        rendered = run_defense_ablation().render()
        assert "absorbent coating" in rendered
        assert "vibration isolators" in rendered
        assert "firmware notch filter" in rendered


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("figure2", "table1", "table2", "table3", "ablations", "predict", "all"):
            args = parser.parse_args(
                [command] + (["--frequency", "650", "--distance", "0.01"] if command == "predict" else [])
            )
            assert args.command == command

    def test_predict_prints_ratios(self, capsys):
        code = main(["predict", "--frequency", "650", "--distance", "0.01"])
        assert code == 0
        out = capsys.readouterr().out
        assert "write ratio" in out
        assert "no response" in out

    def test_predict_out_of_band_is_harmless(self, capsys):
        main(["predict", "--frequency", "8000", "--distance", "0.25"])
        out = capsys.readouterr().out
        assert "p(write success):  1.000" in out

    def test_ablations_water(self, capsys):
        assert main(["ablations", "--which", "water"]) == 0
        assert "Baltic" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLIBoundary:
    """Invalid input exits 2 with one typed stderr line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["figure2", "--runtime", "nan"], "ConfigurationError"),
            (["predict", "--frequency", "nan", "--distance", "0.1"], "UnitError"),
            (["fleet", "--rate", "nan"], "ConfigurationError"),
            (["ycsb", "--attack", "nan"], "ConfigurationError"),
            (["table2", "--duration", "inf"], "ConfigurationError"),
        ],
        ids=["figure2-runtime", "predict-frequency", "fleet-rate", "ycsb-attack", "table2-duration"],
    )
    def test_non_finite_value_exits_2_with_typed_line(self, argv, error, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"deepnote: {error}: ")
        assert re.search(r"\b(nan|inf)\b", lines[0])

    def test_resume_mismatch_is_a_typed_line(self, tmp_path, capsys):
        journal = tmp_path / "journal.jsonl"
        journal.write_text("not a journal header\n")
        argv = ["table1", "--runtime", "0.2", "--journal", str(journal), "--resume"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("deepnote: ResumeMismatch: ")

    def test_resume_without_a_journal_is_a_typed_line(self, capsys):
        assert main(["figure2", "--runtime", "0.1", "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("deepnote: ConfigurationError: --resume needs a journal")
