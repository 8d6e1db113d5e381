"""Artifact flags at the CLI boundary.

``--trace``, ``--metrics-out``, ``--series-out``, ``--dashboard-out``,
``--incident-out`` and ``report --output`` share one policy: the parent
directory is made before the command runs, and a path that cannot be
written is a one-line ``ConfigurationError`` (exit 2) instead of a
traceback after the run.  ``--journal`` and ``--cache-dir`` fail the
same way when the runner opens them.  The ``--trace`` path streams
from the tracer's buffers and never builds a span view.
"""

from __future__ import annotations

import gc
import warnings
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import trace as obs_trace

RACK = ["rack", "--bays", "1"]
YCSB = ["ycsb", "--warmup", "1", "--attack", "1.5", "--recovery", "1", "--records", "150"]
FIGURE2 = ["figure2", "--runtime", "0.1"]


@pytest.mark.parametrize(
    "flag", ["--trace", "--metrics-out", "--series-out", "--dashboard-out"]
)
def test_missing_parent_directory_is_created(tmp_path, capsys, flag):
    path = tmp_path / "new" / "dir" / "artifact"
    assert main(RACK + [flag, str(path)]) == 0
    assert path.is_file()


@pytest.mark.parametrize(
    "argv",
    [
        RACK + ["--trace"],
        RACK + ["--metrics-out"],
        RACK + ["--series-out"],
        RACK + ["--dashboard-out"],
        ["table3", "--incident-out"],
        ["report", "--output"],
        FIGURE2 + ["--journal"],
    ],
    ids=lambda argv: argv[-1],
)
def test_parent_that_is_a_file_exits_2_before_the_run(tmp_path, capsys, argv):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(argv + [str(blocker / "artifact")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("deepnote: ConfigurationError: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [["report", "--output"], FIGURE2 + ["--journal"], FIGURE2 + ["--cache-dir"]],
    ids=lambda argv: argv[-1],
)
def test_path_the_os_refuses_exits_2_before_the_run(tmp_path, capsys, argv):
    # A directory name longer than any filesystem's 255-byte limit.
    refused = tmp_path / ("x" * 300) / "artifact"
    assert main(argv + [str(refused)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("deepnote: ConfigurationError: ")


def test_report_default_output_is_outside_results():
    # results/REPORT.md is the committed full-fidelity report that
    # `make bench` writes; a plain quick `deepnote report` must not land on it.
    root = Path(__file__).resolve().parents[1]
    output = (root / build_parser().parse_args(["report"]).output).resolve()
    assert not output.is_relative_to(root / "results")


def test_artifact_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(RACK + ["--trace", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("deepnote: ConfigurationError: ")


def test_trace_flag_builds_no_span_records(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a SpanRecord view was built on the --trace path")

    # rack records no spans at all, so ycsb (7,793 spans) is the probe.
    monkeypatch.setattr(obs_trace, "SpanRecord", refuse)
    assert main(YCSB + ["--trace", str(tmp_path / "trace.json")]) == 0
    assert "(7793 spans, 2 events)" in capsys.readouterr().err


def test_journaled_command_closes_its_journal(tmp_path, capsys):
    # The handler closes the runner it builds; a journal file left open
    # would warn when the interpreter frees it.
    journal = tmp_path / "j.jsonl"
    gc.collect()  # earlier tests' garbage warns before the block, not in it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(["figure2", "--runtime", "0.05", "--journal", str(journal)]) == 0
        gc.collect()
    unclosed = [str(w.message) for w in caught if w.category is ResourceWarning]
    assert [message for message in unclosed if str(journal) in message] == []
    assert journal.read_text().endswith("\n")
