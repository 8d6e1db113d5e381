"""Artifact flags at the CLI boundary.

``--trace``, ``--metrics-out``, ``--series-out``, ``--dashboard-out``
and ``--incident-out`` share one policy: the parent directory is made
before the command runs, and a path that cannot be written is a
one-line ``ConfigurationError`` (exit 2) instead of a traceback after
the run.  The ``--trace`` path streams from the tracer's buffers and
never builds a span view.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.obs import trace as obs_trace

RACK = ["rack", "--bays", "1"]
YCSB = ["ycsb", "--warmup", "1", "--attack", "1.5", "--recovery", "1", "--records", "150"]


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
