"""Property test over the CLI's numeric argument space.

Every example runs ``cli.main`` in-process and must end one of two ways:

* exit 0 with no non-finite number (``nan``/``inf``) on stdout;
* exit 2, either argparse's ``SystemExit(2)`` or exactly one
  ``deepnote: <Type>: ...`` line on stderr.

Any other exception fails the test.  A non-finite value anywhere in the
input must take the second way: the CLI never runs silently on NaN.
Values mix finite ones with 0, -1, NaN and +/-inf; the finite ones are
kept small so every example runs in milliseconds, and fault injection
uses only ``fail``/``hang``, which never sleep in-process.
"""

from __future__ import annotations

import contextlib
import io
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli

SPECIAL = (math.nan, math.inf, -math.inf, -1.0, 0.0)
FAULT_SECONDS = (math.nan, math.inf, -1.0, 0.0, 0.01)

_NON_FINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
_TYPED_ERROR_LINE = re.compile(r"^deepnote: [A-Za-z]+: \S")


def _values(*finite: float):
    return st.sampled_from(SPECIAL + finite)


def _flag(name: str, value: float) -> str:
    # ``--flag=value`` keeps argparse from reading "-inf" as an option.
    return f"{name}={value!r}"


@st.composite
def _numeric(draw, command, flags, fixed=()):
    """``command`` with each of ``flags`` (name -> cheap finite values) fuzzed."""
    values = [draw(_values(*finite)) for finite in flags.values()]
    return [command, *fixed, *map(_flag, flags, values)], values


_predict = _numeric(
    "predict",
    {
        "--frequency": (100.0, 650.0, 1500.0),
        "--distance": (0.01, 0.05, 0.12),
        "--level": (120.0, 140.0),
    },
)
_table1 = _numeric("table1", {"--runtime": (0.01,)})
_table2 = _numeric("table2", {"--duration": (0.01,)})
_table3 = _numeric("table3", {"--deadline": (1.0,)})
_ycsb = _numeric(
    "ycsb",
    {
        "--warmup": (0.5, 1.0),
        "--attack": (0.5, 1.5),
        "--recovery": (0.5, 1.0),
        "--frequency": (650.0, 1200.0),
        "--level": (130.0, 140.0),
        "--distance": (0.05, 0.12),
    },
    fixed=("--records", "10"),
)
_smart = _numeric(
    "smart",
    {
        "--frequency": (650.0, 1200.0),
        "--distance": (0.05, 0.12),
        "--runtime": (0.05,),
    },
)


@st.composite
def _rack(draw):
    bays = draw(st.sampled_from((-1, 0, 1, 3)))
    values = [draw(_values(650.0, 1200.0)), draw(_values(0.01, 0.12))]
    argv = ["rack", f"--bays={bays}", *map(_flag, ("--frequency", "--distance"), values)]
    if draw(st.booleans()):
        sweep = [
            draw(_values(100.0, 300.0)),
            draw(_values(700.0, 2000.0)),
            draw(_values(50.0, 400.0)),
        ]
        argv += ["--sweep", *map(repr, sweep)]
        values += sweep
    return argv, values


@st.composite
def _attack_window(draw):
    parts = [
        draw(_values(1.0, 3.0)),
        draw(_values(1.0, 2.0)),
        draw(_values(650.0, 1200.0)),
        draw(_values(130.0, 139.0)),
        draw(_values(0.05, 0.12)),
    ]
    start, duration, freq, level, distance = map(repr, parts)
    return f"--attack={start}+{duration}@{freq}/{level}/{distance}", parts


@st.composite
def _fault_plan(draw):
    entries, values = [], []
    for ordinal in draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)):
        kind = draw(st.sampled_from(("fail", "hang")))
        seconds = draw(st.sampled_from(FAULT_SECONDS))
        entries.append(f"{ordinal}={kind}@{seconds!r}")
        values.append(seconds)
    return f"--inject-faults={','.join(entries)}", values


@st.composite
def _fleet(draw):
    values = [
        draw(_values(2.0, 6.0)),
        draw(_values(5.0, 20.0)),
        draw(_values(0.5, 2.0)),
        draw(_values(0.5, 10.0)),
        draw(_values(0.25, 1.0)),
    ]
    names = ("--duration", "--rate", "--tick", "--rebuild", "--write-frac")
    argv = ["fleet", "--racks", "1", "--towers", "1", *map(_flag, names, values)]
    if draw(st.booleans()):
        attack, parts = draw(_attack_window())
        argv.append(attack)
        values += parts
    if draw(st.booleans()):
        faults, seconds = draw(_fault_plan())
        argv.append(faults)
        values += seconds
    return argv, values


@st.composite
def _figure2(draw):
    runtime = draw(_values(0.01, 0.02))
    argv = ["figure2", _flag("--runtime", runtime)]
    values = [runtime]
    if draw(st.booleans()):
        faults, seconds = draw(_fault_plan())
        argv.append(faults)
        values += seconds
    return argv, values


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.one_of(
        _predict, _rack(), _fleet(), _figure2(),
        _table1, _table2, _table3, _ycsb, _smart,
    )
)
def test_cli_exits_cleanly_or_rejects_with_a_typed_error(case):
    argv, values = case
    code, stdout, stderr = _run(argv)
    if code == ("argparse", 2):
        return
    if code == 2:
        lines = stderr.strip().splitlines()
        assert len(lines) == 1 and _TYPED_ERROR_LINE.match(lines[0]), (argv, stderr)
        return
    assert all(math.isfinite(v) for v in values), (
        f"non-finite input ran to exit {code!r}: {argv}"
    )
    assert code == 0, (argv, code, stderr)
    assert not _NON_FINITE_TOKEN.search(stdout), (argv, stdout)
