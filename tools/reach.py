#!/usr/bin/env python3
"""Reachability gate: every module in ``src/repro`` earns a caller.

Runs a fixed set of ``deepnote`` commands and every ``examples/*.py``
in this process under ``sys.setprofile`` and records the
``(file, qualname)`` of each ``src/repro`` function that runs.  Only
code objects flagged ``CO_OPTIMIZED`` count, so module and class
bodies executed at import do not; comprehensions do not either, since
one inside a function runs only when its function does.

A module is *reached* when one of its functions runs.  A module that
defines no function (``experiments/paper_data.py``) is reached when it
is imported.  ``__init__.py`` files are exempt.  Every campaign but one
runs at the default ``--workers 1``.  The ``--workers 2`` one reaches
the parent's side of the worker pool; its points run in worker
processes, which the profiler does not see.  Every artifact goes to a
temporary directory.

Exit status is 1 when a module is neither reached nor in
:data:`ALLOWLIST`, or when an allowlist entry is reached or no longer
exists (so the list cannot go stale); 0 otherwise.  One pass takes
about a minute, which is why tier-1 does not run it (``make reach``
and CI's ``full`` job do).

Usage:
    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import pathlib
import runpy
import sys
import tempfile
from typing import Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"

#: Modules no command reaches that stay anyway, each with its reason.
ALLOWLIST: Dict[str, str] = {
    "storage/fs/fsck.py": (
        "the invariant checker tests/test_integration_recovery.py asserts "
        "after a post-attack remount (committed data survives, fsck comes "
        "back clean)"
    ),
    "storage/faults.py": (
        "the block-device fake tests/test_fault_injection.py::"
        "TestStackUnderFaults uses to show that SSTable CRCs, RAID1 and the "
        "filesystem error path handle independent faults"
    ),
}

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def commands(tmp: pathlib.Path) -> List[List[str]]:
    """The ``deepnote`` argument vectors of one pass, artifacts in ``tmp``."""
    cache = str(tmp / "cache")
    return [
        ["all"],
        ["ablations"],
        ["predict", "--frequency", "650", "--distance", "0.05"],
        ["rack"],
        ["rack", "--bays", "5", "--sweep", "100", "4000", "1"],
        # Fleet health is tracked only under telemetry: the dashboard asks.
        [
            "fleet", "--racks", "4", "--towers", "10",
            "--dashboard-out", str(tmp / "fleet.html"),
        ],
        [
            "ycsb",
            "--slo", "p99<25ms,avail>=99.9",
            "--series-out", str(tmp / "series.jsonl"),
            "--dashboard-out", str(tmp / "dashboard.html"),
        ],
        ["smart"],
        ["report", "--output", str(tmp / "REPORT.md")],
        [
            "figure2", "--runtime", "0.2",
            "--trace", str(tmp / "figure2-trace.json"),
            "--metrics-out", str(tmp / "metrics.prom"),
        ],
        [
            "table3",
            "--trace", str(tmp / "table3-trace.json"),
            "--incident-out", str(tmp / "incident.md"),
        ],
        ["figure2", "--runtime", "0.2", "--cache-dir", cache],
        [
            "figure2", "--runtime", "0.2", "--cache-dir", cache,
            "--resume", "--max-retries", "1",
        ],
        ["figure2", "--runtime", "0.2", "--inject-faults", "3=fail"],
        ["figure2", "--runtime", "0.2", "--workers", "2"],
    ]


def record_calls(tmp: pathlib.Path) -> Set[Tuple[str, str]]:
    """``(module, qualname)`` of every ``src/repro`` function one pass runs."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.path.insert(0, str(PACKAGE.parent))
    sink = io.StringIO()
    sys.setprofile(profile)
    try:
        # Imported under the profiler: some modules run functions at import.
        from repro.cli import main

        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in commands(tmp):
                status = main(argv)
                if status != 0:
                    raise SystemExit(f"reach: deepnote {' '.join(argv)} exited {status}")
            for example in sorted(EXAMPLES.glob("*.py")):
                runpy.run_path(str(example), run_name="__main__")
    finally:
        sys.setprofile(None)

    calls = set()
    for code in codes:
        path = pathlib.Path(code.co_filename).resolve()
        if (
            code.co_flags & inspect.CO_OPTIMIZED
            and code.co_name not in _COMPREHENSIONS
            and path.is_relative_to(PACKAGE)
        ):
            module = path.relative_to(PACKAGE).as_posix()
            calls.add((module, getattr(code, "co_qualname", code.co_name)))
    return calls


def package_modules() -> Dict[str, bool]:
    """Every non-``__init__`` module of ``src/repro``: does it define a function?"""
    modules = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules[path.relative_to(PACKAGE).as_posix()] = any(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(tree)
        )
    return modules


def imported_modules() -> Set[str]:
    """Modules of ``src/repro`` that this process has imported."""
    imported = set()
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            parts = name.split(".")[1:]
            imported.add("/".join(parts) + ".py")
    return imported


def problems(
    modules: Dict[str, bool],
    called: Iterable[str],
    imported: Iterable[str],
    allowlist: Dict[str, str],
) -> List[str]:
    """One line per module that breaks the rule; empty when the gate passes.

    ``modules`` maps each module to whether it defines a function;
    ``called`` holds the modules with a function that ran and
    ``imported`` the modules that were imported.
    """
    called, imported = set(called), set(imported)
    reached = {
        module
        for module, has_functions in modules.items()
        if module in called or (not has_functions and module in imported)
    }
    lines = [
        f"{module}: unreached: no command, example or allowlist entry reaches it"
        for module in sorted(modules)
        if module not in reached and module not in allowlist
    ]
    for module in sorted(allowlist):
        if module not in modules:
            lines.append(f"{module}: stale allowlist entry: the module no longer exists")
        elif module in reached:
            lines.append(f"{module}: stale allowlist entry: a command now reaches it")
    return lines


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="deepnote-reach-") as tmp:
        calls = record_calls(pathlib.Path(tmp))
    modules = package_modules()
    called = {module for module, _qualname in calls}
    lines = problems(modules, called, imported_modules(), ALLOWLIST)
    print(
        f"reach: {len(calls)} functions ran in {len(called)} of {len(modules)} "
        f"modules; {len(ALLOWLIST)} allowlisted"
    )
    for module, reason in sorted(ALLOWLIST.items()):
        print(f"  allowlisted {module}: {reason}")
    for line in lines:
        print(f"reach: {line}", file=sys.stderr)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
