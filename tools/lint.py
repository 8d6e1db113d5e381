#!/usr/bin/env python
"""Lint the codebase: a generic checker plus the repo-specific deepcheck.

Stage 1 (generic) tries, in order of decreasing strictness, and uses the
first available — or the one forced with ``--checker``:

1. ``ruff check`` — fast and broad;
2. ``pyflakes`` — undefined names, unused imports;
3. ``compileall`` — bare syntax check, always available.

Stage 2 runs ``deepcheck`` (tools/deepcheck), the AST-based invariant
linter enforcing determinism, clock, RNG, and telemetry discipline (see
docs/STATIC_ANALYSIS.md).  Skip it with ``--no-deepcheck``.

Stage 3 enforces docstrings on the simulation-engine surface: every
public module, class, and function under ``src/repro/sim/``,
``src/repro/hdd/`` and ``src/repro/storage/kv/``, and in
``src/repro/core/fleet.py``, ``src/repro/workloads/fio.py`` and
``src/repro/workloads/db_bench.py``, must carry one (these modules
document a determinism-and-units contract per docs/SIMULATION.md — the
drive's one command path and its closed form, and the KV store's hot
point-lookup path, among them — so an undocumented public name there
is a contract hole, not a style nit).  Skip it with ``--no-docstrings``.

The selected checker and its version are printed to stderr so CI logs
are unambiguous about what actually gated.  Exit status is the worst of
all stages.
"""

from __future__ import annotations

import argparse
import ast
import compileall
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ["src", "tests", "tools", "examples"]

#: Packages whose public surface must be fully docstring-covered.  These
#: are the modules that carry the simulation determinism/units contract;
#: see docs/SIMULATION.md and docs/FLEET.md.
DOCSTRING_SCOPE = [
    Path("src") / "repro" / "sim",
    Path("src") / "repro" / "hdd",
    Path("src") / "repro" / "storage" / "kv",
    Path("src") / "repro" / "core" / "fleet.py",
    Path("src") / "repro" / "workloads" / "fio.py",
    Path("src") / "repro" / "workloads" / "db_bench.py",
    Path("src") / "repro" / "obs" / "trace.py",
    Path("src") / "repro" / "obs" / "exporters.py",
]

#: Deepcheck's rule-violation corpus is linted by deepcheck's own
#: self-test, not by the generic checkers (its snippets intentionally
#: contain code a strict linter may dislike).
GENERIC_EXCLUDE = Path("tools") / "deepcheck" / "corpus"


def _existing_targets() -> list[str]:
    return [t for t in TARGETS if (ROOT / t).is_dir()]


def _run(argv: list[str]) -> int:
    print("+", " ".join(argv), file=sys.stderr)
    return subprocess.run(argv, cwd=ROOT).returncode


def _dist_version(name: str) -> str:
    try:
        from importlib.metadata import version

        return version(name)
    except Exception:
        return "unknown version"


def _announce(checker: str, version: str) -> None:
    print(f"lint: generic checker = {checker} ({version})", file=sys.stderr)


def _python_files(targets: list[str]) -> list[str]:
    """Every .py path under the targets, minus the deepcheck corpus."""
    files: list[str] = []
    for target in targets:
        for path in sorted((ROOT / target).rglob("*.py")):
            rel = path.relative_to(ROOT)
            if GENERIC_EXCLUDE in rel.parents:
                continue
            files.append(str(rel))
    return files


def _pick_checker(requested: str) -> str:
    if requested != "auto":
        return requested
    if importlib.util.find_spec("ruff") is not None:
        return "ruff"
    if importlib.util.find_spec("pyflakes") is not None:
        return "pyflakes"
    return "compileall"


def run_generic(checker: str) -> int:
    targets = _existing_targets()
    if checker == "none":
        print("lint: generic checker skipped (--checker none)", file=sys.stderr)
        return 0
    if checker == "ruff":
        if importlib.util.find_spec("ruff") is None:
            print("lint: ruff requested but not installed", file=sys.stderr)
            return 2
        _announce("ruff", _dist_version("ruff"))
        return _run(
            [
                sys.executable,
                "-m",
                "ruff",
                "check",
                "--exclude",
                str(GENERIC_EXCLUDE),
                *targets,
            ]
        )
    if checker == "pyflakes":
        if importlib.util.find_spec("pyflakes") is None:
            print("lint: pyflakes requested but not installed", file=sys.stderr)
            return 2
        _announce("pyflakes", _dist_version("pyflakes"))
        return _run([sys.executable, "-m", "pyflakes", *_python_files(targets)])
    if checker == "compileall":
        _announce("compileall", f"python {sys.version.split()[0]}")
        ok = all(
            compileall.compile_dir(str(ROOT / t), quiet=1, force=True)
            for t in targets
        )
        return 0 if ok else 1
    print(f"lint: unknown checker {checker!r}", file=sys.stderr)
    return 2


def _docstring_scope_files() -> list[Path]:
    files: list[Path] = []
    for entry in DOCSTRING_SCOPE:
        path = ROOT / entry
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
    return files


def _missing_docstrings(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, description) for every undocumented public def/class/module.

    A name is public when neither it nor any enclosing class is
    underscore-prefixed; dunders other than the module itself are
    treated as private (their contract is the protocol they implement).
    """
    missing: list[tuple[int, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "module"))

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if not isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if child.name.startswith("_"):
                continue
            qualname = f"{prefix}{child.name}"
            kind = "class" if isinstance(child, ast.ClassDef) else "function"
            if ast.get_docstring(child) is None:
                missing.append((child.lineno, f"{kind} {qualname}"))
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}.")

    visit(tree, "")
    return sorted(missing)


def run_docstrings() -> int:
    files = _docstring_scope_files()
    print(
        f"lint: docstring coverage over {len(files)} simulation-engine files",
        file=sys.stderr,
    )
    status = 0
    for path in files:
        rel = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
        for lineno, what in _missing_docstrings(tree):
            print(f"{rel}:{lineno}: missing docstring on public {what}")
            status = 1
    return status


def run_deepcheck() -> int:
    sys.path.insert(0, str(ROOT / "tools"))
    from deepcheck import __version__ as deepcheck_version
    from deepcheck.cli import main as deepcheck_main

    print(f"lint: repo checker = deepcheck ({deepcheck_version})", file=sys.stderr)
    return deepcheck_main([])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checker",
        choices=("auto", "ruff", "pyflakes", "compileall", "none"),
        default="auto",
        help="generic checker to use (default: best available)",
    )
    parser.add_argument(
        "--no-deepcheck",
        action="store_true",
        help="skip the repo-specific invariant linter",
    )
    parser.add_argument(
        "--no-docstrings",
        action="store_true",
        help="skip the simulation-engine docstring coverage check",
    )
    args = parser.parse_args(argv)

    generic_status = run_generic(_pick_checker(args.checker))
    docstring_status = 0 if args.no_docstrings else run_docstrings()
    deepcheck_status = 0 if args.no_deepcheck else run_deepcheck()
    return max(generic_status, docstring_status, deepcheck_status)


if __name__ == "__main__":
    sys.exit(main())
