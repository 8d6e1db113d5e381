"""Command-line front end for deepcheck.

Run from the repo root (all paths are relative to ``--root``)::

    python tools/deepcheck                  # gate src/ against the baseline
    python tools/deepcheck --format json    # machine-readable findings
    python tools/deepcheck --select DC01    # one rule only
    python tools/deepcheck --write-baseline # grandfather current findings
    python tools/deepcheck --self-test      # run the good/bad corpus

Exit status: 0 clean, 1 findings (or failed self-test), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .baseline import Baseline
from .engine import Engine
from .rules import ALL_RULES, rule_catalog

_DEFAULT_ROOT = Path(__file__).resolve().parent.parent.parent
_DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

#: Virtual location corpus snippets are analyzed at: inside the sim core,
#: where every rule's scope applies.
CORPUS_VIRTUAL_PATH = "src/repro/core/corpus_snippet.py"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepcheck",
        description="AST-based invariant linter for the Deep Note reproduction.",
    )
    parser.add_argument(
        "targets",
        nargs="*",
        default=["src"],
        help="files or directories to check, relative to --root (default: src)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=_DEFAULT_ROOT,
        help="repository root used for rule scoping (default: auto-detected)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: {_DEFAULT_BASELINE.name} beside the tool)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="report every finding, ignoring the baseline",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule IDs to run (e.g. DC01,DC03)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="check every corpus snippet triggers (or stays clean of) its rule",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary line"
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def list_rules(stream=sys.stdout) -> int:
    for meta in rule_catalog():
        stream.write(f"{meta['id']}  {meta['name']}\n")
        stream.write(f"      {meta['rationale']}\n")
    return 0


def self_test(stream=sys.stdout) -> int:
    """Run every corpus snippet; bad ones must trip their rule, good ones none.

    Corpus files are named ``dcNN_bad_*.py`` / ``dcNN_good_*.py``; the
    prefix names the rule under test.  Good snippets must be clean under
    *all* rules, so the corpus doubles as a false-positive regression net.
    """
    engine = Engine(root=_DEFAULT_ROOT)
    known_ids = {rule.id for rule in ALL_RULES}
    failures: List[str] = []
    snippets = sorted(CORPUS_DIR.glob("dc*_*.py"))
    if not snippets:
        stream.write(f"deepcheck self-test: no corpus found in {CORPUS_DIR}\n")
        return 1
    for snippet in snippets:
        rule_id = snippet.name[:4].upper()
        kind = snippet.name.split("_")[1]
        if rule_id not in known_ids or kind not in ("bad", "good"):
            failures.append(f"{snippet.name}: unrecognized corpus file name")
            continue
        findings, _suppressed, error = engine.check_source(
            snippet.read_text(encoding="utf-8"), CORPUS_VIRTUAL_PATH
        )
        if error is not None:
            failures.append(f"{snippet.name}: {error}")
            continue
        hit_ids = {finding.rule for finding in findings}
        if kind == "bad" and rule_id not in hit_ids:
            failures.append(
                f"{snippet.name}: expected a {rule_id} finding, got {sorted(hit_ids) or 'none'}"
            )
        elif kind == "good" and hit_ids:
            locations = ", ".join(f.render() for f in findings)
            failures.append(f"{snippet.name}: expected clean, got: {locations}")
    for failure in failures:
        stream.write(f"deepcheck self-test FAIL: {failure}\n")
    stream.write(
        f"deepcheck self-test: {len(snippets) - len(failures)}/{len(snippets)} "
        "corpus snippets behaved\n"
    )
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return list_rules()
    if args.self_test:
        return self_test()

    engine = Engine(
        root=args.root,
        select=_split_ids(args.select),
        ignore=_split_ids(args.ignore),
    )
    result = engine.run(args.targets)

    for error in result.parse_errors:
        print(f"deepcheck: error: {error}", file=sys.stderr)
    if result.parse_errors:
        return 2

    baseline_path = args.baseline if args.baseline is not None else _DEFAULT_BASELINE

    if args.write_baseline:
        Baseline.from_findings(
            result.findings, reason="grandfathered; justify or fix before relying on it"
        ).save(baseline_path)
        print(
            f"deepcheck: wrote {len(result.findings)} finding(s) to {baseline_path}",
            file=sys.stderr,
        )
        return 0

    stale: List[dict] = []
    baselined: List = []
    findings = result.findings
    if not args.no_baseline:
        baseline = Baseline.load(baseline_path)
        findings, baselined, stale = baseline.split(result.findings)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "files_checked": result.files_checked,
                    "findings": [f.to_json() for f in findings],
                    "baselined": len(baselined),
                    "suppressed": result.suppressed,
                    "stale_baseline_entries": stale,
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        for entry in stale:
            print(
                "deepcheck: warning: stale baseline entry "
                f"({entry.get('rule')} {entry.get('path')}: {entry.get('snippet')!r}) "
                "— the code it excused is gone; delete it",
                file=sys.stderr,
            )
        if not args.quiet:
            print(
                f"deepcheck: {len(findings)} finding(s) in "
                f"{result.files_checked} file(s) "
                f"({len(baselined)} baselined, {result.suppressed} suppressed)",
                file=sys.stderr,
            )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
