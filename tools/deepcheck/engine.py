"""The deepcheck engine: file walking, suppressions, rule dispatch.

The engine parses each file once, asks every rule whose scope covers the
file's repo-relative path for findings, then filters the result through
inline suppressions and (optionally) the checked-in baseline.

Inline suppressions
-------------------
A finding is suppressed by a comment on the offending line or on the
line directly above it::

    started = time.monotonic()  # deepcheck: ignore[DC01] progress ETA needs wall time

    # deepcheck: ignore[DC03,DC06] input list is pre-sorted by the journal
    total = sum(points)

The reason text after the bracket is mandatory — a bare ``ignore`` is
itself reported (rule ``DC00``), so every waiver carries its
justification in the diff where reviewers can see it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_SUPPRESS_RE = re.compile(
    r"#\s*deepcheck:\s*ignore\[([A-Za-z0-9_,\s]+)\]\s*(.*)$"
)

#: Rule ID reserved for problems with deepcheck directives themselves.
META_RULE_ID = "DC00"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    col: int
    message: str
    snippet: str = ""  # stripped source line, used for baseline matching

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        return f"{self.location()}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass
class Suppression:
    """A parsed ``# deepcheck: ignore[...]`` directive."""

    line: int  # line the directive appears on
    rules: Tuple[str, ...]
    reason: str

    def covers(self, finding: Finding) -> bool:
        # A directive silences findings on its own line and on the line
        # below it (comment-above style).
        if finding.line not in (self.line, self.line + 1):
            return False
        return finding.rule in self.rules


@dataclass
class FileContext:
    """Everything a rule may need about the file under analysis."""

    relpath: str
    tree: ast.Module
    lines: Sequence[str]

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def parse_suppressions(lines: Sequence[str]) -> Tuple[List[Suppression], List[Finding]]:
    """Extract directives; malformed ones become DC00 findings (path unset)."""
    directives: List[Suppression] = []
    problems: List[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            if "deepcheck:" in text and "ignore" in text:
                problems.append(
                    Finding(
                        rule=META_RULE_ID,
                        path="",
                        line=lineno,
                        col=text.index("#") + 1 if "#" in text else 1,
                        message=(
                            "unparseable deepcheck directive; expected "
                            "'# deepcheck: ignore[DCxx] <reason>'"
                        ),
                        snippet=text.strip(),
                    )
                )
            continue
        rules = tuple(
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        )
        reason = match.group(2).strip()
        if not rules or not reason:
            problems.append(
                Finding(
                    rule=META_RULE_ID,
                    path="",
                    line=lineno,
                    col=match.start() + 1,
                    message="suppression needs both rule IDs and a reason: "
                    "'# deepcheck: ignore[DCxx] <why this is safe>'",
                    snippet=text.strip(),
                )
            )
            continue
        directives.append(Suppression(line=lineno, rules=rules, reason=reason))
    return directives, problems


@dataclass
class RunResult:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    baselined: int = 0
    parse_errors: List[str] = field(default_factory=list)
    files_checked: int = 0


class Engine:
    """Runs a set of rules over a source tree rooted at ``root``."""

    def __init__(
        self,
        root: Path,
        rules: Optional[Sequence[object]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        from .rules import ALL_RULES

        self.root = Path(root)
        chosen = list(rules) if rules is not None else list(ALL_RULES)
        if select:
            wanted = {r.upper() for r in select}
            chosen = [r for r in chosen if r.id in wanted]
        if ignore:
            dropped = {r.upper() for r in ignore}
            chosen = [r for r in chosen if r.id not in dropped]
        self.rules = chosen

    # -- helpers -----------------------------------------------------------

    def _iter_files(self, targets: Sequence[str]) -> Iterable[Path]:
        seen = set()
        for target in targets:
            path = (self.root / target) if not Path(target).is_absolute() else Path(target)
            if path.is_file() and path.suffix == ".py":
                candidates = [path]
            elif path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                candidates = []
            for candidate in candidates:
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield candidate

    # -- core --------------------------------------------------------------

    def check_file(self, path: Path) -> Tuple[List[Finding], int, Optional[str]]:
        """Findings, suppressed count, and parse error (if any) for one file."""
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            return [], 0, f"{path}: unreadable: {exc}"
        try:
            relpath = path.resolve().relative_to(self.root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return self._check(source, relpath)

    def check_source(
        self, source: str, relpath: str
    ) -> Tuple[List[Finding], int, Optional[str]]:
        """Analyze in-memory ``source`` as if it lived at ``relpath``."""
        return self._check(source, relpath)

    def _check(
        self, source: str, relpath: str
    ) -> Tuple[List[Finding], int, Optional[str]]:
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [], 0, f"{relpath}:{exc.lineno}: syntax error: {exc.msg}"
        lines = source.splitlines()
        ctx = FileContext(relpath=relpath, tree=tree, lines=lines)
        raw: List[Finding] = []
        for rule in self.rules:
            if rule.applies(relpath):
                raw.extend(rule.check(ctx))
        directives, directive_problems = parse_suppressions(lines)
        for problem in directive_problems:
            raw.append(
                Finding(
                    rule=problem.rule,
                    path=relpath,
                    line=problem.line,
                    col=problem.col,
                    message=problem.message,
                    snippet=problem.snippet,
                )
            )
        kept: List[Finding] = []
        suppressed = 0
        for finding in raw:
            if finding.rule != META_RULE_ID and any(
                d.covers(finding) for d in directives
            ):
                suppressed += 1
                continue
            kept.append(finding)
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return kept, suppressed, None

    def run(self, targets: Sequence[str] = ("src",)) -> RunResult:
        result = RunResult()
        for path in self._iter_files(targets):
            findings, suppressed, error = self.check_file(path)
            result.files_checked += 1
            result.suppressed += suppressed
            if error is not None:
                result.parse_errors.append(error)
            result.findings.extend(findings)
        result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return result


def check_source(
    source: str,
    relpath: str = "src/repro/core/snippet.py",
    root: Optional[Path] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """One-shot convenience: findings for ``source`` at a virtual path.

    The default path puts the snippet in the strictest scope (sim core)
    so every rule applies — this is what the self-test corpus and the
    unit tests use.
    """
    engine = Engine(root=root if root is not None else Path("."), select=select)
    findings, _suppressed, error = engine.check_source(source, relpath)
    if error is not None:
        raise SyntaxError(error)
    return findings
