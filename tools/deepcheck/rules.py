"""The deepcheck rule catalog (DC01–DC09).

Every rule encodes one invariant the reproduction's headline claims
depend on, with the scope where the invariant holds.  Rules work purely
on the AST plus a small import-alias map — deepcheck never imports the
code under analysis.

Scopes
------
- *sim scope* (``src/repro/`` minus ``runtime/``): code whose outputs
  must be byte-identical run-to-run and at any worker count.
- *hot-path scope* (``core/ storage/ sim/ workloads/ acoustics/
  vibration/ hdd/ vecphys.py``): code on the per-I/O path whose
  telemetry-off behaviour must be bit-identical to the pre-telemetry
  tree.
- ``runtime/`` is the *wall-clock allowlist*: progress bars, ETAs, and
  ``--point-timeout`` preemption legitimately read real time.
"""

from __future__ import annotations

import ast
import sys
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import FileContext, Finding

SRC_PREFIX = "src/repro/"
RUNTIME_PREFIX = "src/repro/runtime/"

HOT_PATH_PREFIXES = (
    "src/repro/core/",
    "src/repro/storage/",
    "src/repro/sim/",
    "src/repro/workloads/",
    "src/repro/acoustics/",
    "src/repro/vibration/",
    "src/repro/hdd/",
)
HOT_PATH_FILES = ("src/repro/vecphys.py",)


# --------------------------------------------------------------------------
# Import-alias resolution
# --------------------------------------------------------------------------


class ImportMap:
    """Maps local names to the canonical dotted path they were bound to."""

    def __init__(self, tree: ast.Module) -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self.aliases[alias.asname] = alias.name
                    else:
                        # ``import os.path`` binds the top-level name.
                        top = alias.name.split(".", 1)[0]
                        self.aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports stay package-internal
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path for a Name/Attribute chain, if importable."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.aliases.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))


def _finding(ctx: FileContext, rule: "Rule", node: ast.AST, message: str) -> Finding:
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0) + 1
    return Finding(
        rule=rule.id,
        path=ctx.relpath,
        line=line,
        col=col,
        message=message,
        snippet=ctx.snippet(line),
    )


class Rule:
    """Base class: subclasses set ``id``/``name``/``rationale``."""

    id: str = "DC??"
    name: str = ""
    rationale: str = ""

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(SRC_PREFIX)

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError


# --------------------------------------------------------------------------
# DC01 — no wall clock in simulation code
# --------------------------------------------------------------------------

_WALL_CLOCK_NAMES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class NoWallClock(Rule):
    id = "DC01"
    name = "no-wall-clock"
    rationale = (
        "Simulation results must be a pure function of (config, seed): all "
        "durations are accounted on the virtual Clock so Figure 2 CSVs stay "
        "byte-identical at any --workers count and Table 3 runs in "
        "milliseconds.  One time.time() makes outputs machine- and "
        "load-dependent.  Progress/ETA/timeout code lives in runtime/, the "
        "wall-clock allowlist."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(SRC_PREFIX) and not relpath.startswith(
            RUNTIME_PREFIX
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module in ("time", "datetime"):
                    for alias in node.names:
                        dotted = f"{node.module}.{alias.name}"
                        if dotted in _WALL_CLOCK_NAMES or any(
                            banned.startswith(dotted + ".")
                            for banned in _WALL_CLOCK_NAMES
                        ):
                            yield _finding(
                                ctx,
                                self,
                                node,
                                f"wall-clock import `{dotted}` in simulation "
                                "code — use the virtual clock "
                                "(repro.sim.clock.VirtualClock) or move the "
                                "code under runtime/",
                            )
                continue
            if not isinstance(node, ast.Attribute):
                continue
            resolved = imports.resolve(node)
            if resolved in _WALL_CLOCK_NAMES:
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"wall-clock read `{resolved}` in simulation code — use "
                    "the virtual clock (repro.sim.clock.VirtualClock) or "
                    "move the code under runtime/",
                )


# --------------------------------------------------------------------------
# DC02 — no unseeded / global RNG
# --------------------------------------------------------------------------


class NoUnseededRng(Rule):
    id = "DC02"
    name = "no-unseeded-rng"
    rationale = (
        "Stochastic components draw from label-forked ReproRandom streams "
        "(repro.rng) passed in at construction, so results survive "
        "reordering and parallel scheduling.  Module-level random.* calls "
        "and bare random.Random() seed from OS entropy and silently break "
        "run-to-run reproducibility."
    )

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(SRC_PREFIX) and relpath != "src/repro/rng.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield _finding(
                    ctx,
                    self,
                    node,
                    "import from the global `random` module in sim code — "
                    "accept a repro.rng.ReproRandom (fork(label)) instead",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None:
                continue
            if resolved == "random.Random":
                if not node.args and not node.keywords:
                    yield _finding(
                        ctx,
                        self,
                        node,
                        "bare random.Random() seeds from OS entropy — pass "
                        "an explicit seed, or better, fork a ReproRandom",
                    )
                continue
            if resolved.startswith("random."):
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"module-level `{resolved}()` uses the shared global RNG "
                    "— draw from a label-forked ReproRandom passed in at "
                    "construction",
                )
            elif resolved.startswith("numpy.random.") or resolved == "numpy.random":
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"global numpy RNG `{resolved}` — use "
                    "numpy.random.Generator seeded from the ReproRandom "
                    "stream that owns this component",
                )


# --------------------------------------------------------------------------
# DC03 / DC06 — deterministic iteration and float merge order
# --------------------------------------------------------------------------

_FS_LISTING_CALLS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _unordered_reason(node: ast.AST, imports: ImportMap) -> Optional[str]:
    """Why iterating ``node`` yields a nondeterministic order, or None."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}() call"
        resolved = imports.resolve(func)
        if resolved in _FS_LISTING_CALLS:
            return f"`{resolved}()` (filesystem order)"
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FS_LISTING_METHODS
            and resolved is None
        ):
            return f"`.{func.attr}()` (filesystem order)"
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            if _unordered_reason(func.value, imports) is not None:
                return f"a set .{func.attr}() result"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        for side in (node.left, node.right):
            if _unordered_reason(side, imports) is not None:
                return "set algebra on unordered operands"
            if (
                isinstance(side, ast.Call)
                and isinstance(side.func, ast.Attribute)
                and side.func.attr == "keys"
            ):
                return "set algebra over .keys() views"
    return None


class DeterministicIteration(Rule):
    id = "DC03"
    name = "deterministic-iteration"
    rationale = (
        "Snapshot merges, accumulations, and anything written to output "
        "must visit elements in a defined order: set iteration order "
        "depends on hash seeding and insertion history, and directory "
        "listings follow filesystem order.  Wrap the iterable in "
        "sorted(...) before it can influence results."
    )

    _CONSUMER_CALLS = frozenset({"list", "tuple", "enumerate", "max", "min"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            iterables: List[Tuple[ast.AST, str]] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables.append((node.iter, "for-loop"))
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    iterables.append((gen.iter, "comprehension"))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._CONSUMER_CALLS
                    and node.args
                ):
                    iterables.append((node.args[0], f"{func.id}()"))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("extend", "join")
                    and node.args
                ):
                    iterables.append((node.args[0], f".{func.attr}()"))
            for expr, context in iterables:
                reason = _unordered_reason(expr, imports)
                if reason is not None:
                    yield _finding(
                        ctx,
                        self,
                        expr,
                        f"{context} iterates {reason}, whose order is "
                        "nondeterministic — wrap in sorted(...) before the "
                        "order can reach results or merges",
                    )


class FloatMergeOrder(Rule):
    id = "DC06"
    name = "float-merge-order"
    rationale = (
        "Float addition is not associative: summing an unordered "
        "collection gives hash-seed-dependent low bits, which is exactly "
        "the kind of drift the byte-identity gates exist to catch.  Sum "
        "over sorted(...) so merge results are stable."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            is_sum = isinstance(func, ast.Name) and func.id == "sum"
            resolved = imports.resolve(func)
            is_fsum = resolved in ("math.fsum", "statistics.fsum")
            if not (is_sum or is_fsum):
                continue
            arg = node.args[0]
            reason = _unordered_reason(arg, imports)
            if reason is None and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                for gen in arg.generators:
                    reason = _unordered_reason(gen.iter, imports)
                    if reason is not None:
                        break
            if reason is not None:
                label = "math.fsum" if is_fsum else "sum"
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"{label}() over {reason}: float accumulation order is "
                    "nondeterministic — sum over sorted(...) instead",
                )


# --------------------------------------------------------------------------
# DC04 — telemetry only through the installed bundle
# --------------------------------------------------------------------------


class TelemetryGuard(Rule):
    id = "DC04"
    name = "telemetry-guard"
    rationale = (
        "Hot-path components capture the installed Telemetry bundle once at "
        "construction (obs.get()) and guard every record, so telemetry-off "
        "runs are bit-identical to the pre-telemetry tree.  Constructing "
        "private Tracer/MetricsRegistry instances or installing bundles "
        "from inside a component bypasses that discipline."
    )

    _BANNED_CONSTRUCTORS = frozenset(
        {"Tracer", "MetricsRegistry", "SeriesRecorder", "Telemetry"}
    )
    _BANNED_HELPERS = frozenset({"install", "session", "tracer"})

    def applies(self, relpath: str) -> bool:
        return relpath.startswith(HOT_PATH_PREFIXES) or relpath in HOT_PATH_FILES

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = imports.resolve(node.func)
            if resolved is None or not resolved.startswith("repro.obs"):
                continue
            tail = resolved.rsplit(".", 1)[-1]
            if tail in self._BANNED_CONSTRUCTORS:
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"hot-path module constructs `{tail}` directly — "
                    "components must use the installed bundle "
                    "(obs.get(), captured at construction) so telemetry-off "
                    "stays bit-identical",
                )
            elif tail in self._BANNED_HELPERS:
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"hot-path call to `{resolved}()` — installing/iterating "
                    "telemetry sessions is the campaign driver's job; "
                    "components capture obs.get() once at construction",
                )


# --------------------------------------------------------------------------
# DC05 — use the repro.errors taxonomy
# --------------------------------------------------------------------------


class ErrorTaxonomy(Rule):
    id = "DC05"
    name = "error-taxonomy"
    rationale = (
        "Callers distinguish drive faults, filesystem aborts, and campaign "
        "failures by exception type (repro.errors): the retry policy, the "
        "degradation path, and the incident reporter all dispatch on it.  "
        "Bare builtin exceptions and assert-for-validation erase that "
        "signal (and asserts vanish under `python -O`)."
    )

    _BANNED = frozenset(
        {
            "Exception",
            "BaseException",
            "ValueError",
            "TypeError",
            "RuntimeError",
            "AssertionError",
            "OSError",
            "IOError",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield _finding(
                    ctx,
                    self,
                    node,
                    "assert used for runtime validation — raise the matching "
                    "repro.errors type instead (asserts are stripped under "
                    "python -O)",
                )
                continue
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name: Optional[str] = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self._BANNED:
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"bare `raise {name}` — use the repro.errors hierarchy "
                    "(ConfigurationError, UnitError, DriveError, ...) so "
                    "callers can dispatch on type",
                )


# --------------------------------------------------------------------------
# DC07 — unit-suffix sanity
# --------------------------------------------------------------------------

_UNIT_GROUPS: Dict[str, str] = {
    "hz": "frequency",
    "khz": "frequency",
    "db": "level",
    "dba": "level",
    "pa": "pressure",
    "upa": "pressure",
    "kpa": "pressure",
    "m": "length",
    "mm": "length",
    "cm": "length",
    "km": "length",
    "um": "length",
    "s": "time",
    "ms": "time",
    "us": "time",
    "ns": "time",
    "kg": "mass",
    "rad": "angle",
    "deg": "angle",
}


def _unit_suffix(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        ident = node.id
    elif isinstance(node, ast.Attribute):
        ident = node.attr
    else:
        return None
    if "_" not in ident:
        return None
    suffix = ident.rsplit("_", 1)[-1].lower()
    return suffix if suffix in _UNIT_GROUPS else None


class UnitSuffixSanity(Rule):
    id = "DC07"
    name = "unit-suffix-sanity"
    rationale = (
        "The package stores SI units internally and declares them in name "
        "suffixes (_hz, _db, _pa, _m, _s).  Adding or comparing two "
        "quantities whose suffixes disagree (frequency plus time, metres "
        "versus millimetres) is a unit bug the type system cannot see — "
        "convert through repro.units first."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            pairs: List[Tuple[ast.AST, ast.AST, str]] = []
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                op = "+" if isinstance(node.op, ast.Add) else "-"
                pairs.append((node.left, node.right, op))
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                for (left, right), op in zip(
                    zip(operands, operands[1:]), node.ops
                ):
                    if isinstance(
                        op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
                    ):
                        pairs.append((left, right, "comparison"))
            for left, right, op in pairs:
                left_unit = _unit_suffix(left)
                right_unit = _unit_suffix(right)
                if left_unit is None or right_unit is None:
                    continue
                if left_unit == right_unit:
                    continue
                detail = (
                    "different dimensions"
                    if _UNIT_GROUPS[left_unit] != _UNIT_GROUPS[right_unit]
                    else "different scales of the same dimension"
                )
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"arithmetic mixes `_{left_unit}` and `_{right_unit}` "
                    f"operands ({detail}, via {op}) — convert through "
                    "repro.units before combining",
                )


# --------------------------------------------------------------------------
# DC08 — no REPRO_* environment switches
# --------------------------------------------------------------------------


class NoEnvFlags(Rule):
    id = "DC08"
    name = "no-env-flags"
    rationale = (
        "The simulator has no environment switches: its input selects "
        "every code path.  A REPRO_* environment read is a hidden knob "
        "that makes one command behave differently on two machines and "
        "keeps a second path alive that no golden exercises."
    )

    _READ_FUNCS = frozenset({"os.environ.get", "os.getenv"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            flag: Optional[str] = None
            site: Optional[ast.AST] = None
            if isinstance(node, ast.Call):
                resolved = imports.resolve(node.func)
                is_env_read = resolved in self._READ_FUNCS
                is_flag_helper = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("_env_flag", "env_flag")
                )
                if (is_env_read or is_flag_helper) and node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        flag, site = arg.value, node
            elif isinstance(node, ast.Subscript):
                resolved = imports.resolve(node.value)
                if resolved == "os.environ" and isinstance(node.slice, ast.Constant):
                    if isinstance(node.slice.value, str):
                        flag, site = node.slice.value, node
            if flag is None or site is None or not flag.startswith("REPRO_"):
                continue
            yield _finding(
                ctx,
                self,
                site,
                f"env flag `{flag}` is read here — the simulator takes no "
                "REPRO_* switches; pass the choice in as an explicit "
                "parameter or delete the path it gates",
            )


# --------------------------------------------------------------------------
# DC09 — the simulator imports the standard library and itself only
# --------------------------------------------------------------------------

#: Top-level standard-library names (Python >= 3.10).  Older interpreters
#: do not publish the list, and DC09 then has nothing to check against.
_STDLIB_MODULES = getattr(sys, "stdlib_module_names", None)


def _type_checking_only(tree: ast.Module) -> Set[int]:
    """ids of the nodes under ``if TYPE_CHECKING:`` (never run)."""
    skipped: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
        if name != "TYPE_CHECKING":
            continue
        for child in node.body:
            skipped.update(id(sub) for sub in ast.walk(child))
    return skipped


class StdlibOnly(Rule):
    id = "DC09"
    name = "stdlib-only"
    rationale = (
        "The simulator runs on the standard library alone: `pip install` "
        "pulls in nothing, every process starts without loading a "
        "third-party package, and no float result depends on another "
        "library's summation order.  An import of anything but `repro` "
        "or the standard library, module-level or lazy inside a "
        "function, brings a dependency back; imports under "
        "`if TYPE_CHECKING:` never run and are allowed."
    )

    def applies(self, relpath: str) -> bool:
        return _STDLIB_MODULES is not None and relpath.startswith(SRC_PREFIX)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        skipped = _type_checking_only(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
                modules = [node.module]
            else:
                continue  # not an import, or a package-relative one
            if id(node) in skipped:
                continue
            for module in modules:
                top = module.split(".", 1)[0]
                if top == "repro" or top in _STDLIB_MODULES:
                    continue
                yield _finding(
                    ctx,
                    self,
                    node,
                    f"import of third-party `{module}` — the simulator "
                    "depends on the standard library only; write it with "
                    "the stdlib or keep it out of src/repro",
                )


ALL_RULES: Tuple[Rule, ...] = (
    NoWallClock(),
    NoUnseededRng(),
    DeterministicIteration(),
    TelemetryGuard(),
    ErrorTaxonomy(),
    FloatMergeOrder(),
    UnitSuffixSanity(),
    NoEnvFlags(),
    StdlibOnly(),
)


def rule_catalog() -> List[Dict[str, str]]:
    """Rule metadata for ``--list-rules`` and the docs-drift test."""
    return [
        {"id": rule.id, "name": rule.name, "rationale": rule.rationale}
        for rule in sorted(ALL_RULES, key=lambda r: r.id)
    ]
