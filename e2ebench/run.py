"""End-to-end benchmark of the ``deepnote`` CLI, with per-layer attribution.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --write-pins

Workloads are ``kv-readwrite``, ``kv-read``, ``traced-sweep`` and
``cli-quick`` (``workloads.py``; README.md says why each exists).  Every
command runs as a cold ``python3 -m repro.cli`` process, interpreter
start-up included, with warm bytecode caches and no result cache.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several cold imports), then timed passes until ``--seconds`` is spent
(at least two); times are medians over passes.

``--trace 1`` measures the per-layer metrics: ``-X importtime`` start-up
figures, one untraced pass, then traced passes through ``driver.py``
until ``--seconds`` is spent.  Traced output must reproduce the
untraced digests, and every wrapped function must exist and be called
on the workloads meant to exercise it.

Correctness: every command's stdout and artifact digests must repeat
exactly across the passes of a run and, at the default seed
(``repro.rng.DEFAULT_SEED``), match ``pins.json``; artifacts are checked
with ``tools/validate_trace.py``; the carried-forward goldens
(``goldens.py``) must match.  Digests are printed, so two commits can be
compared at any seed.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-pins`` re-pins the default-seed digests and counts (Table 3
from the real ``deepnote table3`` command) into ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import layers
import workloads
from workloads import DEFAULT_SEED, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".e2ebench_out"
PINS_PATH = HERE / "pins.json"
VALIDATOR = ROOT / "tools" / "validate_trace.py"

COMMAND_TIMEOUT_S = 150.0
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MIN_TIMED_PASSES = 2


#: The end-to-end metrics.  ``kv_ops_per_s``, ``drive_cmds_per_s`` and
#: ``fail_ratio`` need the traced pass's counts or can be 0, so they are
#: reported with the per-layer metrics (``layers.PER_LAYER``).
E2E_UNITS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _log(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


@dataclass
class CommandRun:
    key: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    digests: Dict[str, str]
    stats: Dict[str, List[float]] = field(default_factory=dict)
    missing: List[str] = field(default_factory=list)


@dataclass
class Pass:
    runs: List[CommandRun]

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(run.cpu_s for run in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max((run.maxrss_kb for run in self.runs), default=0) / 1024.0

    def stats(self) -> Dict[str, List[float]]:
        merged: Dict[str, List[float]] = {}
        for run in self.runs:
            layers.merge_stats(merged, run.stats)
        return merged

    def stats_of(self, key: str) -> Dict[str, List[float]]:
        return next((run.stats for run in self.runs if run.key == key), {})


class Bench:
    """One benchmark run: a workload at a seed."""

    def __init__(self, workload: Workload, seed: int, pins: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.commands = workload.commands(seed)
        self.pinned = seed == DEFAULT_SEED
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, Dict[str, str]] = {}
        self.validated: set = set()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        self.env = env

    # -- bookkeeping -------------------------------------------------------

    def tally(self, what: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                _log(f"FAIL {what}: {problem}")
        return not problems

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: List[str], stdout_path: Path, stderr_path: Path):
        """Run ``argv`` to completion; returns (exit code, wall s, rusage)."""
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            timed_out = threading.Event()

            def kill() -> None:
                timed_out.set()
                proc.kill()

            timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = "timeout" if timed_out.is_set() else proc.returncode
        return code, wall, usage

    def python(self, args: List[str], what: str) -> Optional[bytes]:
        """Run a short helper interpreter; its stdout, or None on failure."""
        OUT.mkdir(parents=True, exist_ok=True)
        code, _, _ = self.spawn(
            [sys.executable, *args], OUT / "helper.out", OUT / "helper.err"
        )
        if code != 0:
            tail = (OUT / "helper.err").read_text(errors="replace").strip()[-400:]
            self.tally(what, [f"exit {code}: {tail}"])
            return None
        return (OUT / "helper.out").read_bytes()

    def run_command(self, cmd: Command, mode: str, pass_stdout: Dict[str, str]) -> CommandRun:
        """One cold process of ``cmd``; ``mode`` is plain or trace."""
        art = OUT / "art"
        shutil.rmtree(art, ignore_errors=True)
        art.mkdir(parents=True)
        args = [arg.replace("{art}", str(art.relative_to(ROOT))) for arg in cmd.args]
        spans_path = OUT / "spans.json"
        if spans_path.exists():
            spans_path.unlink()
        if mode == "plain" and cmd.table3_seed is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "driver.py")]
            if mode != "plain":
                argv += ["--spans", str(spans_path)]
            if cmd.table3_seed is not None:
                argv += ["--table3-seed", str(cmd.table3_seed)]
            argv += ["--", *args]

        code, wall, usage = self.spawn(argv, OUT / "stdout", OUT / "stderr")
        problems: List[str] = []
        if code != 0:
            tail = (OUT / "stderr").read_text(errors="replace").strip()[-400:]
            problems.append(f"exit {code}: {tail}")
        digests = {"stdout": _sha256((OUT / "stdout").read_bytes())}
        for name in cmd.artifacts:
            path = art / name
            digests[name] = _sha256(path.read_bytes()) if path.is_file() else "missing"
        run = CommandRun(
            cmd.key, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, digests
        )
        if mode != "plain":
            if spans_path.is_file():
                recorded = json.loads(spans_path.read_text())
                run.stats = recorded["stats"]
                run.missing = recorded["missing"]
            else:
                problems.append("driver wrote no span statistics")

        if not problems:
            problems += self.check_digests(cmd, digests)
            if cmd.same_stdout_as is not None and pass_stdout.get(cmd.same_stdout_as) not in (
                None,
                digests["stdout"],
            ):
                problems.append(f"stdout differs from {cmd.same_stdout_as}")
            if cmd.key not in self.validated and cmd.artifacts:
                self.validated.add(cmd.key)
                problems += self.validate_artifacts(art, cmd.artifacts)
        pass_stdout[cmd.key] = digests["stdout"]
        self.tally(f"{cmd.key} ({mode})", problems)
        return run

    def check_digests(self, cmd: Command, digests: Dict[str, str]) -> List[str]:
        """Digests must repeat across passes and match the pins at the default seed."""
        if cmd.key not in self.reference:
            if self.pinned:
                pinned = self.pins["workloads"][self.workload.name]["commands"].get(cmd.key, {})
                self.reference[cmd.key] = dict(pinned)
            else:
                self.reference[cmd.key] = dict(digests)
        expected = self.reference[cmd.key]
        return [
            f"{name} digest {digests.get(name)} != {'pinned' if self.pinned else 'first pass'} "
            f"{expected.get(name)}"
            for name in sorted(set(expected) | set(digests))
            if digests.get(name) != expected.get(name)
        ]

    def validate_artifacts(self, art: Path, names) -> List[str]:
        problems = []
        checked = [str(art / n) for n in names if Path(n).suffix in (".json", ".jsonl", ".html")]
        if checked:
            code, _, _ = self.spawn(
                [sys.executable, str(VALIDATOR), *checked], OUT / "validate.out", OUT / "validate.err"
            )
            if code != 0:
                problems.append(
                    "validate_trace: "
                    + (OUT / "validate.out").read_text(errors="replace").strip()[-400:]
                )
        for name in names:
            if Path(name).suffix == ".prom":
                lines = (art / name).read_text().splitlines()
                samples = [line for line in lines if line and not line.startswith("#")]
                if not samples or any(len(line.rsplit(" ", 1)) != 2 for line in samples):
                    problems.append(f"{name}: malformed metrics text")
        return problems

    def run_pass(self, mode: str) -> Pass:
        pass_stdout: Dict[str, str] = {}
        return Pass([self.run_command(cmd, mode, pass_stdout) for cmd in self.commands])

    def timed_passes(self, mode: str, seconds: float, minimum: int) -> List[Pass]:
        """Passes until ``seconds`` would be overrun, at least ``minimum``."""
        passes: List[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(mode))
            elapsed = time.perf_counter() - start
            if len(passes) >= minimum and elapsed * (1 + 1 / len(passes)) > seconds:
                return passes

    # -- checks that are not workload commands ------------------------------

    def prepare(self) -> None:
        """Warm the bytecode caches and check the carried-forward goldens."""
        shutil.rmtree(OUT, ignore_errors=True)
        OUT.mkdir(parents=True)
        self.python(["-m", "compileall", "-q", str(ROOT / "src")], "compileall")
        raw = self.python([str(HERE / "goldens.py")], "goldens")
        if raw is not None:
            found = json.loads(raw)
            expected = dict(self.pins["goldens"], default_seed=DEFAULT_SEED)
            self.tally(
                "goldens",
                [
                    f"{name}: {found.get(name)} != pinned {value}"
                    for name, value in sorted(expected.items())
                    if found.get(name) != value
                ],
            )

    def check_counts(self, found: Dict[str, int], what: str) -> None:
        if self.pinned:
            pinned = self.pins["workloads"][self.workload.name]["counts"]
            self.tally(
                what,
                [
                    f"{name} {found.get(name)} != pinned {value}"
                    for name, value in sorted(pinned.items())
                    if found.get(name) != value
                ],
            )

    def import_code(self) -> str:
        return "import " + ", ".join(self.workload.imports)

    def setup_seconds(self) -> List[float]:
        times = []
        for _ in range(SETUP_REPEATS):
            code, wall, _ = self.spawn(
                [sys.executable, "-c", self.import_code()], OUT / "setup.out", OUT / "setup.err"
            )
            self.tally("setup import", [] if code == 0 else [f"exit {code}"])
            times.append(wall)
        return times

    def startup_metrics(self) -> Dict[str, float]:
        """Cumulative import times from ``-X importtime``, medians over repeats."""
        samples: Dict[str, List[float]] = {}
        for _ in range(IMPORTTIME_REPEATS):
            OUT.mkdir(parents=True, exist_ok=True)
            code, _, _ = self.spawn(
                [sys.executable, "-X", "importtime", "-c", self.import_code()],
                OUT / "importtime.out",
                OUT / "importtime.err",
            )
            self.tally("importtime", [] if code == 0 else [f"exit {code}"])
            parsed = parse_importtime((OUT / "importtime.err").read_text())
            for name, value in parsed.items():
                samples.setdefault(name, []).append(value)
        return {name: _median(values) for name, values in samples.items()}

    # -- the two kinds of run ---------------------------------------------

    def end_to_end(self, seconds: float) -> Dict[str, float]:
        """The end-to-end metrics of the result line.

        Times are per-command medians over the timed passes, summed over
        the workload's commands, so one slow command in one pass does
        not move the result.
        """
        setup = self.setup_seconds()
        passes = self.timed_passes("plain", seconds, MIN_TIMED_PASSES)
        _log(f"{len(passes)} timed passes, walls {[round(p.wall_s, 3) for p in passes]}")

        def typical(attribute: str) -> float:
            return sum(
                _median([getattr(p.runs[i], attribute) for p in passes])
                for i in range(len(self.commands))
            )

        return {
            "wall_s": typical("wall_s"),
            "setup_s": _median(setup),
            "cpu_s": typical("cpu_s"),
            "peak_rss_mb": _median([p.peak_rss_mb for p in passes]),
        }

    def per_layer(self, seconds: float) -> Dict[str, float]:
        startup = self.startup_metrics()
        start = time.perf_counter()
        untraced = self.run_pass("plain")
        remaining = seconds - (time.perf_counter() - start)
        traced = self.timed_passes("trace", remaining, 1)
        self.check_coverage(traced[0])
        per_pass = [layers.span_metrics(p.stats()) for p in traced]
        self.tally(
            "traced counts repeat",
            [
                f"{name} varies across traced passes"
                for name in sorted(layers.COUNT_METRICS & set(per_pass[0]))
                if len({metrics[name] for metrics in per_pass}) != 1
            ],
        )
        found = layers.counts(traced[0].stats())
        self.check_counts(found, "traced counts")
        metrics = {
            name: _median([m[name] for m in per_pass]) for name in per_pass[0]
        }
        metrics.update(
            {
                "startup.import_s": startup.get("total", 0.0),
                "startup.numpy_s": startup.get("numpy", 0.0),
                "startup.scipy_s": startup.get("scipy", 0.0),
                "runtime.pool_overhead_s": _median(
                    [
                        layers.sweep_seconds(p.stats_of("figure2-w2"))
                        - layers.sweep_seconds(p.stats_of("figure2"))
                        for p in traced
                    ]
                ),
                "kv_ops_per_s": found["kv_ops"] / untraced.wall_s,
                "drive_cmds_per_s": found["drive_cmds"] / untraced.wall_s,
                "bench.trace_overhead_s": _median([p.wall_s for p in traced]) - untraced.wall_s,
            }
        )
        return metrics

    def check_coverage(self, traced: Pass) -> None:
        """Every wrapped function exists and runs where it is meant to."""
        stats = traced.stats()
        problems = sorted(
            {f"wrapped function missing: {span}" for run in traced.runs for span in run.missing}
        )
        name = self.workload.name
        for target in layers.TARGETS:
            if name in target.expect and stats.get(target.span, [0])[layers.CALLS] == 0:
                problems.append(f"{target.module}:{target.attr} never called")
        vecphys_calls = sum(
            row[layers.CALLS]
            for span, row in stats.items()
            if span.startswith(layers.VECPHYS_LAYER + ".")
        )
        if name in layers.VECPHYS_EXPECT and vecphys_calls == 0:
            problems.append("no repro.vecphys entry point called")
        self.tally("wrapper coverage", problems)


def parse_importtime(text: str) -> Dict[str, float]:
    """Total import time and the cumulative time of numpy and scipy.

    A package's time is the sum of the cumulative times of its
    outermost lines (those with no ancestor in the same package).
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|", 2)
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((int(own), int(cumulative), depth, name.strip()))
    result = {"total": sum(row[0] for row in rows) / 1e6}
    for package in ("numpy", "scipy"):
        total_us = 0
        ancestors: List[tuple] = []
        # Children print before their parent; walk backwards so each
        # line's ancestors are on the stack when it is reached.
        for _, cumulative, depth, name in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = name == package or name.startswith(package + ".")
            if inside and not any(flag for _, flag in ancestors):
                total_us += cumulative
            ancestors.append((depth, inside))
        result[package] = total_us / 1e6
    return result


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def write_pins() -> int:
    """Re-pin the default-seed digests and counts from the current code."""
    pins = load_pins()
    pins["workloads"] = {}
    for name, workload in workloads.WORKLOADS.items():
        bench = Bench(workload, DEFAULT_SEED, pins)
        bench.pinned = False
        OUT.mkdir(parents=True, exist_ok=True)
        commands = {}
        for cmd in bench.commands:
            # Table 3 is pinned from the real CLI command, which has no seed.
            plain = Command(cmd.key, cmd.args, cmd.artifacts)
            commands[cmd.key] = bench.run_command(plain, "plain", {}).digests
        counts = layers.counts(bench.run_pass("trace").stats())
        if bench.failed:
            _log(f"{name}: {bench.failed} failures, not writing pins")
            return 1
        pins["workloads"][name] = {"commands": commands, "counts": counts}
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    _log(f"wrote {PINS_PATH.relative_to(ROOT)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        _log(f"no deepnote sources under {ROOT / 'src'}; run from a repository checkout")
        return 2
    if args.write_pins:
        return write_pins()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = Bench(workloads.WORKLOADS[args.workload], args.seed, load_pins())
    bench.prepare()
    if args.trace:
        metrics = bench.per_layer(args.seconds)
        units = dict(layers.PER_LAYER)
    else:
        metrics = bench.end_to_end(args.seconds)
        units = dict(E2E_UNITS)
    fail_ratio = bench.failed / max(bench.attempted, 1)
    if args.trace:
        metrics["fail_ratio"] = fail_ratio

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f"{' (pinned seed)' if bench.pinned else ''}")
    for key, digests in bench.reference.items():
        for name, digest in sorted(digests.items()):
            print(f"digest {key} {name} {digest}")
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"{'fail_ratio':40s} {fail_ratio:.6g} ratio")
    correct = bench.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    shutil.rmtree(OUT, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
