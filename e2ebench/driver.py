"""Benchmark-owned driver: run one ``deepnote`` command in this process.

Usage::

    python3 e2ebench/driver.py [--spans OUT.json] [--table3-seed S]
                               -- <deepnote args...>

With ``--spans`` every target of ``layers.py`` is wrapped in a timing
wrapper before ``repro.cli.main`` runs, and the per-span
statistics are written to OUT.json when the command ends.  Each wrapper
records a span (name, start, end, parent) and folds it into per-span
counters; the first ``SPAN_CAP`` raw spans are kept for inspection.

``--table3-seed S`` seeds the Table 3 victims: the ``deepnote table3``
command has no ``--seed``, so ``run_table3`` gets
``victims=[...]`` with each victim's ``rng=make_rng(S).fork(<label>)``
(the labels the victims default to, so ``S = DEFAULT_SEED`` reproduces
the CLI byte for byte).

Only the parent process is instrumented: pool workers of a
``--workers 2`` command are not counted.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from typing import Dict, List

import layers

SPAN_CAP = 50_000


class Recorder:
    """In-memory span statistics for one process."""

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self._stack: List[list] = []

    def wrap(self, fn, span: str, layer: str, truthy: bool, units_from_len: bool):
        """``fn`` behind a wrapper that times every call as ``span``."""
        row = self.stats.setdefault(span, [0] * layers.STAT_SLOTS)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            outer = parent is None or parent[0] != layer
            frame = [layer, 0.0, len(spans) if len(spans) < SPAN_CAP else -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if outer:
                    row[layers.RAISED] += 1
                raise
            else:
                if truthy and result:
                    row[layers.TRUTHY] += 1
                if units_from_len:
                    row[layers.UNITS] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                row[layers.CALLS] += 1
                if outer:
                    row[layers.OUTER] += 1
                row[layers.TOTAL_S] += elapsed
                row[layers.SELF_S] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if frame[2] >= 0:
                    spans.append(
                        (span, start, end, parent[2] if parent is not None else -1)
                    )

        return timed

    def install(self, target: layers.Target) -> None:
        """Wrap one target in place, where it is defined and re-exported."""
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target.span)
            return
        owner_path, _, name = target.attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = inspect.getattr_static(owner, name, None) if owner is not None else None
        if original is None or not callable(original):
            self.missing.append(target.span)
            return
        wrapper = self.wrap(
            original, target.span, target.layer, target.truthy, target.units_from_len
        )
        setattr(owner, name, wrapper)
        if owner is module:
            # ``from module import fn`` copies taken before this point
            # (package re-exports such as ``repro.obs.write_chrome_trace``).
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and (
                    getattr(other, name, None) is original
                ):
                    setattr(other, name, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"stats": self.stats, "missing": self.missing, "spans": self.spans},
                handle,
            )


def targets() -> List[layers.Target]:
    """The targets to wrap, vecphys entry points resolved from ``__all__``."""
    try:
        vecphys = importlib.import_module(layers.VECPHYS_MODULE)
    except ImportError:
        entry_points = ["sweep_surface"]  # reported missing by install()
    else:
        entry_points = [name for name in vecphys.__all__ if name != "available"]
    return [
        *layers.TARGETS,
        *(
            layers.Target(layers.VECPHYS_LAYER, layers.VECPHYS_MODULE, name)
            for name in entry_points
        ),
    ]


def seed_table3(seed: int) -> None:
    """Make ``run_table3`` build its victims from ``seed``."""
    from repro.experiments import apps, table3
    from repro.rng import make_rng

    victims = [
        lambda: apps.Ext4Victim(rng=make_rng(seed).fork("ext4app")),
        lambda: apps.UbuntuVictim(rng=make_rng(seed).fork("ubuntu")),
        lambda: apps.RocksDBVictim(rng=make_rng(seed).fork("rocksapp")),
    ]
    table3.run_table3 = functools.partial(table3.run_table3, victims=victims)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="driver.py")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--table3-seed", type=int, default=None)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    recorder = Recorder()
    if args.spans is not None:
        for target in targets():
            recorder.install(target)
    if args.table3_seed is not None:
        seed_table3(args.table3_seed)

    from repro import cli

    try:
        status = cli.main(command)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        if args.spans is not None:
            recorder.write(args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
