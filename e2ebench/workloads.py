"""The benchmark's four workloads: the ``deepnote`` commands each runs.

Every command takes the benchmark seed where the CLI has a seed flag.
Artifact paths are written ``{art}/<name>`` and point into a scratch
directory the runner empties before each command; the artifact
``<name>`` is what the pinned digests are keyed by.  See README.md in
this directory for why each workload exists and which layers it
stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import layers

#: ``repro.rng.DEFAULT_SEED``; digests are pinned at this seed (the
#: goldens check confirms the two still agree).
DEFAULT_SEED = 0xDEE9_007E


@dataclass(frozen=True)
class Command:
    """One ``deepnote`` invocation of a workload."""

    key: str
    args: Tuple[str, ...]
    #: Artifact file names the command writes under ``{art}``.
    artifacts: Tuple[str, ...] = ()
    #: Seed for the Table 3 victims (runs through the driver).
    table3_seed: Optional[int] = None
    #: Key of an earlier command whose stdout this one must reproduce.
    same_stdout_as: Optional[str] = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: Modules a cold interpreter imports for ``setup_s``.
    imports: Tuple[str, ...]
    commands: Callable[[int], Tuple[Command, ...]]


def _kv_readwrite(seed: int) -> Tuple[Command, ...]:
    return (Command("table2", ("table2", "--seed", str(seed))),)


def _kv_read(seed: int) -> Tuple[Command, ...]:
    return (Command("table3", ("table3",), table3_seed=seed),)


def _traced_sweep(seed: int) -> Tuple[Command, ...]:
    return (
        Command(
            "figure2-trace",
            ("figure2", "--seed", str(seed), "--trace", "{art}/trace.json",
             "--metrics-out", "{art}/metrics.prom"),
            artifacts=("trace.json", "metrics.prom"),
        ),
    )


def _cli_quick(seed: int) -> Tuple[Command, ...]:
    s = str(seed)
    return (
        Command("figure2", ("figure2", "--seed", s)),
        Command("figure2-w2", ("figure2", "--seed", s, "--workers", "2"),
                same_stdout_as="figure2"),
        Command("table1", ("table1", "--seed", s)),
        Command("ablations", ("ablations",)),
        Command("rack", ("rack", "--bays", "5", "--sweep", "100", "4000", "1")),
        Command("fleet", ("fleet", "--racks", "16", "--towers", "50", "--seed", s)),
        Command(
            "ycsb",
            ("ycsb", "--seed", s, "--slo", "p99<25ms,avail>=99.9",
             "--series-out", "{art}/series.jsonl",
             "--dashboard-out", "{art}/dashboard.html"),
            artifacts=("series.jsonl", "dashboard.html"),
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    layers.KV_READWRITE: Workload(
        layers.KV_READWRITE,
        ("repro.cli", "repro.experiments.table2"),
        _kv_readwrite,
    ),
    layers.KV_READ: Workload(
        layers.KV_READ,
        ("repro.cli", "repro.experiments.table3"),
        _kv_read,
    ),
    layers.TRACED_SWEEP: Workload(
        layers.TRACED_SWEEP,
        ("repro.cli", "repro.experiments.figure2", "repro.obs"),
        _traced_sweep,
    ),
    layers.CLI_QUICK: Workload(
        layers.CLI_QUICK,
        ("repro.cli", "repro.experiments.figure2", "repro.experiments.table1",
         "repro.experiments.ablations", "repro.core.fleet", "repro.workloads.ycsb",
         "repro.obs"),
        _cli_quick,
    ),
}
