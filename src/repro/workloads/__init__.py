"""Workload generators and measurement tools.

``fio`` mirrors the Flexible I/O Tester used in Section 4 (sequential
read/write at 4 KiB granularity, throughput and latency reporting);
``db_bench`` mirrors RocksDB's benchmark with the ``readwhilewriting``
workload used for Table 2.
"""

from .fio import FioJob, FioResult, FioTester, IOMode

__all__ = [
    "FioJob",
    "FioResult",
    "FioTester",
    "IOMode",
    "DbBench",
    "DbBenchResult",
    "YcsbRunner",
    "YcsbWorkload",
    "YcsbResult",
    "ZipfianGenerator",
    "WORKLOADS",
]


def __getattr__(name: str):
    # db_bench and ycsb pull in the key-value store; import them lazily
    # so FIO users don't pay for the whole LSM stack.
    if name in ("DbBench", "DbBenchResult"):
        from . import db_bench

        return getattr(db_bench, name)
    if name in ("YcsbRunner", "YcsbWorkload", "YcsbResult", "ZipfianGenerator", "WORKLOADS"):
        from . import ycsb

        return getattr(ycsb, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
