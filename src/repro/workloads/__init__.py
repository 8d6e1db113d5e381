"""Workload generators and measurement tools.

``fio`` mirrors the Flexible I/O Tester used in Section 4 (sequential
read/write at 4 KiB granularity, throughput and latency reporting);
``db_bench`` mirrors RocksDB's benchmark with the ``readwhilewriting``
workload used for Table 2.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    globals(),
    {
        "fio": ("FioJob", "FioResult", "FioTester", "IOMode"),
        "db_bench": ("DbBench", "DbBenchResult"),
        "ycsb": (
            "YcsbRunner",
            "YcsbWorkload",
            "YcsbResult",
            "ZipfianGenerator",
            "WORKLOADS",
        ),
    },
)
