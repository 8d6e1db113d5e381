"""A ``db_bench`` equivalent for the simulated key-value store.

Implements the workloads the paper uses: ``fillseq``/``fillrandom`` to
preload, and ``readwhilewriting`` — RocksDB's standard mixed workload
with one writer and several readers — whose throughput (MB/s) and I/O
rate (ops/s) are the two columns of Table 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    BlockIOError,
    ConfigurationError,
    DatabaseClosed,
    DriveError,
    WALSyncError,
)
from repro.rng import ReproRandom, make_rng
from repro.storage.kv.db import DB

__all__ = ["DbBenchConfig", "DbBenchResult", "DbBench"]

#: Errors that end a benchmark run (the store or drive died).
_FATAL = (WALSyncError, DatabaseClosed, BlockIOError, DriveError)


@dataclass
class DbBenchConfig:
    """Workload shape, named after db_bench flags."""

    num_preload: int = 10_000
    key_size: int = 16
    value_size: int = 64
    readers: int = 3
    duration_s: float = 2.0
    write_rate_limit_ops: Optional[float] = None
    seed_label: str = "db_bench"

    def __post_init__(self) -> None:
        if self.num_preload < 0:
            raise ConfigurationError("preload count must be non-negative")
        if self.key_size < 8 or self.value_size <= 0:
            raise ConfigurationError("bad key/value sizing")
        if self.readers < 0:
            raise ConfigurationError("reader count must be non-negative")
        if not (0.0 < self.duration_s < math.inf):  # also rejects NaN
            raise ConfigurationError(
                f"duration must be positive and finite: {self.duration_s}"
            )
        limit = self.write_rate_limit_ops
        if limit is not None and not (0.0 < limit < math.inf):
            raise ConfigurationError(f"write rate limit must be positive and finite: {limit}")


@dataclass
class DbBenchResult:
    """Aggregated outcome of one benchmark run."""

    workload: str
    ops: int = 0
    reads: int = 0
    writes: int = 0
    bytes_moved: int = 0
    elapsed_s: float = 0.0
    aborted: bool = False
    abort_reason: str = ""

    @property
    def ops_per_second(self) -> float:
        """The paper's "I/O rate" column."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.ops / self.elapsed_s

    @property
    def throughput_mbps(self) -> float:
        """The paper's "Throughput (MB/s)" column (decimal MB)."""
        if self.elapsed_s <= 0.0:
            return 0.0
        return self.bytes_moved / 1e6 / self.elapsed_s


class DbBench:
    """Runs benchmark workloads against one DB instance."""

    def __init__(self, db: DB, config: Optional[DbBenchConfig] = None, rng: Optional[ReproRandom] = None) -> None:
        self.db = db
        self.config = config if config is not None else DbBenchConfig()
        self.rng = rng if rng is not None else make_rng().fork(self.config.seed_label)
        self._loaded_keys = 0

    # -- key/value generation -----------------------------------------------------

    def _key(self, index: int) -> bytes:
        return f"{index:0{self.config.key_size}d}".encode()[: self.config.key_size]

    def _value(self, index: int) -> bytes:
        seed = (index * 2654435761) & 0xFFFFFFFF
        unit = seed.to_bytes(4, "little")
        repeated = unit * (self.config.value_size // 4 + 1)
        return repeated[: self.config.value_size]

    # -- workloads -------------------------------------------------------------------

    def fill_seq(self, count: Optional[int] = None) -> DbBenchResult:
        """Preload ``count`` sequential keys (db_bench fillseq)."""
        n = self.config.num_preload if count is None else count
        result = DbBenchResult(workload="fillseq")
        start = self.db.clock.now
        try:
            for index in range(n):
                self.db.put(self._key(index), self._value(index))
                result.writes += 1
                result.ops += 1
                result.bytes_moved += self.config.key_size + self.config.value_size
        except _FATAL as err:
            result.aborted = True
            result.abort_reason = str(err)
        self._loaded_keys = max(self._loaded_keys, result.writes)
        result.elapsed_s = self.db.clock.now - start
        return result

    def read_random(self, count: int = 10_000) -> DbBenchResult:
        """Point-read random known keys (db_bench readrandom)."""
        if self._loaded_keys == 0:
            raise ConfigurationError("preload the database first (fill_seq)")
        result = DbBenchResult(workload="readrandom")
        start = self.db.clock.now
        try:
            for _ in range(count):
                index = self.rng.randint(0, self._loaded_keys - 1)
                value = self.db.get(self._key(index))
                result.reads += 1
                result.ops += 1
                if value is not None:
                    result.bytes_moved += self.config.key_size + len(value)
        except _FATAL as err:
            result.aborted = True
            result.abort_reason = str(err)
        result.elapsed_s = self.db.clock.now - start
        return result

    def read_while_writing(self, duration_s: Optional[float] = None) -> DbBenchResult:
        """The paper's Table 2 workload: concurrent readers + one writer.

        Each scheduling round interleaves ``readers`` point reads with
        one write, mirroring db_bench's thread mix on a single virtual
        timeline.  An optional writer rate limit (ops/s) paces the
        writer, modelling ``-benchmark_write_rate_limit``.
        """
        if self._loaded_keys == 0:
            raise ConfigurationError("preload the database first (fill_seq)")
        window = self.config.duration_s if duration_s is None else duration_s
        result = DbBenchResult(workload="readwhilewriting")
        clock = self.db.clock
        start = clock.now
        next_write_index = self._loaded_keys
        try:
            while clock.now - start < window:
                # Writer (possibly rate limited).
                limit = self.config.write_rate_limit_ops
                allowed = (
                    limit is None
                    or result.writes < limit * (clock.now - start) + 1.0
                )
                if allowed:
                    self.db.put(
                        self._key(next_write_index), self._value(next_write_index)
                    )
                    next_write_index += 1
                    result.writes += 1
                    result.ops += 1
                    result.bytes_moved += (
                        self.config.key_size + self.config.value_size
                    )
                else:
                    # Writer throttled: let virtual time tick forward.
                    clock.advance(1.0e-4)
                # Readers.
                for _ in range(self.config.readers):
                    index = self.rng.randint(0, next_write_index - 1)
                    value = self.db.get(self._key(index))
                    result.reads += 1
                    result.ops += 1
                    if value is not None:
                        result.bytes_moved += self.config.key_size + len(value)
        except _FATAL as err:
            result.aborted = True
            result.abort_reason = str(err)
        result.elapsed_s = clock.now - start
        return result
