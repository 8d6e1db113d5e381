"""On-disk memoization of campaign measurements.

A sweep point is a pure function of ``(scenario/coupling, attack
config, job parameters, seed)`` — the simulation has no other inputs —
so re-running ``deepnote figure2`` or a benchmark suite can skip every
point it has already measured.  :class:`ResultCache` stores one small
JSON document per point under a content-addressed filename derived from
:func:`repro.runtime.fingerprint.fingerprint`.

The cache is safe under concurrent writers (atomic rename) and treats
any unreadable or corrupt entry as a miss, never an error.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError

__all__ = ["ResultCacheStats", "ResultCache"]

_FORMAT_VERSION = 1


@dataclass
class ResultCacheStats:
    """Hit/miss/store accounting for one runner invocation."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """A content-addressed JSON store for measured campaign points."""

    def __init__(self, cache_dir: Union[str, pathlib.Path]) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use cache dir {self.cache_dir}: {exc}"
            ) from None
        self.stats = ResultCacheStats()

    def _path(self, key: str) -> pathlib.Path:
        # Two-level sharding keeps directories small on big campaigns.
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached payload for ``key``, or None on a miss."""
        path = self._path(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if not isinstance(document, dict) or document.get("version") != _FORMAT_VERSION:
            self.stats.misses += 1
            return None
        value = document.get("value")
        if not isinstance(value, dict):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: Dict[str, Any]) -> None:
        """Persist ``value`` under ``key`` (atomic, last writer wins)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {"version": _FORMAT_VERSION, "key": key, "value": value}
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{key[:8]}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(document, handle)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def __len__(self) -> int:
        """Number of cached entries on disk."""
        # deepcheck: ignore[DC03,DC06] counting entries; order cannot change a count
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))
