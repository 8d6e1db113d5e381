"""The durable checkpoint journal: interrupt any campaign, resume it.

The result cache (:mod:`repro.runtime.cache`) already memoizes point
*values*; the journal adds what a resumable campaign needs on top:

* a **campaign fingerprint header** so ``--resume`` refuses to mix
  measurements from different physics inputs
  (:class:`~repro.errors.ResumeMismatch`);
* an **append-only per-point completion log** — one JSON line per
  finished point, ``fsync``'d before the runner moves on, so a ``kill
  -9`` at any instant loses at most the point in flight;
* **typed failure rows** — a point that exhausted its retries is a
  durable outcome too, honored on resume instead of silently re-run.

Format (JSON lines)::

    {"format": "deepnote-journal", "version": 1, "campaign": "<hex>"}
    {"type": "point", "key": "<hex>", "label": "...", "status": "ok",
     "value": {...}}
    {"type": "point", "key": "<hex>", "label": "...", "status": "failed",
     "failure": {...}}

Recovery: a torn tail (the classic crash-during-append) is detected on
load and truncated away; anything before it is trusted.  A corrupt or
foreign *header* is refused — resuming from a journal whose provenance
is unknown would be worse than re-measuring.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError, ResumeMismatch
from repro.runtime.retry import PointFailure

__all__ = ["CampaignJournal"]

_FORMAT = "deepnote-journal"
_VERSION = 1


class CampaignJournal:
    """Append-only, fsync'd completion log for one campaign.

    Args:
        path: journal file location (conventionally
            ``<cache-dir>/journal.jsonl``, next to the result cache).
        campaign: fingerprint of the campaign's physics inputs; written
            into the header and checked on resume.
        resume: load an existing journal (if any) instead of starting
            fresh.  A missing file resumes into a fresh journal; a
            header that disagrees with ``campaign`` raises
            :class:`~repro.errors.ResumeMismatch`.
    """

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        campaign: str,
        resume: bool = False,
    ) -> None:
        if not campaign:
            raise ConfigurationError("a journal needs a campaign fingerprint")
        self.path = pathlib.Path(path)
        self.campaign = campaign
        self._records: Dict[str, Dict[str, Any]] = {}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.resumed = resume and self.path.exists()
            if self.resumed:
                self._load()
            self._handle = self.path.open("a" if self.resumed else "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(f"cannot open journal {self.path}: {exc}") from None
        if not self.resumed:
            self._append(
                {"format": _FORMAT, "version": _VERSION, "campaign": campaign}
            )

    # -- loading -----------------------------------------------------------

    def _load(self) -> None:
        """Read the valid prefix; truncate a torn or corrupt tail."""
        with self.path.open("rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        header_line = lines[0] if lines else b""
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ResumeMismatch(
                f"journal {self.path} has an unreadable header; refusing to "
                "resume from it (delete the file to start fresh)"
            ) from exc
        if (
            not isinstance(header, dict)
            or header.get("format") != _FORMAT
            or header.get("version") != _VERSION
        ):
            raise ResumeMismatch(
                f"journal {self.path} is not a version-{_VERSION} "
                f"{_FORMAT} file; refusing to resume from it"
            )
        if header.get("campaign") != self.campaign:
            raise ResumeMismatch(
                f"journal {self.path} belongs to campaign "
                f"{header.get('campaign')!r}, not {self.campaign!r}; "
                "refusing to mix measurements (delete the journal or drop "
                "--resume to start fresh)"
            )
        valid_bytes = len(header_line) + 1
        for line in lines[1:]:
            if not line:
                # Either the file's trailing newline or an empty torn
                # tail; only count it if more records follow.
                if valid_bytes < len(raw):
                    valid_bytes += 1
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                break  # torn tail: trust everything before it
            if (
                not isinstance(record, dict)
                or record.get("type") != "point"
                or not isinstance(record.get("key"), str)
                or record.get("status") not in ("ok", "failed")
            ):
                break
            self._records[record["key"]] = record
            valid_bytes += len(line) + 1
        if valid_bytes < len(raw):
            with self.path.open("r+b") as handle:
                handle.truncate(valid_bytes)

    # -- queries -----------------------------------------------------------

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The completion record for ``key`` from a resumed run, or None."""
        return self._records.get(key)

    def __len__(self) -> int:
        """Completion records loaded from a resumed journal."""
        return len(self._records)

    # -- appends -----------------------------------------------------------

    def record_ok(self, key: str, label: str, value: Dict[str, Any]) -> None:
        """Journal a successful point (fsync'd before returning)."""
        self._append(
            {"type": "point", "key": key, "label": label, "status": "ok", "value": value}
        )

    def record_failure(self, key: str, failure: PointFailure) -> None:
        """Journal an exhausted-retries point as a durable outcome."""
        self._append(
            {
                "type": "point",
                "key": key,
                "label": failure.label,
                "status": "failed",
                "failure": failure.to_payload(),
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
