"""Stable fingerprints for memoization keys.

The on-disk result cache keys a measurement by *everything that can
change its value*: the scenario/coupling chain, the attack
configuration, the job parameters, and the seed.  ``fingerprint``
reduces an arbitrary tree of dataclasses, enums, containers, and
primitives to a canonical SHA-256 hex digest that is stable across
processes and runs (unlike ``hash``) and across dict insertion orders.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Any, Iterable

__all__ = ["canonical", "fingerprint"]


def canonical(obj: Any) -> str:
    """A canonical, deterministic string encoding of ``obj``.

    Dataclasses encode as ``ClassName(field=value, ...)`` in field
    order, dicts sort by key, floats use ``repr`` (shortest round-trip
    form), enums use their qualified name.  Other objects with instance
    state encode their *public* attributes only: a ``_``-prefixed
    attribute holds derived state (a lookup table, a memo that fills as
    the object is used), so a key never depends on what the process
    evaluated before computing it.  Anything else falls back to
    ``repr`` — acceptable for fingerprinting, since a lying ``repr``
    only costs a spurious cache miss, never a wrong hit for a
    well-behaved type.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, dict):
        items = ", ".join(
            f"{canonical(k)}: {canonical(v)}" for k, v in sorted(obj.items(), key=lambda kv: canonical(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, set, frozenset)):
        values: Iterable[Any] = obj
        if isinstance(obj, (set, frozenset)):
            values = sorted(obj, key=canonical)
        body = ", ".join(canonical(v) for v in values)
        kind = type(obj).__name__
        return f"{kind}[{body}]"
    # Plain value-like objects (e.g. ModalResponse, DiskGeometry): their
    # default repr embeds a memory address, so encode the public instance
    # state instead.
    state = getattr(obj, "__dict__", None)
    if state:
        public = {name: value for name, value in state.items() if not name.startswith("_")}
        return f"{type(obj).__name__}{canonical(public)}"
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest over the canonical encoding of ``parts``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()
