"""Runtime switches for the hot-path I/O engine optimizations.

The simulator's hot paths (servo transfer-function memoization, the
controller's static-vibration fast path with the closed-form sequential
FIO evaluation, geometry locate caching) are *bit-identical* rewrites of
the original math: they change wall-clock cost, never results.  These
switches exist so that claim can be checked rather than trusted: the
cache-correctness tests run the same campaign with and without the
optimizations and compare outputs byte for byte.

Flags default to *on* and can be forced off for a whole process with
environment variables (read once at import)::

    REPRO_SERVO_CACHE=0    # disable servo/modal memoization
    REPRO_IO_FAST_PATH=0   # disable controller fast path, closed-form
                           # FIO and the locate cache

or toggled in-process with :func:`perf_baseline` /
:func:`set_servo_cache_enabled` / :func:`set_io_fast_path_enabled`.
Components read the flags when they are *constructed* (a fresh drive,
controller, or servo picks up the current setting), except the shared
geometry locate cache, which consults the flag per call so an already
built geometry also honours baseline mode.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator

from repro.errors import ConfigurationError

__all__ = [
    "ENV_FLAGS",
    "servo_cache_enabled",
    "io_fast_path_enabled",
    "set_servo_cache_enabled",
    "set_io_fast_path_enabled",
    "perf_baseline",
]

_FALSE = {"0", "false", "no", "off"}

#: Registry of every ``REPRO_*`` environment switch the package reads,
#: with a one-line description.  This is the source of truth deepcheck's
#: DC08 rule checks env reads against: a flag read anywhere in ``src/``
#: whose name is missing here fails ``make deepcheck``, so there can be
#: no invisible knobs.
ENV_FLAGS: Dict[str, str] = {
    "REPRO_SERVO_CACHE": "servo/modal transfer-function memoization",
    "REPRO_IO_FAST_PATH": "controller fast path, closed-form FIO + geometry locate cache",
}


def _env_flag(name: str, default: bool = True) -> bool:
    if name not in ENV_FLAGS:
        raise ConfigurationError(
            f"undeclared env flag {name!r}: add it to repro.perf.ENV_FLAGS"
        )
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in _FALSE


_servo_cache: bool = _env_flag("REPRO_SERVO_CACHE")
_io_fast_path: bool = _env_flag("REPRO_IO_FAST_PATH")


def servo_cache_enabled() -> bool:
    """True when servo/modal transfer functions may memoize."""
    return _servo_cache


def io_fast_path_enabled() -> bool:
    """True when the controller/geometry fast paths are active."""
    return _io_fast_path


def set_servo_cache_enabled(enabled: bool) -> bool:
    """Set the servo-cache flag; returns the previous value."""
    global _servo_cache
    previous = _servo_cache
    _servo_cache = bool(enabled)
    return previous


def set_io_fast_path_enabled(enabled: bool) -> bool:
    """Set the I/O fast-path flag; returns the previous value."""
    global _io_fast_path
    previous = _io_fast_path
    _io_fast_path = bool(enabled)
    return previous


@contextmanager
def perf_baseline() -> Iterator[None]:
    """Run a block with every hot-path optimization disabled.

    Components built inside the block evaluate the original,
    unmemoized code paths — this is the "before" half of every
    before/after comparison.  Flags are restored on exit.
    """
    servo_prev = set_servo_cache_enabled(False)
    io_prev = set_io_fast_path_enabled(False)
    try:
        yield
    finally:
        set_servo_cache_enabled(servo_prev)
        set_io_fast_path_enabled(io_prev)
