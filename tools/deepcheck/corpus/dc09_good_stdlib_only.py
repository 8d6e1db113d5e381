"""Corpus DC09 good: the standard library, repro itself and type-only imports."""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING

from repro.errors import UnitError

from .signals import Signal

if TYPE_CHECKING:  # annotations only; never imported at run time
    import numpy as np


def render(signal: Signal, n: int, step: float) -> array:
    if n <= 0:
        raise UnitError(f"need at least one sample: {n}")
    return array("d", (signal.envelope_at(i * step) * math.sin(i) for i in range(n)))


def length(samples: "np.ndarray") -> int:
    return len(samples)
