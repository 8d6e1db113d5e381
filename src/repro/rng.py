"""Deterministic random number generation.

Every stochastic component of the simulation draws from a
:class:`ReproRandom` seeded stream so that experiments are reproducible
run-to-run.  Components that need independent streams derive them with
:meth:`ReproRandom.fork`, which hashes a label into the child seed; this
keeps results stable even when components are constructed in a different
order.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional

from repro.errors import UnitError

__all__ = ["ReproRandom", "DEFAULT_SEED"]

DEFAULT_SEED = 0xDEE9_007E


class ReproRandom:
    """A labelled, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = DEFAULT_SEED, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._rng = random.Random(self.seed)

    def fork(self, label: str) -> "ReproRandom":
        """Derive an independent stream keyed by ``label``.

        The child seed is a stable hash of the parent seed and the label,
        so two forks with the same label always produce the same stream.
        """
        digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
        child_seed = int.from_bytes(digest[:8], "big")
        return ReproRandom(child_seed, label=f"{self.label}/{label}")

    # -- thin delegating surface ------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] (both ints).

        The draw is ``random.Random.randint``'s own: CPython's
        ``randrange`` reduces a step-1 range to ``low + _randbelow(width)``,
        which this calls directly, two frames fewer per draw.
        """
        width = high - low + 1
        if width <= 0:
            raise UnitError(f"empty range for randint({low}, {high})")
        return low + self._rng._randbelow(width)

    def chance(self, probability: float) -> bool:
        """Return True with the given probability (clamped to [0, 1])."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReproRandom(seed={self.seed:#x}, label={self.label!r})"


def make_rng(seed: Optional[int] = None, label: str = "root") -> ReproRandom:
    """Build a root RNG, defaulting to the package-wide seed."""
    return ReproRandom(DEFAULT_SEED if seed is None else seed, label=label)
