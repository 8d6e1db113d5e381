"""Fault injection at the block layer.

Acoustic interference is one failure mode; robust storage code must
also survive ordinary ones.  :class:`FaultInjector` wraps a
:class:`~repro.storage.block.BlockDevice` and injects configurable
failures — random I/O errors, latency spikes, silent corruption, or a
hard death after N operations — so tests can exercise the filesystem,
RAID, and KV-store recovery paths under *independent* faults and
contrast them with the attack's common-mode behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import BlockIOError, ConfigurationError
from repro.rng import ReproRandom, make_rng
from repro.storage.block import BlockDevice

__all__ = ["FaultPlan", "FaultInjector"]


@dataclass
class FaultPlan:
    """What to inject.

    Attributes:
        read_error_p / write_error_p: per-op probability of failing
            with a buffer I/O error.
        corrupt_read_p: per-op probability a read returns flipped bits
            (silent corruption — checksummed layers must catch it).
        latency_spike_p: per-op probability of an extra service delay.
        latency_spike_s: size of that delay (virtual seconds).
        die_after_ops: hard-fail every request after this many total
            operations (simulates sudden drive death); None = never.
    """

    read_error_p: float = 0.0
    write_error_p: float = 0.0
    corrupt_read_p: float = 0.0
    latency_spike_p: float = 0.0
    latency_spike_s: float = 0.05
    die_after_ops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_error_p", "write_error_p", "corrupt_read_p", "latency_spike_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]: {value}")
        if self.latency_spike_s < 0.0:
            raise ConfigurationError("latency spike must be non-negative")
        if self.die_after_ops is not None and self.die_after_ops < 0:
            raise ConfigurationError("die_after_ops must be non-negative")


class FaultInjector:
    """A block device that lies, stalls, and dies on schedule."""

    def __init__(
        self,
        inner: BlockDevice,
        plan: FaultPlan,
        rng: Optional[ReproRandom] = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.rng = rng if rng is not None else make_rng().fork("faults")
        self.ops = 0
        self.injected_errors = 0
        self.injected_corruptions = 0
        self.injected_spikes = 0

    # -- device interface passthroughs ---------------------------------------------

    @property
    def block_size(self) -> int:
        """Block size of the wrapped device."""
        return self.inner.block_size

    @property
    def total_blocks(self) -> int:
        """Capacity of the wrapped device."""
        return self.inner.total_blocks

    @property
    def clock(self):
        """The shared virtual clock."""
        return self.inner.clock

    @property
    def drive(self):
        """The underlying drive (for attack coupling in mixed tests)."""
        return self.inner.drive

    @property
    def name(self) -> str:
        """Device name."""
        return self.inner.name

    @property
    def stats(self):
        """Wrapped device statistics."""
        return self.inner.stats

    # -- fault machinery ---------------------------------------------------------------

    def _dead(self) -> bool:
        return (
            self.plan.die_after_ops is not None and self.ops >= self.plan.die_after_ops
        )

    def _pre_op(self, is_write: bool) -> None:
        if self._dead():
            self.injected_errors += 1
            raise BlockIOError(
                f"injected: {self.name} died after {self.plan.die_after_ops} ops"
            )
        self.ops += 1
        if self.rng.chance(self.plan.latency_spike_p):
            self.injected_spikes += 1
            self.clock.advance(self.plan.latency_spike_s)
        error_p = self.plan.write_error_p if is_write else self.plan.read_error_p
        if self.rng.chance(error_p):
            self.injected_errors += 1
            kind = "write" if is_write else "read"
            raise BlockIOError(f"injected: {kind} error on {self.name}")

    def read_block(self, block: int) -> bytes:
        """Read with injected errors/corruption/latency."""
        self._pre_op(is_write=False)
        data = self.inner.read_block(block)
        if self.rng.chance(self.plan.corrupt_read_p):
            self.injected_corruptions += 1
            index = self.rng.randint(0, len(data) - 1)
            corrupted = bytearray(data)
            corrupted[index] ^= 0xFF
            return bytes(corrupted)
        return data

    def write_block(self, block: int, data: bytes) -> None:
        """Write with injected errors/latency."""
        self._pre_op(is_write=True)
        self.inner.write_block(block, data)

    def flush(self) -> None:
        """Flush, failing once the device has died."""
        if self._dead():
            raise BlockIOError(f"injected: {self.name} is dead")
        self.inner.flush()
