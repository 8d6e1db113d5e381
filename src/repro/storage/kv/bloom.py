"""Bloom filters for SSTable point lookups.

Standard double-hashing construction (Kirsch-Mitzenmacher): k probe
positions derived from two 64-bit hashes of the key.  ~10 bits per key
gives a ~1% false-positive rate, matching RocksDB's default.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Iterable, Optional

from repro.errors import ConfigurationError

__all__ = ["BloomFilter"]

#: The first two little-endian 64-bit words of a sha256 digest.
_WORDS = struct.Struct("<QQ")


def _hash_pair(key: bytes) -> "tuple[int, int]":
    h1, h2 = _WORDS.unpack_from(hashlib.sha256(key).digest())
    return h1, h2 | 1  # odd step avoids cycles


class BloomFilter:
    """A fixed-size bloom filter over bytes keys."""

    def __init__(self, num_bits: int, num_probes: int, bits: Optional[bytearray] = None) -> None:
        if num_bits <= 0:
            raise ConfigurationError(f"bit count must be positive: {num_bits}")
        if not 1 <= num_probes <= 30:
            raise ConfigurationError(f"probe count out of range: {num_probes}")
        self.num_bits = num_bits
        self.num_probes = num_probes
        expected = (num_bits + 7) // 8
        if bits is None:
            self.bits = bytearray(expected)
        else:
            if len(bits) != expected:
                raise ConfigurationError(
                    f"bit array of {len(bits)} bytes does not hold {num_bits} bits"
                )
            self.bits = bytearray(bits)

    @classmethod
    def for_keys(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Build a filter sized for ``keys`` at ``bits_per_key``.

        Each key sets bit ``(h1 + i*h2) % num_bits`` for every probe ``i``.
        """
        if bits_per_key <= 0:
            raise ConfigurationError(f"bits per key must be positive: {bits_per_key}")
        key_list = list(keys)
        num_bits = max(64, len(key_list) * bits_per_key)
        # Optimal probe count ~= bits_per_key * ln 2.
        probes = max(1, min(30, round(bits_per_key * math.log(2.0))))
        bloom = cls(num_bits, probes)
        bits = bloom.bits
        probe_range = range(probes)
        for key in key_list:
            h1, h2 = _hash_pair(key)
            for i in probe_range:
                pos = (h1 + i * h2) % num_bits
                bits[pos >> 3] |= 1 << (pos & 7)
        return bloom

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h1, h2 = _hash_pair(key)
        bits, num_bits = self.bits, self.num_bits
        for i in range(self.num_probes):
            pos = (h1 + i * h2) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def fill_ratio(self) -> float:
        """Fraction of set bits (diagnostic)."""
        set_bits = sum(bin(b).count("1") for b in self.bits)
        return set_bits / self.num_bits

    # -- serialization -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: [num_bits u32][num_probes u8][bit array]."""
        header = self.num_bits.to_bytes(4, "little") + bytes([self.num_probes])
        return header + bytes(self.bits)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        """Inverse of :meth:`to_bytes`."""
        if len(raw) < 5:
            raise ConfigurationError("bloom filter blob too short")
        num_bits = int.from_bytes(raw[:4], "little")
        num_probes = raw[4]
        return cls(num_bits, num_probes, bytearray(raw[5:]))
