"""Seeded random streams and the bit sources that feed the protocol.

Every consumer gets its own derived generator so streams never interleave.
``BitSource`` pre-draws in fixed-size internal blocks, which makes the served
bit sequence independent of how callers chunk their requests; that property
is what keeps in-process and socket sessions bit-identical.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import BitSourceExhausted

_PRNG_BLOCK_BITS = 65536


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


class BitSource:
    """Serves random bits exactly once each, in order.

    origin "prng": unbounded, refilled from a seeded generator in fixed
    blocks. origin "key-file": finite, backed by bits loaded from key files.
    """

    def __init__(self, origin: str, rng: Optional[np.random.Generator] = None,
                 bits: Optional[np.ndarray] = None, block_size_bits: int = _PRNG_BLOCK_BITS):
        if origin not in ("prng", "key-file"):
            raise ValueError(f"origin must be 'prng' or 'key-file', got {origin!r}")
        if origin == "prng" and rng is None:
            raise ValueError("prng origin requires a generator")
        if origin == "key-file" and bits is None:
            raise ValueError("key-file origin requires bits")
        self.origin = origin
        self.block_size_bits = block_size_bits
        self._rng = rng
        self._fixed = None if bits is None else np.asarray(bits, dtype=np.uint8)
        # The pre-drawn block, as an array for ``take`` and as a plain list
        # for cheap scalar serving. Each view is made when first needed; a
        # list view drops the array, so scalar-only use holds just the list.
        self._block: Optional[np.ndarray] = None
        self._buffer: list = []
        self._buffer_pos = block_size_bits  # no block drawn yet
        self._cursor = 0

    @classmethod
    def from_rng(cls, rng: np.random.Generator) -> "BitSource":
        return cls("prng", rng=rng)

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "BitSource":
        return cls("prng", rng=derive_rng(seed, stream))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitSource":
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
        return cls("key-file", bits=arr, block_size_bits=65535)

    @classmethod
    def from_key_files(cls, paths: Sequence[str]) -> "BitSource":
        from .keyfile import read_key_file

        blocks = [read_key_file(p) for p in paths]
        if not blocks:
            raise ValueError("at least one key file required")
        return cls("key-file", bits=np.concatenate(blocks), block_size_bits=65535)

    @property
    def cursor(self) -> int:
        """Bits served so far."""
        return self._cursor

    def remaining(self) -> Optional[int]:
        """Bits left, or None when the source is unbounded."""
        if self.origin == "prng":
            return None
        return int(self._fixed.size - self._cursor)

    def _refill(self) -> None:
        drawn = self._rng.integers(0, 2, size=self.block_size_bits, dtype=np.int64)
        self._block = drawn.astype(np.uint8)
        self._buffer = []
        self._buffer_pos = 0

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` bits as a uint8 array; never re-serves a bit."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if self.origin == "key-file":
            if self._cursor + n > self._fixed.size:
                raise BitSourceExhausted(
                    f"requested {n} bits, {self._fixed.size - self._cursor} left"
                )
            out = self._fixed[self._cursor:self._cursor + n].copy()
            self._cursor += n
            return out
        parts: list = []
        need = n
        while need > 0:
            if self._buffer_pos >= self.block_size_bits:
                self._refill()
            if self._block is None:
                self._block = np.array(self._buffer, dtype=np.uint8)
            chunk = self._block[self._buffer_pos:self._buffer_pos + need]
            parts.append(chunk)
            self._buffer_pos += chunk.size
            need -= chunk.size
        self._cursor += n
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)

    def take_bit(self) -> int:
        """Next single bit; same stream as :meth:`take`."""
        if self.origin == "key-file":
            if self._cursor >= self._fixed.size:
                raise BitSourceExhausted("requested 1 bit, 0 left")
            bit = int(self._fixed[self._cursor])
            self._cursor += 1
            return bit
        if self._buffer_pos >= len(self._buffer):
            if self._buffer_pos >= self.block_size_bits:
                self._refill()
            self._buffer = self._block.tolist()
            self._block = None
        bit = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        self._cursor += 1
        return bit


class UniformSampler:
    """Serves uniform doubles from fixed pre-drawn blocks.

    The fixed internal block size makes the served sequence independent of
    the caller's request pattern, mirroring :class:`BitSource`: :meth:`next`
    and :meth:`take` serve the same stream in any interleaving.
    """

    _BLOCK = 65536

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        # The block as an array and as a list, made as in BitSource.
        self._block: Optional[np.ndarray] = None
        self._buffer: list = []
        self._pos = self._BLOCK  # no block drawn yet

    def _refill(self) -> None:
        self._block = self._rng.random(self._BLOCK)
        self._buffer = []
        self._pos = 0

    def next(self) -> float:
        if self._pos >= len(self._buffer):
            if self._pos >= self._BLOCK:
                self._refill()
            self._buffer = self._block.tolist()
            self._block = None
        u = self._buffer[self._pos]
        self._pos += 1
        return u

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` doubles as a float64 array."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        parts = []
        while n > 0:
            if self._pos >= self._BLOCK:
                self._refill()
            if self._block is None:
                self._block = np.array(self._buffer)
            chunk = self._block[self._pos:self._pos + n]
            parts.append(chunk)
            self._pos += chunk.size
            n -= chunk.size
        return np.concatenate(parts) if parts else np.empty(0)
