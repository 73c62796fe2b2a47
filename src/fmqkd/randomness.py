"""Seeded random streams and the bit sources that feed the protocol.

Every consumer gets its own derived generator so streams never interleave.
One block stream serves random bits, key-file bits and uniforms in blocks of
``framing.BLOCK_PULSES`` values, so each window frame takes exactly one block.
Serving from blocks makes each sequence independent of how callers chunk their
requests; that is what keeps both engines and both channel modes bit-identical.
Random bits are the bits ``integers(0, 2)`` would draw, read straight from the
PCG64 output words at a fraction of its cost.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import BitSourceExhausted
from .framing import BLOCK_PULSES


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


class _BlockStream:
    """Serves each value once, in order, in blocks of ``_BLOCK``: the subclass's
    ``_draw()`` from ``rng``, or the next slice of a finite ``values`` array."""

    _BLOCK = BLOCK_PULSES  # even; no served value depends on the size

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 values: Optional[np.ndarray] = None):
        self._rng = rng
        self._values = values
        # The current block, as an array for ``take`` and as a plain list for
        # cheap scalar serving. Each view is made when first needed; a list
        # view drops the array, so scalar-only use holds just the list.
        self._block: Optional[np.ndarray] = None
        self._buffer: list = []
        self._start = 0  # values served before the current block
        self._pos = self._size = 0  # no block drawn yet

    @property
    def cursor(self) -> int:
        """Values served so far."""
        return self._start + self._pos

    def remaining(self) -> Optional[int]:
        """Values left, or None when the stream is unbounded."""
        return None if self._values is None else int(self._values.size - self.cursor)

    def _refill(self) -> None:
        start = self.cursor
        if self._values is None:
            block = self._draw()
        else:
            block = self._values[start:start + self._BLOCK]
        if not block.size:
            raise BitSourceExhausted("requested 1 bit, 0 left")
        self._block, self._buffer = block, []
        self._start, self._pos, self._size = start, 0, block.size

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` values as a new array; a finite stream refuses, serving
        nothing, a request it cannot fill whole."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        left = self.remaining()
        if left is not None and n > left:
            raise BitSourceExhausted(f"requested {n} bits, {left} left")
        parts = []
        while n > 0:
            if self._pos >= self._size:
                self._refill()
            if self._block is None:
                self._block = np.array(self._buffer, dtype=self._DTYPE)
            chunk = self._block[self._pos:self._pos + n]
            parts.append(chunk)
            self._pos += chunk.size
            n -= chunk.size
        return np.concatenate(parts) if parts else np.empty(0, dtype=self._DTYPE)

    def _scalar(self):
        """Next single value as a Python scalar; same stream as :meth:`take`."""
        pos = self._pos
        if pos >= len(self._buffer):
            if pos >= self._size:
                self._refill()
                pos = 0
            self._buffer = self._block.tolist()
            self._block = None
        self._pos = pos + 1
        return self._buffer[pos]


class BitSource(_BlockStream):
    """Random bits as uint8: unbounded from a seeded PCG64 generator
    (``from_seed``), or finite from bits loaded from key files, served in
    file order."""

    _DTYPE = np.uint8

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "BitSource":
        return cls(derive_rng(seed, stream))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitSource":
        arr = np.asarray(bits)  # checked as given: a cast would wrap 256 to 0, 1.5 to 1
        if arr.size and not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0 or 1")
        return cls(values=arr.astype(np.uint8))  # a copy: the caller's array stays theirs

    @classmethod
    def from_key_files(cls, paths: Sequence[str]) -> "BitSource":
        from .keyfile import read_key_file

        blocks = [read_key_file(p) for p in paths]
        if not blocks:
            raise ValueError("at least one key file required")
        return cls(values=np.concatenate(blocks))

    def _draw(self) -> np.ndarray:
        # integers(0, 2) never rejects (Lemire's threshold is 0 for two values): bit k is the
        # top bit of the k-th 32-bit half of the PCG64 words, low half first (O'Neill 2014).
        raw = self._rng.bit_generator.random_raw(self._BLOCK // 2)
        return (raw.astype("<u8", copy=False).view("<i4") < 0).view(np.uint8)

    take_bit = _BlockStream._scalar


class UniformSampler(_BlockStream):
    """Uniform doubles in [0, 1) from a seeded generator."""

    _DTYPE = np.float64

    def _draw(self) -> np.ndarray:
        return self._rng.random(self._BLOCK)

    next = _BlockStream._scalar
