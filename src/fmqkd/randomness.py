"""Seeded random streams and the bit sources that feed the protocol.

Every consumer gets its own derived generator so streams never interleave.
One block stream serves random bits, key-file bits and uniforms. Each ``take``
draws exactly the values it is missing, so a window frame draws its own pulses
and no more; a scalar draw refills ``_BLOCK`` values at a time. Each sequence
is independent of how callers chunk their requests; that is what keeps both
engines and both channel modes bit-identical. Random bits are the bits
``integers(0, 2)`` would draw, read straight from the PCG64 output words at a
fraction of its cost, two per word: an odd draw keeps its spare bit in the
block for the next request.
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
    """Serves each value once, in order, from a block: the subclass's
    ``_draw(count)`` from ``rng``, or the next slice of a finite ``values`` array."""

    # Even: the scalar refill size, and the most bits a raw-word draw makes at
    # a time. No served value depends on it.
    _BLOCK = BLOCK_PULSES

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

    def _refill(self, count: int) -> None:
        """Replaces the spent block with the next ``count`` values: one more
        when random bits round up to a whole word, fewer at the end of a
        finite stream."""
        start = self.cursor
        if self._values is None:
            block = self._draw(count)
        else:
            block = self._values[start:start + count]
        if not block.size:
            raise BitSourceExhausted("requested 1 bit, 0 left")
        self._block, self._buffer = block, []
        self._start, self._pos, self._size = start, 0, block.size

    def _served(self, n: int) -> np.ndarray:
        """The next ``n`` values of the current block, as a view."""
        if self._block is None:
            self._block = np.array(self._buffer, dtype=self._DTYPE)
        self._pos += n
        return self._block[self._pos - n:self._pos]

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` values as a new array; a finite stream refuses, serving
        nothing, a request it cannot fill whole."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        left = self.remaining()
        if left is not None and n > left:
            raise BitSourceExhausted(f"requested {n} bits, {left} left")
        held = self._size - self._pos
        if n <= held:
            return self._served(n).copy()
        parts = [self._served(held)] if held else []
        self._refill(n - held)
        if not parts and self._size == n and self._values is None:
            self._pos = n
            return self._block  # a fresh draw owns its memory: no copy
        parts.append(self._served(n - held))
        return np.concatenate(parts)

    def _scalar(self):
        """Next single value as a Python scalar; same stream as :meth:`take`."""
        pos = self._pos
        if pos >= len(self._buffer):
            if pos >= self._size:
                self._refill(self._BLOCK)
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

    def _draw(self, count: int) -> np.ndarray:
        # integers(0, 2) never rejects (Lemire's threshold is 0 for two values): bit k is the
        # top bit of the k-th 32-bit half of the PCG64 words, low half first (O'Neill 2014).
        # Whole words, so an odd count draws one spare bit; _BLOCK bits at a time, so a
        # large draw needs little scratch beyond its output.
        out = np.empty(count + count % 2, np.uint8)
        for lo in range(0, out.size, self._BLOCK):
            chunk = out[lo:lo + self._BLOCK]
            raw = self._rng.bit_generator.random_raw(chunk.size // 2).astype("<u8", copy=False)
            np.less(raw.view("<i4"), 0, out=chunk.view(np.bool_))
        return out

    take_bit = _BlockStream._scalar


class UniformSampler(_BlockStream):
    """Uniform doubles in [0, 1) from a seeded generator."""

    _DTYPE = np.float64

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.random(count)

    next = _BlockStream._scalar
