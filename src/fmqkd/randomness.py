"""Seeded random streams and the bit sources that feed the protocol.

Every consumer gets its own derived generator so streams never interleave.
A stream holds one array and a position in it: a key-file source all its
bits, which it never adds to; a PRNG source what is left of its last draw.
A ``take`` that needs more returns one new array, the values still held and
then exactly the values it was missing; a scalar draw refills ``_BLOCK``
values at a time. No sequence depends on how callers chunk their requests,
which keeps both engines and both channel modes bit-identical. Random bits
are the bits ``integers(0, 2)`` would draw, read two per PCG64 output word at
a fraction of its cost; an odd draw holds its last word's second bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .errors import BitSourceExhausted
from .keyfile import bit_array, read_key_file


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


class _Stream:
    """Serves each value once, in order, from one held array: a finite
    ``values`` array, or what is left of the last draw from ``rng``."""

    # Even: the scalar refill size, and the most bits one raw-word read makes.
    # No served value depends on it.
    _BLOCK = 16384

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 values: Optional[np.ndarray] = None):
        self._rng = rng
        self._held = self._EMPTY if values is None else values
        self._pos = 0

    def remaining(self) -> Optional[int]:
        """Values left, or None when the stream is unbounded."""
        return None if self._rng is not None else self._held.size - self._pos

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` values as a new array; a finite stream refuses, serving
        nothing, a request it cannot fill whole."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        left = self._held.size - self._pos
        if n <= left:
            self._pos += n
            return self._held[self._pos - n:self._pos].copy()
        if self._rng is None:
            raise BitSourceExhausted(f"requested {n} bits, {left} left")
        return self._refill(n - left)

    def _refill(self, count: int) -> np.ndarray:
        """The values still held and then ``count`` fresh ones, as one new
        array; the stream keeps only what the draw left over."""
        if self._rng is None:
            raise BitSourceExhausted("requested 1 bit, 0 left")
        left = self._held.size - self._pos
        out = np.empty(left + count, self._EMPTY.dtype)
        if left:
            out[:left] = self._held[self._pos:]
        self._held, self._pos = self._draw(out[left:]), 0
        return out

    def _scalar(self):
        """Next single value as a Python scalar; same stream as :meth:`take`."""
        pos = self._pos
        if pos == self._held.size:
            self._held, pos = self._refill(self._BLOCK), 0
        self._pos = pos + 1
        return self._held.item(pos)


class BitSource(_Stream):
    """Random bits as uint8: unbounded from a seeded PCG64 generator
    (``from_seed``), or finite from bits loaded from key files, served in
    file order."""

    _EMPTY = np.empty(0, np.uint8)  # nothing held; also the served dtype

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "BitSource":
        return cls(derive_rng(seed, stream))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitSource":
        return cls(values=bit_array(bits, ValueError).copy())  # the caller's array stays theirs

    @classmethod
    def from_key_files(cls, paths: Sequence[str]) -> "BitSource":
        blocks = [read_key_file(p) for p in paths]
        if not blocks:
            raise ValueError("at least one key file required")
        return cls(values=np.concatenate(blocks))

    def _draw(self, out: np.ndarray) -> np.ndarray:
        # integers(0, 2) never rejects (Lemire's threshold is 0 for two values): bit k is the
        # top bit of the k-th 32-bit half of the PCG64 words, low half first (O'Neill 2014).
        # _BLOCK bits a read, so a large draw needs little scratch. An odd count reads its last
        # word on its own and returns that word's second bit, to be served next.
        whole = out[:out.size - out.size % 2]
        for lo in range(0, whole.size, self._BLOCK):
            chunk = whole[lo:lo + self._BLOCK]
            raw = self._rng.bit_generator.random_raw(chunk.size // 2).astype("<u8", copy=False)
            np.less(raw.view("<i4"), 0, out=chunk.view(np.bool_))
        if whole.size == out.size:
            return self._EMPTY
        pair = np.empty(2, np.uint8)
        self._draw(pair)
        out[-1] = pair[0]
        return pair[1:]

    take_bit = _Stream._scalar


class UniformSampler(_Stream):
    """Uniform doubles in [0, 1) from a seeded generator."""

    _EMPTY = np.empty(0, np.float64)

    def _draw(self, out: np.ndarray) -> np.ndarray:
        self._rng.random(out=out)
        return self._EMPTY

    next = _Stream._scalar
