"""Seeded random streams and the bit sources that feed the protocol.

Every consumer gets its own derived generator so streams never interleave.
A PRNG stream holds what is left of its last draw; a finite bit source its
bits packed, as key files hold them, unpacking only the bytes a take reads.
A ``take`` that needs more returns one new array, the values still held and
then exactly the values it was missing, drawn on the calling thread; a
scalar draw refills ``_BLOCK`` values at a time. No sequence depends on how
callers chunk their requests, which keeps both engines and both channel
modes bit-identical. Random bits are the bits ``integers(0, 2)`` would draw,
read two per PCG64 output word at a fraction of its cost; an odd draw holds
its last word's second bit.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import BitSourceExhausted, ConfigError
from .keyfile import encode_key_block, packed_key_block, packed_key_file


def derive_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream); deterministic."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream,)))


def check_key_file_paths(paths, name: str = "paths") -> None:
    """ConfigError naming ``name`` if ``paths`` is one path, not a sequence of them:
    read as a sequence, a path string is a path per character."""
    if isinstance(paths, (str, bytes, os.PathLike)):
        raise ConfigError(f"{name} must be a sequence of paths, got the one path {paths!r}")


class _Stream:
    """Serves each value once, in order, from what is left of the last draw from ``rng``."""

    # Even: the scalar refill size, and the most bits one raw-word read makes.
    # No served value depends on it.
    _BLOCK = 16384

    def __init__(self, rng: Optional[np.random.Generator]):
        self._rng = rng
        self._held = self._EMPTY
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` values as a new array."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        left = self._held.size - self._pos
        if n <= left:
            self._pos += n
            return self._held[self._pos - n:self._pos].copy()
        return self._refill(n - left)

    def _refill(self, count: int) -> np.ndarray:
        """The values still held and then ``count`` fresh ones, as one new
        array; the stream keeps only what the draw left over."""
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
    (``from_seed``), or finite, from key files in file order or from given bits."""

    _EMPTY = np.empty(0, np.uint8)  # nothing held; also the served dtype
    _left: Optional[int] = None  # bits left; None, unbounded, for a generator

    @classmethod
    def from_seed(cls, seed: int, stream: int = 0) -> "BitSource":
        return cls(derive_rng(seed, stream))

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "BitSource":
        return _PackedBits([packed_key_block(encode_key_block(bits))])  # checked as key files are

    @staticmethod
    def from_key_files(paths: Sequence[str]) -> "BitSource":
        check_key_file_paths(paths)
        return _PackedBits([packed_key_file(p) for p in paths])

    def remaining(self) -> Optional[int]:
        """Bits left, or None when the source is unbounded."""
        return self._left

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


class _PackedBits(BitSource):
    """A finite source: a (payload, bit count) per key file, unpacked as served."""

    def __init__(self, files: List[Tuple[np.ndarray, int]]):
        super().__init__(None)
        self._files = [file for file in files if file[1]]  # the cursor never rests on an empty one
        self._left = sum(count for _, count in self._files)
        self._file = self._bit = 0  # the next bit is bit ``_bit`` of file ``_file``

    def _serve(self, n: int) -> Tuple[np.ndarray, int, int]:
        """Serves up to ``n`` bits of one file, none if ``n`` are not left: payload, bit, count."""
        if n > self._left:
            raise BitSourceExhausted(f"requested {n} bits, {self._left} left")
        payload, count = self._files[self._file]
        bit, k = self._bit, min(count - self._bit, n)
        self._left -= k
        self._file, self._bit = (self._file + 1, 0) if bit + k == count else (self._file, bit + k)
        return payload, bit, k

    def take(self, n: int) -> np.ndarray:
        """Next ``n`` bits as a new array; refuses, serving nothing, what it cannot fill whole."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        spans, moves, at, size = [], [], 0, 0
        while at < n:  # the bytes that hold the take, per file
            payload, bit, k = self._serve(n - at)
            spans.append(payload[bit >> 3:(bit + k + 7) >> 3])
            moves.append((8 * size + bit % 8, at, k))
            size, at = size + spans[-1].size, at + k
        # One file's bytes are read in place; those of several, or of none, are joined.
        packed = spans[0] if len(spans) == 1 else np.concatenate([self._EMPTY, *spans])
        out = np.unpackbits(packed, bitorder="little")
        # A part starts at its bit offset, after the padding bits of the file before it: move
        # each left, in order, onto no part still to move. With no view, ``out`` shrinks in place.
        for src, dst, k in moves:
            if src != dst:
                out[dst:dst + k] = out[src:src + k]
        out.resize(n, refcheck=False)
        return out

    def take_bit(self) -> int:
        payload, bit, _ = self._serve(1)
        return payload.item(bit >> 3) >> (bit & 7) & 1


class UniformSampler(_Stream):
    """Uniform doubles in [0, 1) from a seeded generator."""

    _EMPTY = np.empty(0, np.float64)

    def _draw(self, out: np.ndarray) -> np.ndarray:
        self._rng.random(out=out)
        return self._EMPTY

    next = _Stream._scalar
