"""Bit-packed random-key file format.

Layout, little-endian throughout:

    offset  size  field
    0       4     magic "QKDR"
    4       1     format version (1)
    5       3     reserved, zero
    8       4     bit count, u32
    12      -     payload, ceil(bits / 8) bytes

Bit ``i`` of the stream is bit ``i % 8`` (LSB first) of payload byte
``i // 8``; unused high bits of the final byte are zero. The odd native
block size of 65535 bits is why the bit count is explicit.

Key files, BASES frames and bit sources share one check of their bits,
``bit_array``, which reads the values as given, in place.

Files are read by ``packed_key_file`` and written by ``write_key_file``, both
through ``open()`` with a ``str`` or ``os.PathLike`` path. They build no
``pathlib.Path``: on CPython 3.10, 3.11 and 3.13 a ``Path`` interns each part
of its path, so a process that opens key files for session after session
would churn the interned-string table and re-grow it by about 1 MB.
"""

from __future__ import annotations

import os
import struct
from typing import Tuple, Union

import numpy as np

from .errors import KeyFileError

MAGIC = b"QKDR"
VERSION = 1
HEADER_SIZE = 12
NATIVE_BLOCK_BITS = 65535
MAX_BITS = 2 ** 32 - 1  # the largest u32 bit count

_HEADER = struct.Struct("<4sB3sI")


def bit_array(bits, error) -> np.ndarray:
    """``bits`` as a one-dimensional uint8 array, not copied when it already is one;
    ``error`` unless it has at most MAX_BITS values, checked before any is read, and
    each, as given, is a bool or an integer 0 or 1: a cast first would wrap 256 to 0
    and cut 0.5 to 0."""
    try:
        arr = np.asarray(bits)
    except ValueError:  # a ragged sequence
        raise error("bits must be one-dimensional") from None
    if arr.ndim != 1:
        raise error("bits must be one-dimensional")
    if arr.size > MAX_BITS:
        raise error(f"{arr.size} bits, expected at most {MAX_BITS}")
    if arr.size and (arr.dtype.kind not in "biu" or arr.max() > 1 or arr.min() < 0):
        raise error("bits must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


def pack_bits(bits) -> bytes:
    """Any sequence of 0 and 1, packed LSB first; KeyFileError unless ``bit_array`` takes it."""
    return np.packbits(bit_array(bits, KeyFileError), bitorder="little").tobytes()


def packed_bits(payload, bit_count: int, error=KeyFileError) -> np.ndarray:
    """``payload`` as uint8, not copied; ``error`` unless ceil(bit_count / 8) bytes, padding 0."""
    expected = (bit_count + 7) // 8
    if len(payload) != expected:
        raise error(f"payload is {len(payload)} bytes, {bit_count} bits take {expected}")
    if bit_count % 8 and payload[-1] >> (bit_count % 8):
        raise error("padding bits in the final byte must be zero")
    return np.frombuffer(payload, np.uint8)


def encode_key_block(bits: np.ndarray) -> bytes:
    payload = pack_bits(bits)
    return _HEADER.pack(MAGIC, VERSION, b"\x00\x00\x00", len(bits)) + payload


def packed_key_block(data: bytes) -> Tuple[np.ndarray, int]:
    """A key file's payload, as uint8 sharing ``data``, and its bit count, or KeyFileError."""
    if len(data) < HEADER_SIZE:
        raise KeyFileError(f"file shorter than the {HEADER_SIZE}-byte header")
    magic, version, reserved, bit_count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise KeyFileError(f"bad magic {magic!r}")
    if version != VERSION:
        raise KeyFileError(f"unsupported version {version}")
    if reserved != b"\x00\x00\x00":
        raise KeyFileError("reserved header bytes must be zero")
    return packed_bits(memoryview(data)[HEADER_SIZE:], bit_count), bit_count


def decode_key_block(data: bytes) -> np.ndarray:
    payload, bit_count = packed_key_block(data)
    return np.unpackbits(payload, count=bit_count, bitorder="little")


def write_key_file(path: Union[str, os.PathLike], bits: np.ndarray) -> None:
    data = encode_key_block(bits)  # first: refused bits leave no file behind
    with open(path, "wb") as fh:
        fh.write(data)


def packed_key_file(path: Union[str, os.PathLike]) -> Tuple[np.ndarray, int]:
    """The key file at ``path`` as ``packed_key_block`` returns it, or KeyFileError."""
    with open(path, "rb") as fh:
        return packed_key_block(fh.read())


def read_key_file(path: Union[str, os.PathLike]) -> np.ndarray:
    payload, bit_count = packed_key_file(path)
    return np.unpackbits(payload, count=bit_count, bitorder="little")
