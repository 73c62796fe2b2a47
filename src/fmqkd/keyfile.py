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
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import KeyFileError

MAGIC = b"QKDR"
VERSION = 1
HEADER_SIZE = 12
NATIVE_BLOCK_BITS = 65535

_HEADER = struct.Struct("<4sB3sI")


def pack_bits(bits, error=KeyFileError) -> bytes:
    """Any sequence of 0 and 1, packed LSB first; ``error`` for other values."""
    bits = np.asarray(bits)
    if not np.all((bits == 0) | (bits == 1)):
        raise error("bits must be 0 or 1")
    return np.packbits(bits.astype(np.uint8, copy=False), bitorder="little").tobytes()


def unpack_bits(payload: bytes, bit_count: int, error=KeyFileError) -> np.ndarray:
    """The ``bit_count`` bits packed in ``payload`` as uint8; ``error`` unless the
    payload is exactly ceil(bit_count / 8) bytes with zero padding bits."""
    expected = (bit_count + 7) // 8
    if len(payload) != expected:
        raise error(f"payload is {len(payload)} bytes, {bit_count} bits take {expected}")
    if bit_count % 8 and payload[-1] >> (bit_count % 8):
        raise error("padding bits in the final byte must be zero")
    return np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=bit_count,
                         bitorder="little")


def encode_key_block(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size >= 2 ** 32:
        raise KeyFileError("bit count exceeds the u32 header field")
    header = _HEADER.pack(MAGIC, VERSION, b"\x00\x00\x00", bits.size)
    return header + pack_bits(bits)


def decode_key_block(data: bytes) -> np.ndarray:
    if len(data) < HEADER_SIZE:
        raise KeyFileError(f"file shorter than the {HEADER_SIZE}-byte header")
    magic, version, reserved, bit_count = _HEADER.unpack(data[:HEADER_SIZE])
    if magic != MAGIC:
        raise KeyFileError(f"bad magic {magic!r}")
    if version != VERSION:
        raise KeyFileError(f"unsupported version {version}")
    if reserved != b"\x00\x00\x00":
        raise KeyFileError("reserved header bytes must be zero")
    return unpack_bits(data[HEADER_SIZE:], bit_count)


def write_key_file(path: Union[str, Path], bits: np.ndarray) -> None:
    Path(path).write_bytes(encode_key_block(bits))


def read_key_file(path: Union[str, Path]) -> np.ndarray:
    return decode_key_block(Path(path).read_bytes())
