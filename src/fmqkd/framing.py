"""Bit-exact wire format for the classical and quantum-sim channel.

Every frame is

    version u8 (0x01) | msg_type u8 | length u32 LE | payload

with ``length`` counting payload bytes only. Payloads, all little-endian:

    0x01 SESSION_START  n_pulses u64 | variant u8 | mu_pair f64 | commitment 32B
    0x02 QFRAME_OUT     index u64 | mean_photons f64 | pol 4 x f64
    0x03 QFRAME_BACK    index u64 | mean_photons f64 | phase_a f64 | pol 4 x f64
    0x04 DETECTIONS     count u32 | count x index u64, strictly increasing
    0x05 BASES          count u32 | ceil(count/8) bytes, bit i = byte[i//8] >> (i%8),
                        unused high bits zero (the key-file bit packing)
    0x06 DISCLOSE       count u32 | count x (index u64 | bit u8), indices strictly
                        increasing, bits 0 or 1
    0x07 ER_REPORT      error_rate f64
    0x08 TERMINATE      reason u8
    0x09 QFRAME_WINDOW_OUT   start u64 | count u32 | mean_photons f64 | pol 4 x f64
    0x0A QFRAME_WINDOW_BACK  start u64 | count u32 | mean_photons f64 | pol 4 x f64 |
                             count x symbol u8 (2 * bit + basis, below 4)
    0x0B DETECTIONS_BLOCK    windows u32 | clicks u32 | windows x end u64 |
                             clicks x index u64; 1 .. BLOCK_PULSES ends, both
                             strictly increasing, every index below the last end

QFRAME_OUT / QFRAME_BACK carry one pulse each, and DETECTIONS acknowledges
one ack window; the per-pulse session engine (wrapped endpoints, custom
physics) uses them. The window frames carry up to BLOCK_PULSES consecutive
pulses each, and one DETECTIONS_BLOCK acknowledges every ack window a block
closes: window k holds the indices from end k - 1 (or the previous frame's
last end) up to end k. The batched engine uses them over both in-process and
socket endpoints. Array payloads are numpy arrays (uint8 symbols and BASES
bits, uint64 ends and indices, DISCLOSE items as ``DISCLOSE_RECORD``s laid
out as on the wire), each decoded in one numpy call, so a decoded frame
costs little memory beyond its bytes or bits. Encoding also takes plain
sequences for BASES and DISCLOSE; DETECTIONS keeps a tuple of ints.

Encoding is canonical: each message has exactly one valid byte string, so
encode is injective and decode(encode(m)) == m. Every type bounds its
payload length, and ``decode_header`` checks the length field against that
bound before a receiver reads any payload.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Tuple, Union

import numpy as np

from .errors import IncompleteFrameError, ProtocolViolationError
from .keyfile import pack_bits, unpack_bits

WIRE_VERSION = 1
HEADER = struct.Struct("<BBI")

MSG_SESSION_START = 0x01
MSG_QFRAME_OUT = 0x02
MSG_QFRAME_BACK = 0x03
MSG_DETECTIONS = 0x04
MSG_BASES = 0x05
MSG_DISCLOSE = 0x06
MSG_ER_REPORT = 0x07
MSG_TERMINATE = 0x08
MSG_QFRAME_WINDOW_OUT = 0x09
MSG_QFRAME_WINDOW_BACK = 0x0A
MSG_DETECTIONS_BLOCK = 0x0B

# Most pulses one window frame carries, and most ends one DETECTIONS_BLOCK
# carries.
BLOCK_PULSES = 16384
# Window symbols are 2 * bit + basis.
_SYMBOLS = 4

TERMINATE_NORMAL = 0
TERMINATE_CONFIG_MISMATCH = 1
TERMINATE_PROTOCOL_VIOLATION = 2
TERMINATE_ABORTED = 3


class SessionStart(NamedTuple):
    n_pulses: int
    variant_code: int
    mu_pair: float
    seeds_commitment: bytes


class QFrameOut(NamedTuple):
    index: int
    mean_photons: float
    pol: Tuple[float, float, float, float]


class QFrameBack(NamedTuple):
    index: int
    mean_photons: float
    phase_a: float
    pol: Tuple[float, float, float, float]


class QFrameWindowOut(NamedTuple):
    """Outgoing frames ``start .. start + count - 1`` in one message."""

    start: int
    count: int
    mean_photons: float
    pol: Tuple[float, float, float, float]


class QFrameWindowBack(NamedTuple):
    """Returned frames of one window; ``symbols`` is a uint8 array of 2 * bit + basis."""

    start: int
    count: int
    mean_photons: float
    symbols: np.ndarray
    pol: Tuple[float, float, float, float]


class Detections(NamedTuple):
    indices: Tuple[int, ...]


class DetectionsBlock(NamedTuple):
    """Acknowledged ack windows and their clicks, as uint64 arrays.

    ``ends`` are the windows' end pulses (exclusive); ``indices`` are every
    click of those windows.
    """

    ends: np.ndarray
    indices: np.ndarray


class Bases(NamedTuple):
    """One basis per detection, as a uint8 array."""

    bits: np.ndarray


class Disclose(NamedTuple):
    """Disclosed (index, bit) pairs, as a ``DISCLOSE_RECORD`` array."""

    items: np.ndarray


class ErReport(NamedTuple):
    error_rate: float


class Terminate(NamedTuple):
    reason: int


Message = Union[
    SessionStart, QFrameOut, QFrameBack, Detections, Bases, Disclose, ErReport, Terminate,
    QFrameWindowOut, QFrameWindowBack, DetectionsBlock,
]

_SESSION_START = struct.Struct("<QBd")
_QFRAME_OUT = struct.Struct("<Qd4d")
_QFRAME_BACK = struct.Struct("<Qdd4d")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_WINDOW = struct.Struct("<QId4d")
_BLOCK_COUNTS = struct.Struct("<II")
_INDICES = np.dtype("<u8")
DISCLOSE_RECORD = np.dtype([("index", "<u8"), ("bit", "u1")])

# Least and most payload bytes of each type. The variable-size types are
# bounded only by the u32 length field, so receivers read them in chunks.
_U32_MAX = 2 ** 32 - 1
_PAYLOAD_BOUNDS = {
    MSG_SESSION_START: (_SESSION_START.size + 32,) * 2,
    MSG_QFRAME_OUT: (_QFRAME_OUT.size,) * 2,
    MSG_QFRAME_BACK: (_QFRAME_BACK.size,) * 2,
    MSG_DETECTIONS: (4, _U32_MAX),
    MSG_BASES: (4, _U32_MAX),
    MSG_DISCLOSE: (4, _U32_MAX),
    MSG_ER_REPORT: (_F64.size,) * 2,
    MSG_TERMINATE: (1, 1),
    MSG_QFRAME_WINDOW_OUT: (_WINDOW.size,) * 2,
    MSG_QFRAME_WINDOW_BACK: (_WINDOW.size, _WINDOW.size + BLOCK_PULSES),
    MSG_DETECTIONS_BLOCK: (_BLOCK_COUNTS.size + _INDICES.itemsize, _U32_MAX),
}


def _require_finite(value: float, field: str) -> None:
    if not math.isfinite(value):
        raise ProtocolViolationError(f"{field} must be finite, got {value!r}")


def _require_pol(pol) -> None:
    for x in pol:
        _require_finite(x, "pol")


def _require_index(value: int, field: str) -> None:
    if not (0 <= value < 2 ** 64):
        raise ProtocolViolationError(f"{field} must fit in u64, got {value!r}")


def index_array(values, what: str) -> np.ndarray:
    """``values`` as a uint64 array; ProtocolViolationError unless they fit
    u64 and strictly increase."""
    try:
        values = np.asarray(values, _INDICES)
    except (OverflowError, TypeError, ValueError):
        raise ProtocolViolationError(f"{what} must fit in u64") from None
    if values.ndim != 1 or np.count_nonzero(values[1:] <= values[:-1]):
        raise ProtocolViolationError(f"{what} must be strictly increasing")
    return values


def _pack_window(msg) -> bytes:
    _require_index(msg.start, "start")
    if not (0 <= msg.count <= _U32_MAX):
        raise ProtocolViolationError(f"window count must fit in u32, got {msg.count!r}")
    _require_finite(msg.mean_photons, "mean_photons")
    _require_pol(msg.pol)
    return _WINDOW.pack(msg.start, msg.count, msg.mean_photons, *msg.pol)


def _unpack_window(payload: bytes):
    start, count, mean_photons, *pol = _WINDOW.unpack_from(payload)
    _require_finite(mean_photons, "mean_photons")
    _require_pol(pol)
    return start, count, mean_photons, tuple(pol)


def _require_symbols(symbols: np.ndarray) -> None:
    if symbols.size and symbols.max() >= _SYMBOLS:
        raise ProtocolViolationError("window symbol is outside the alphabet")


def check_detections_block(ends: np.ndarray, indices: np.ndarray) -> None:
    """Raise ProtocolViolationError unless the arrays form a valid DETECTIONS_BLOCK.

    Decoding checks this; in-process receivers, whose messages skip the
    wire, call it themselves.
    """
    if not 1 <= ends.size <= BLOCK_PULSES:
        raise ProtocolViolationError(
            f"DETECTIONS_BLOCK carries {ends.size} windows, allowed 1..{BLOCK_PULSES}"
        )
    index_array(ends, "DETECTIONS_BLOCK ends")
    index_array(indices, "DETECTIONS_BLOCK indices")
    if indices.size and indices[-1] >= ends[-1]:
        raise ProtocolViolationError("DETECTIONS_BLOCK index at or past its last end")


def disclose_records(items) -> np.ndarray:
    """Any sequence of DISCLOSE (index, bit) pairs as a ``DISCLOSE_RECORD`` array.

    ProtocolViolationError unless the indices fit u64 and strictly increase
    and every bit is 0 or 1. Decoding checks this; in-process receivers call it.
    """
    if not isinstance(items, np.ndarray):
        try:
            items = np.array(list(items), DISCLOSE_RECORD)
        except (OverflowError, TypeError, ValueError):
            raise ProtocolViolationError("DISCLOSE items must be (index, bit) pairs") from None
    if items.dtype != DISCLOSE_RECORD or items.ndim != 1:
        raise ProtocolViolationError("DISCLOSE items must be one array of records")
    if np.count_nonzero(items["bit"] > 1):
        raise ProtocolViolationError("disclosed bits must be 0 or 1")
    index_array(items["index"], "DISCLOSE indices")
    return items


def _encode_payload(msg: Message) -> Tuple[int, bytes]:
    if isinstance(msg, SessionStart):
        _require_index(msg.n_pulses, "n_pulses")
        _require_finite(msg.mu_pair, "mu_pair")
        if not (0 <= msg.variant_code <= 0xFF):
            raise ProtocolViolationError(f"variant_code must be a u8, got {msg.variant_code}")
        if len(msg.seeds_commitment) != 32:
            raise ProtocolViolationError("seeds_commitment must be exactly 32 bytes")
        return MSG_SESSION_START, _SESSION_START.pack(
            msg.n_pulses, msg.variant_code, msg.mu_pair
        ) + msg.seeds_commitment
    if isinstance(msg, QFrameOut):
        _require_index(msg.index, "index")
        _require_finite(msg.mean_photons, "mean_photons")
        _require_pol(msg.pol)
        return MSG_QFRAME_OUT, _QFRAME_OUT.pack(msg.index, msg.mean_photons, *msg.pol)
    if isinstance(msg, QFrameBack):
        _require_index(msg.index, "index")
        _require_finite(msg.mean_photons, "mean_photons")
        _require_finite(msg.phase_a, "phase_a")
        _require_pol(msg.pol)
        return MSG_QFRAME_BACK, _QFRAME_BACK.pack(
            msg.index, msg.mean_photons, msg.phase_a, *msg.pol
        )
    if isinstance(msg, QFrameWindowOut):
        return MSG_QFRAME_WINDOW_OUT, _pack_window(msg)
    if isinstance(msg, QFrameWindowBack):
        symbols = msg.symbols
        if not (isinstance(symbols, np.ndarray) and symbols.dtype == np.uint8
                and symbols.shape == (msg.count,)):
            raise ProtocolViolationError("window symbols must be count uint8 values")
        if msg.count > BLOCK_PULSES:
            raise ProtocolViolationError(
                f"window of {msg.count} frames exceeds {BLOCK_PULSES}"
            )
        _require_symbols(symbols)
        return MSG_QFRAME_WINDOW_BACK, _pack_window(msg) + symbols.tobytes()
    if isinstance(msg, Detections):
        indices = index_array(msg.indices, "DETECTIONS indices")
        return MSG_DETECTIONS, _U32.pack(indices.size) + indices.tobytes()
    if isinstance(msg, DetectionsBlock):
        for values in msg:
            if not (isinstance(values, np.ndarray) and values.dtype == _INDICES
                    and values.ndim == 1):
                raise ProtocolViolationError("DETECTIONS_BLOCK fields must be uint64 arrays")
        check_detections_block(msg.ends, msg.indices)
        return MSG_DETECTIONS_BLOCK, (_BLOCK_COUNTS.pack(msg.ends.size, msg.indices.size)
                                      + msg.ends.tobytes() + msg.indices.tobytes())
    if isinstance(msg, Bases):
        return MSG_BASES, _U32.pack(len(msg.bits)) + pack_bits(msg.bits, ProtocolViolationError)
    if isinstance(msg, Disclose):
        records = disclose_records(msg.items)
        return MSG_DISCLOSE, _U32.pack(records.size) + records.tobytes()
    if isinstance(msg, ErReport):
        _require_finite(msg.error_rate, "error_rate")
        return MSG_ER_REPORT, _F64.pack(msg.error_rate)
    if isinstance(msg, Terminate):
        if not (0 <= msg.reason <= 0xFF):
            raise ProtocolViolationError(f"terminate reason must be a u8, got {msg.reason}")
        return MSG_TERMINATE, bytes([msg.reason])
    raise ProtocolViolationError(f"unknown message {msg!r}")


def encode_frame(msg: Message) -> bytes:
    msg_type, payload = _encode_payload(msg)
    return HEADER.pack(WIRE_VERSION, msg_type, len(payload)) + payload


def decode_header(header: bytes) -> Tuple[int, int]:
    """(msg_type, payload length) of a frame header.

    The length must lie within the type's bounds, so a receiver can check a
    header before it reads, or allocates room for, any payload.
    """
    version, msg_type, length = HEADER.unpack(header)
    if version != WIRE_VERSION:
        raise ProtocolViolationError(f"unsupported wire version {version}")
    bounds = _PAYLOAD_BOUNDS.get(msg_type)
    if bounds is None:
        raise ProtocolViolationError(f"unknown msg_type 0x{msg_type:02x}")
    least, most = bounds
    if not least <= length <= most:
        raise ProtocolViolationError(
            f"msg_type 0x{msg_type:02x} payload of {length} bytes, "
            f"allowed {least}..{most}"
        )
    return msg_type, length


def decode_payload(msg_type: int, payload: bytes) -> Message:
    """The message of a payload whose header ``decode_header`` accepted."""
    if msg_type == MSG_SESSION_START:
        n_pulses, variant_code, mu_pair = _SESSION_START.unpack_from(payload)
        _require_finite(mu_pair, "mu_pair")
        return SessionStart(n_pulses, variant_code, mu_pair, payload[_SESSION_START.size:])
    if msg_type == MSG_QFRAME_OUT:
        index, mean_photons, *pol = _QFRAME_OUT.unpack(payload)
        _require_finite(mean_photons, "mean_photons")
        _require_pol(pol)
        return QFrameOut(index, mean_photons, tuple(pol))
    if msg_type == MSG_QFRAME_BACK:
        index, mean_photons, phase_a, *pol = _QFRAME_BACK.unpack(payload)
        _require_finite(mean_photons, "mean_photons")
        _require_finite(phase_a, "phase_a")
        _require_pol(pol)
        return QFrameBack(index, mean_photons, phase_a, tuple(pol))
    if msg_type == MSG_QFRAME_WINDOW_OUT:
        return QFrameWindowOut(*_unpack_window(payload))
    if msg_type == MSG_QFRAME_WINDOW_BACK:
        start, count, mean_photons, pol = _unpack_window(payload)
        if len(payload) != _WINDOW.size + count:
            raise ProtocolViolationError("QFRAME_WINDOW_BACK payload has wrong size")
        symbols = np.frombuffer(payload, np.uint8, offset=_WINDOW.size)
        _require_symbols(symbols)
        return QFrameWindowBack(start, count, mean_photons, symbols, pol)
    if msg_type == MSG_DETECTIONS:
        (count,) = _U32.unpack_from(payload)
        if len(payload) != 4 + 8 * count:
            raise ProtocolViolationError("DETECTIONS payload has wrong size")
        indices = np.frombuffer(payload, _INDICES, offset=4)
        return Detections(tuple(index_array(indices, "DETECTIONS indices").tolist()))
    if msg_type == MSG_DETECTIONS_BLOCK:
        windows, clicks = _BLOCK_COUNTS.unpack_from(payload)
        if len(payload) != _BLOCK_COUNTS.size + _INDICES.itemsize * (windows + clicks):
            raise ProtocolViolationError("DETECTIONS_BLOCK payload has wrong size")
        values = np.frombuffer(payload, _INDICES, offset=_BLOCK_COUNTS.size)
        ends, indices = values[:windows], values[windows:]
        check_detections_block(ends, indices)
        return DetectionsBlock(ends, indices)
    if msg_type == MSG_BASES:
        (count,) = _U32.unpack_from(payload)
        return Bases(unpack_bits(payload[4:], count, ProtocolViolationError))
    if msg_type == MSG_DISCLOSE:
        (count,) = _U32.unpack_from(payload)
        if len(payload) != 4 + DISCLOSE_RECORD.itemsize * count:
            raise ProtocolViolationError("DISCLOSE payload has wrong size")
        return Disclose(disclose_records(np.frombuffer(payload, DISCLOSE_RECORD, offset=4)))
    if msg_type == MSG_ER_REPORT:
        (er,) = _F64.unpack(payload)
        _require_finite(er, "error_rate")
        return ErReport(er)
    if msg_type == MSG_TERMINATE:
        return Terminate(payload[0])
    raise ProtocolViolationError(f"unknown msg_type 0x{msg_type:02x}")


def decode_frame(data: bytes) -> Message:
    """Decode exactly one frame; trailing bytes are a protocol violation."""
    if len(data) < HEADER.size:
        raise IncompleteFrameError(f"need {HEADER.size} header bytes, have {len(data)}")
    msg_type, length = decode_header(data[:HEADER.size])
    end = HEADER.size + length
    if len(data) < end:
        raise IncompleteFrameError(f"need {end} bytes, have {len(data)}")
    if len(data) > end:
        raise ProtocolViolationError(f"{len(data) - end} trailing bytes after frame")
    return decode_payload(msg_type, data[HEADER.size:end])
