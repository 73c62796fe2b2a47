"""Bit-exact wire format for the classical and quantum-sim channel.

Every frame is

    version u8 (0x01) | msg_type u8 | length u32 LE | payload

with ``length`` counting payload bytes only. ``WIRE_TYPES`` declares each
type once: its message class, its fixed fields as little-endian struct codes
(``pol`` as 4 x f64, last) and the bytes its array tail may add. README's
"Wire format" table lays out every payload; the tails are

    0x01 SESSION_START       the 32-byte seeds commitment
    0x04 DETECTIONS          count x index u64, strictly increasing
    0x05 BASES               ceil(count/8) bytes, bit i = byte[i//8] >> (i%8),
                             unused high bits zero (the key-file bit packing)
    0x06 DISCLOSE            count x (index u64 | bit u8), indices strictly
                             increasing, bits 0 or 1
    0x0A QFRAME_WINDOW_BACK  count x symbol u8 (2 * bit + basis, below 4)
    0x0B DETECTIONS_BLOCK    windows x end u64 | clicks x index u64; 1 ..
                             BLOCK_PULSES ends, both strictly increasing,
                             every index below the last end

QFRAME_OUT / QFRAME_BACK carry one pulse each, and DETECTIONS acknowledges
one ack window; the per-pulse session engine (wrapped endpoints, custom
physics) uses them. The window frames carry up to BLOCK_PULSES (65,536)
consecutive pulses each, and one DETECTIONS_BLOCK acknowledges every ack
window a block closes: window k holds the indices from end k - 1 (or the
previous frame's last end) up to end k. The batched engine uses them over both in-process and
socket endpoints. Array payloads are numpy arrays (uint8 symbols and BASES
bits, uint64 ends and indices, DISCLOSE items as ``DISCLOSE_RECORD``s laid
out as on the wire), each decoded in one numpy call, so a decoded frame
costs little memory beyond its bytes or bits. Encoding also takes plain
sequences for BASES and DISCLOSE; DETECTIONS keeps a tuple of ints.

Encode and decode run from that one table and share each check, and either
raises ProtocolViolationError: a float must be finite and exact (an int
that float() rounds is refused), bits must pass ``keyfile.bit_array``, a
field must fit its struct code and a payload its type's bounds, which
``decode_header`` checks before a receiver reads any payload. Encoding is
canonical: each message has exactly one valid byte string, so encode is
injective and decode(encode(m)) == m.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import NamedTuple, Tuple, Union

import numpy as np

from .errors import IncompleteFrameError, ProtocolViolationError
from .keyfile import bit_array, pack_bits, unpack_bits

WIRE_VERSION = 1
HEADER = struct.Struct("<BBI")

# Most pulses one window frame carries, and most ends one DETECTIONS_BLOCK
# carries.
BLOCK_PULSES = 65536
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

_INDICES = np.dtype("<u8")
DISCLOSE_RECORD = np.dtype([("index", "<u8"), ("bit", "u1")])
_U32_MAX = 2 ** 32 - 1


class WireType:
    """One frame type: its name, its message class, its fixed fields as struct codes
    (``pol`` flattened last), then an array tail of least .. most bytes."""

    def __init__(self, name: str, cls: type, fields: str, most_tail: int = 0,
                 least_tail: int = 0):
        self.name, self.cls, self.fixed = name, cls, struct.Struct("<" + fields)
        zeros = self.fixed.unpack(bytes(self.fixed.size))
        # Where the f64 fields sit, and where pol starts if the type has one.
        self.floats = tuple(i for i, value in enumerate(zeros) if isinstance(value, float))
        self.pol = len(zeros) - 4 if "pol" in cls._fields else None
        self.n_values = len(zeros)
        self.least = self.fixed.size + least_tail
        self.most = min(self.fixed.size + most_tail, _U32_MAX)

    def check_length(self, length: int) -> None:
        if not self.least <= length <= self.most:
            raise ProtocolViolationError(
                f"{self.name} payload of {length} bytes, allowed {self.least}..{self.most}"
            )

    def check_floats(self, values) -> None:
        # An int that float() rounds (above 2**53) would share another message's frame.
        for i in self.floats:
            if not math.isfinite(values[i]) or float(values[i]) != values[i]:
                raise ProtocolViolationError(
                    f"{self.name} float {values[i]!r} is not finite or not exact")

    def pack(self, values) -> bytes:
        packed = self.fixed.pack(*values)  # first: it refuses a wrong count or kind of value
        self.check_floats(values)
        return packed

    def fields(self, msg: Message) -> tuple:
        """``msg``'s fixed fields in wire order."""
        return msg[:self.n_values] if self.pol is None else (*msg[:self.pol], *msg.pol)

    def message(self, values: tuple, *tail) -> Message:
        """The message of fixed ``values``, with any ``tail`` fields before pol."""
        if self.pol is None:
            return self.cls(*values, *tail)
        return self.cls(*values[:self.pol], *tail, values[self.pol:])


# Every wire type, by its code. The count-prefixed types are bounded only by
# the u32 length field, so receivers read them in chunks.
WIRE_TYPES = {
    0x01: WireType("SESSION_START", SessionStart, "QBd", most_tail=32, least_tail=32),
    0x02: WireType("QFRAME_OUT", QFrameOut, "Qd4d"),
    0x03: WireType("QFRAME_BACK", QFrameBack, "Qdd4d"),
    0x04: WireType("DETECTIONS", Detections, "I", most_tail=_U32_MAX),
    0x05: WireType("BASES", Bases, "I", most_tail=_U32_MAX),
    0x06: WireType("DISCLOSE", Disclose, "I", most_tail=_U32_MAX),
    0x07: WireType("ER_REPORT", ErReport, "d"),
    0x08: WireType("TERMINATE", Terminate, "B"),
    0x09: WireType("QFRAME_WINDOW_OUT", QFrameWindowOut, "QId4d"),
    0x0A: WireType("QFRAME_WINDOW_BACK", QFrameWindowBack, "QId4d", most_tail=BLOCK_PULSES),
    0x0B: WireType("DETECTIONS_BLOCK", DetectionsBlock, "II", most_tail=_U32_MAX,
                   least_tail=_INDICES.itemsize),  # at least one end
}
_BY_CLASS = {wire.cls: (code, wire) for code, wire in WIRE_TYPES.items()}
_OWN_FIELDS = {cls: wire for cls, (_, wire) in _BY_CLASS.items() if wire.most < _U32_MAX}


def index_array(values, what: str) -> np.ndarray:
    """``values`` as a uint64 array; ProtocolViolationError unless they are
    integers that fit u64 and strictly increase."""
    try:
        if not isinstance(values, np.ndarray):
            values = np.fromiter(map(operator.index, values), _INDICES)
        elif values.dtype.kind != "u" and (values.dtype.kind != "i" or np.any(values < 0)):
            raise TypeError
    except (OverflowError, TypeError, ValueError):
        raise ProtocolViolationError(f"{what} must be integers that fit in u64") from None
    values = values.astype(_INDICES, copy=False)
    if values.ndim != 1 or np.count_nonzero(values[1:] <= values[:-1]):
        raise ProtocolViolationError(f"{what} must be strictly increasing")
    return values


def check_window_symbols(frame: QFrameWindowBack) -> np.ndarray:
    """The frame's symbols; ProtocolViolationError unless they are ``count`` uint8
    values 2 * bit + basis. Decoding checks this; in-process receivers call it."""
    symbols = frame.symbols
    if not (isinstance(symbols, np.ndarray) and symbols.dtype == np.uint8
            and symbols.shape == (frame.count,)):
        raise ProtocolViolationError("window symbols must be count uint8 values")
    if symbols.size and symbols.max() >= _SYMBOLS:
        raise ProtocolViolationError("window symbol is outside the alphabet")
    return symbols


def check_detections_block(ends, indices) -> Tuple[np.ndarray, np.ndarray]:
    """Both fields as uint64 arrays; ProtocolViolationError unless a valid block.

    Decoding checks this; in-process receivers, whose messages skip the
    wire and may carry any sequences, call it themselves.
    """
    ends = index_array(ends, "DETECTIONS_BLOCK ends")
    indices = index_array(indices, "DETECTIONS_BLOCK indices")
    if not 1 <= ends.size <= BLOCK_PULSES:
        raise ProtocolViolationError(
            f"DETECTIONS_BLOCK carries {ends.size} windows, allowed 1..{BLOCK_PULSES}"
        )
    if indices.size and indices[-1] >= ends[-1]:
        raise ProtocolViolationError("DETECTIONS_BLOCK index at or past its last end")
    return ends, indices


def disclose_records(items) -> np.ndarray:
    """Any sequence of DISCLOSE (index, bit) pairs as a ``DISCLOSE_RECORD`` array.

    ProtocolViolationError unless the indices fit u64 and strictly increase
    and every bit is 0 or 1. Decoding checks this; in-process receivers call it.
    """
    if not isinstance(items, np.ndarray):
        try:
            pairs = [(index, bit) for index, bit in items]
        except (TypeError, ValueError):
            raise ProtocolViolationError("DISCLOSE items must be (index, bit) pairs") from None
        # Each column is checked as given: a cast into the record first would
        # cut index 5.9 to 5 and bit 0.5 to 0.
        records = np.empty(len(pairs), DISCLOSE_RECORD)
        records["index"] = index_array([index for index, _ in pairs], "DISCLOSE indices")
        records["bit"] = bit_array([bit for _, bit in pairs], ProtocolViolationError)
        return records
    if items.dtype != DISCLOSE_RECORD or items.ndim != 1:
        raise ProtocolViolationError("DISCLOSE items must be one array of records")
    bit_array(items["bit"], ProtocolViolationError)
    index_array(items["index"], "DISCLOSE indices")
    return items


def _payload(wire: WireType, msg: Message) -> bytes:
    """``msg``'s fixed fields, then its array tail if its type has one."""
    cls = wire.cls
    if wire.most == wire.fixed.size:
        return wire.pack(wire.fields(msg))
    if cls is SessionStart:
        return wire.pack(wire.fields(msg)) + msg.seeds_commitment
    if cls is QFrameWindowBack:
        return wire.pack(wire.fields(msg)) + check_window_symbols(msg).tobytes()
    if cls is Bases:
        return wire.pack((len(msg.bits),)) + pack_bits(msg.bits, ProtocolViolationError)
    if cls is Disclose:
        records = disclose_records(msg.items)
        return wire.pack((records.size,)) + records.tobytes()
    if cls is Detections:
        indices = index_array(msg.indices, "DETECTIONS indices")
        return wire.pack((indices.size,)) + indices.tobytes()
    for values in msg:
        if not (isinstance(values, np.ndarray) and values.dtype == _INDICES
                and values.ndim == 1):
            raise ProtocolViolationError("DETECTIONS_BLOCK fields must be uint64 arrays")
    ends, indices = check_detections_block(msg.ends, msg.indices)
    return wire.pack((ends.size, indices.size)) + ends.tobytes() + indices.tobytes()


def check_fields(msg: Message) -> Message:
    """``msg``; ProtocolViolationError, as encoding raises, unless its fixed fields fit their
    struct codes, as decoded ones do. In-process receivers call it. Count-prefixed types,
    whose fixed fields count a tail with its own check, and non-messages pass."""
    wire = _OWN_FIELDS.get(type(msg))
    if wire is not None:
        try:
            wire.fixed.pack(*wire.fields(msg))
        except (struct.error, TypeError) as exc:
            raise ProtocolViolationError(f"{wire.name} field does not fit: {exc}") from None
    return msg


def encode_frame(msg: Message) -> bytes:
    """The frame of ``msg``; ProtocolViolationError for a message its type cannot carry."""
    code, wire = _BY_CLASS.get(type(msg), (None, None))
    if wire is None:
        raise ProtocolViolationError(f"unknown message {msg!r}")
    try:
        payload = _payload(wire, msg)
    except (struct.error, TypeError) as exc:
        # An int outside its field's range, a float where an int belongs, a
        # wrong number of pol values, or a value of no wire type at all.
        raise ProtocolViolationError(f"{wire.name} field does not fit: {exc}") from None
    wire.check_length(len(payload))
    return HEADER.pack(WIRE_VERSION, code, len(payload)) + payload


def decode_header(header: bytes) -> Tuple[int, int]:
    """(msg_type, payload length) of a frame header.

    The length must lie within the type's bounds, so a receiver can check a
    header before it reads, or allocates room for, any payload.
    """
    version, msg_type, length = HEADER.unpack(header)
    if version != WIRE_VERSION:
        raise ProtocolViolationError(f"unsupported wire version {version}")
    if msg_type not in WIRE_TYPES:
        raise ProtocolViolationError(f"unknown msg_type 0x{msg_type:02x}")
    WIRE_TYPES[msg_type].check_length(length)
    return msg_type, length


def _tail_array(wire: WireType, payload: bytes, dtype: np.dtype, count: int) -> np.ndarray:
    if len(payload) != wire.fixed.size + dtype.itemsize * count:
        raise ProtocolViolationError(f"{wire.name} payload has wrong size")
    return np.frombuffer(payload, dtype, offset=wire.fixed.size)


def decode_payload(msg_type: int, payload: bytes) -> Message:
    """The message of a payload whose header ``decode_header`` accepted."""
    wire = WIRE_TYPES[msg_type]
    values = wire.fixed.unpack_from(payload)
    wire.check_floats(values)
    if wire.most == wire.fixed.size:
        return wire.message(values)
    cls, offset = wire.cls, wire.fixed.size
    if cls is SessionStart:
        return SessionStart(*values, payload[offset:])
    if cls is QFrameWindowBack:
        msg = wire.message(values, np.frombuffer(payload, np.uint8, offset=offset))
        check_window_symbols(msg)
        return msg
    if cls is Bases:
        return Bases(unpack_bits(payload[offset:], values[0], ProtocolViolationError))
    if cls is Disclose:
        return Disclose(disclose_records(_tail_array(wire, payload, DISCLOSE_RECORD, values[0])))
    if cls is Detections:
        indices = _tail_array(wire, payload, _INDICES, values[0])
        return Detections(tuple(index_array(indices, "DETECTIONS indices").tolist()))
    windows, clicks = values
    both = _tail_array(wire, payload, _INDICES, windows + clicks)
    return DetectionsBlock(*check_detections_block(both[:windows], both[windows:]))


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
