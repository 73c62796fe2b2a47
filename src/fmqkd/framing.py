"""Bit-exact wire format for the classical and quantum-sim channel.

Every frame is

    version u8 (0x01) | msg_type u8 | length u32 LE | payload

with ``length`` counting payload bytes only. ``WIRE_TYPES`` declares each
type once: its message class, its fixed fields as little-endian struct codes
(``pol`` as 4 x f64, last) and the bytes its array tail may add. README's
"Wire format" table lays out every payload; the tails are

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
one ack window; the per-pulse session engine (wrapped endpoints) uses
them. The window frames carry up to BLOCK_PULSES (65,536)
consecutive pulses each, and one DETECTIONS_BLOCK acknowledges every ack
window a block closes: window k holds the indices from end k - 1 (or the
previous frame's last end) up to end k. The batched engine uses them over both in-process and
socket endpoints. Array payloads are numpy arrays (uint8 symbols and BASES
bits, uint64 ends and indices, DISCLOSE items as ``DISCLOSE_RECORD``s laid
out as on the wire), each decoded in one numpy call, so a decoded frame
costs little memory beyond its bytes or bits. Encoding also takes plain
sequences for DETECTIONS, BASES and DISCLOSE.

``check_message`` is the one rule for a well-formed message, run from that
one table: encode runs it and then only serialises, and every receiver runs
it once on what it is handed. ``decode_payload`` only builds the message a
payload holds, for its receiver to check; ``decode_frame``, the standalone
codec, returns it checked. It raises ProtocolViolationError unless a float
is finite and exact (an int that float() rounds is refused), bits pass
``keyfile.bit_array``, every field fits its struct code (a byte string
exactly its size) and the payload its type's bounds, which
``decode_header`` checks before a receiver reads any payload. Encoding is
canonical: each message has exactly one valid byte string, so encode is
injective and decode(encode(m)) equals check_message(m) field by field.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import NamedTuple, Tuple, Union

import numpy as np

from .errors import IncompleteFrameError, ProtocolViolationError
from .keyfile import bit_array, packed_bits

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
    """The clicks of one ack window, as a uint64 array."""

    indices: np.ndarray


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
        # Where the f64 fields and the byte strings (with their sizes) sit, and
        # where pol starts if the type has one.
        self.floats = tuple(i for i, value in enumerate(zeros) if isinstance(value, float))
        self.strings = tuple((i, len(v)) for i, v in enumerate(zeros) if isinstance(v, bytes))
        self.pol = len(zeros) - 4 if "pol" in cls._fields else None
        self.n_values = len(zeros)
        self.least = self.fixed.size + least_tail
        self.most = min(self.fixed.size + most_tail, _U32_MAX)

    def check_length(self, length: int) -> None:
        if not self.least <= length <= self.most:
            raise ProtocolViolationError(
                f"{self.name} payload of {length} bytes, allowed {self.least}..{self.most}"
            )

    def pack(self, values) -> bytes:
        packed = self.fixed.pack(*values)  # first: it refuses a wrong count or kind of value
        # An int that float() rounds (above 2**53) would share another message's frame.
        for i in self.floats:
            if not math.isfinite(values[i]) or float(values[i]) != values[i]:
                raise ProtocolViolationError(f"{self.name} field does not fit: float "
                                             f"{values[i]!r} is not finite or not exact")
        for i, size in self.strings:  # struct pads or cuts a byte string to its size
            if not (isinstance(values[i], bytes) and len(values[i]) == size):
                raise ProtocolViolationError(f"{self.name} field does not fit: {size} bytes "
                                             f"expected, got {len(values[i])}")
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
    0x01: WireType("SESSION_START", SessionStart, "QBd32s"),
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


def _disclose_records(items) -> np.ndarray:
    """Any sequence of DISCLOSE (index, bit) pairs as a ``DISCLOSE_RECORD`` array;
    ProtocolViolationError unless the indices fit u64 and strictly increase and
    every bit is 0 or 1."""
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


def _parts(wire: WireType, msg: Message) -> Tuple[Message, tuple, tuple]:
    """``msg`` in its decoded form, its fixed field values in wire order and its
    tail as arrays or views laid out as on the wire; ProtocolViolationError
    unless the tail is one its type carries."""
    cls = wire.cls
    if wire.most == wire.fixed.size:
        return msg, wire.fields(msg), ()
    if cls is QFrameWindowBack:
        symbols = msg.symbols
        if not (isinstance(symbols, np.ndarray) and symbols.dtype == np.uint8
                and symbols.shape == (msg.count,)):
            raise ProtocolViolationError("window symbols must be count uint8 values")
        if symbols.size and symbols.max() >= _SYMBOLS:
            raise ProtocolViolationError("window symbol is outside the alphabet")
        return msg, wire.fields(msg), (symbols,)
    if cls is Bases:
        bits = bit_array(msg.bits, ProtocolViolationError)
        return Bases(bits), (bits.size,), (np.packbits(bits, bitorder="little"),)
    if cls is Disclose:
        records = _disclose_records(msg.items)
        return Disclose(records), (records.size,), (records,)
    if cls is Detections:
        indices = index_array(msg.indices, "DETECTIONS indices")
        return Detections(indices), (indices.size,), (indices,)
    for values in msg:
        if not (isinstance(values, np.ndarray) and values.dtype == _INDICES
                and values.ndim == 1):
            raise ProtocolViolationError("DETECTIONS_BLOCK fields must be uint64 arrays")
    ends = index_array(msg.ends, "DETECTIONS_BLOCK ends")
    indices = index_array(msg.indices, "DETECTIONS_BLOCK indices")
    if not 1 <= ends.size <= BLOCK_PULSES:
        raise ProtocolViolationError(
            f"DETECTIONS_BLOCK carries {ends.size} windows, allowed 1..{BLOCK_PULSES}"
        )
    if indices.size and indices[-1] >= ends[-1]:
        raise ProtocolViolationError("DETECTIONS_BLOCK index at or past its last end")
    return msg, (ends.size, indices.size), (ends, indices)


def _checked(msg: Message) -> Tuple[int, Message, int, bytes, tuple]:
    """``msg``'s type code, ``msg`` in its decoded form, and its payload's length,
    packed fixed fields and array tail; ProtocolViolationError unless its type's
    frame can carry it."""
    code, wire = _BY_CLASS.get(type(msg), (None, None))
    if wire is None:
        raise ProtocolViolationError(f"unknown message {msg!r}")
    try:
        msg, values, tail = _parts(wire, msg)
        fixed = wire.pack(values)
    except (struct.error, TypeError) as exc:
        # An int outside its field's range, a float where an int belongs, a
        # wrong number of pol values, or a value of no wire type at all.
        raise ProtocolViolationError(f"{wire.name} field does not fit: {exc}") from None
    length = len(fixed)
    for part in tail:
        length += part.nbytes
    wire.check_length(length)
    return code, msg, length, fixed, tail


def check_message(msg: Message) -> Message:
    """``msg`` with its array fields in their decoded form (DETECTIONS indices as
    uint64, BASES bits as uint8, DISCLOSE items as ``DISCLOSE_RECORD``s);
    ProtocolViolationError unless its type's frame can carry it."""
    return _checked(msg)[1]


def encode_frame(msg: Message) -> bytes:
    """The frame of ``msg``; ProtocolViolationError unless ``check_message`` takes it."""
    code, _, length, fixed, tail = _checked(msg)
    return b"".join([HEADER.pack(WIRE_VERSION, code, length), fixed]
                    + [part.tobytes() for part in tail])


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
    """The message of a payload whose header ``decode_header`` accepted, not
    checked: its receiver runs ``check_message`` on it."""
    wire = WIRE_TYPES[msg_type]
    values = wire.fixed.unpack_from(payload)
    cls, offset = wire.cls, wire.fixed.size
    if wire.most == offset:
        msg = wire.message(values)
    elif cls is QFrameWindowBack:
        msg = wire.message(values, np.frombuffer(payload, np.uint8, offset=offset))
    elif cls is Bases:
        bits = packed_bits(payload[offset:], values[0], ProtocolViolationError)
        msg = Bases(np.unpackbits(bits, count=values[0], bitorder="little"))
    elif cls is Disclose:
        msg = Disclose(_tail_array(wire, payload, DISCLOSE_RECORD, values[0]))
    elif cls is Detections:
        msg = Detections(_tail_array(wire, payload, _INDICES, values[0]))
    else:
        windows, clicks = values
        both = _tail_array(wire, payload, _INDICES, windows + clicks)
        msg = DetectionsBlock(both[:windows], both[windows:])
    return msg


def decode_frame(data: bytes) -> Message:
    """Decode and check exactly one frame; trailing bytes are a protocol violation."""
    if len(data) < HEADER.size:
        raise IncompleteFrameError(f"need {HEADER.size} header bytes, have {len(data)}")
    msg_type, length = decode_header(data[:HEADER.size])
    end = HEADER.size + length
    if len(data) < end:
        raise IncompleteFrameError(f"need {end} bytes, have {len(data)}")
    if len(data) > end:
        raise ProtocolViolationError(f"{len(data) - end} trailing bytes after frame")
    return check_message(decode_payload(msg_type, data[HEADER.size:end]))
