import math
import tracemalloc

import numpy as np
import pytest

from fmqkd.errors import IncompleteFrameError, ProtocolViolationError
from fmqkd.framing import (
    BLOCK_PULSES,
    DISCLOSE_RECORD,
    HEADER,
    Bases,
    Detections,
    DetectionsBlock,
    Disclose,
    ErReport,
    QFrameBack,
    QFrameOut,
    QFrameWindowBack,
    QFrameWindowOut,
    SessionStart,
    Terminate,
    decode_frame,
    encode_frame,
)


def test_detections_golden_vector():
    frame = encode_frame(Detections((3, 17)))
    expected = bytes.fromhex(
        "0104" + "14000000" + "02000000"
        + "0300000000000000" + "1100000000000000"
    )
    assert frame == expected
    assert decode_frame(expected) == Detections((3, 17))


def test_empty_detections_golden_vector():
    assert encode_frame(Detections(())) == bytes.fromhex("0104" + "04000000" + "00000000")


def test_bases_bitmap_golden_vector():
    # Nine bits, LSB-first: byte0 = 0b11101101 = 0xed, byte1 = 0b00000001.
    frame = encode_frame(Bases((1, 0, 1, 1, 0, 1, 1, 1, 1)))
    assert frame == bytes.fromhex("0105" + "06000000" + "09000000" + "ed01")


def disclose(indices, bits):
    return Disclose(np.array(list(zip(indices, bits)), DISCLOSE_RECORD))


def test_disclose_golden_vector():
    expected = bytes.fromhex(
        "0106" + "16000000" + "02000000"
        + "0300000000000000" + "01" + "1100000000000000" + "00"
    )
    assert encode_frame(Disclose(((3, 1), (17, 0)))) == expected
    assert same_message(decode_frame(expected), disclose([3, 17], [1, 0]))


def test_window_out_golden_vector():
    msg = QFrameWindowOut(5, 3, 1e6, (1.0, 0.0, 0.0, 0.0))
    expected = bytes.fromhex(
        "0109" + "34000000"
        + "0500000000000000" + "03000000" + "0000000080842e41"
        + "000000000000f03f" + "0000000000000000" * 3
    )
    assert encode_frame(msg) == expected
    assert decode_frame(expected) == msg


def test_window_back_golden_vector():
    msg = QFrameWindowBack(5, 3, 0.5, np.array([0, 2, 3], np.uint8), (0.0, 0.0, 1.0, 0.0))
    expected = bytes.fromhex(
        "010a" + "37000000"
        + "0500000000000000" + "03000000" + "000000000000e03f"
        + "0000000000000000" * 2 + "000000000000f03f" + "0000000000000000"
        + "000203"
    )
    assert encode_frame(msg) == expected
    assert same_message(decode_frame(expected), msg)


def block(ends, indices):
    return DetectionsBlock(np.array(ends, np.uint64), np.array(indices, np.uint64))


def test_detections_block_golden_vector():
    msg = block([16, 32], [3, 17])
    expected = bytes.fromhex(
        "010b" + "28000000" + "02000000" + "02000000"
        + "1000000000000000" + "2000000000000000"
        + "0300000000000000" + "1100000000000000"
    )
    assert encode_frame(msg) == expected
    assert same_message(decode_frame(expected), msg)


def block_payload(windows, clicks, values):
    """A DETECTIONS_BLOCK frame with any counts and u64 values."""
    payload = np.array([windows, clicks], "<u4").tobytes() + np.array(values, "<u8").tobytes()
    return HEADER.pack(1, 0x0B, len(payload)) + payload


BAD_BLOCK_FRAMES = {
    "no window": (0, 1, [3]),
    "too many windows": (BLOCK_PULSES + 1, 0, range(1, BLOCK_PULSES + 2)),
    "counts exceed payload": (2, 3, [16, 32, 3, 17]),
    "counts short of payload": (2, 1, [16, 32, 3, 17]),
    "ends repeat": (2, 0, [16, 16]),
    "ends decrease": (2, 1, [32, 16, 3]),
    "indices repeat": (1, 2, [16, 3, 3]),
    "indices decrease": (1, 2, [16, 5, 3]),
    "index at the last end": (2, 2, [16, 32, 3, 32]),
    "index past the last end": (1, 1, [16, 40]),
}


@pytest.mark.parametrize("what", sorted(BAD_BLOCK_FRAMES))
def test_bad_detections_block_rejected_on_decode(what):
    with pytest.raises(ProtocolViolationError):
        decode_frame(block_payload(*BAD_BLOCK_FRAMES[what]))


def test_bad_detections_block_rejected_on_encode():
    for bad in (block([], []), block(range(1, BLOCK_PULSES + 2), []), block([16, 16], []),
                block([16], [5, 3]), block([16], [3, 16]),
                DetectionsBlock(np.array([16], np.int64), np.array([3], np.uint64)),
                DetectionsBlock((16,), np.array([3], np.uint64)),
                DetectionsBlock(np.array([16], np.uint64), np.array([[3]], np.uint64))):
        with pytest.raises(ProtocolViolationError):
            encode_frame(bad)
    full = block(range(1, BLOCK_PULSES + 1), [0])
    assert same_message(decode_frame(encode_frame(full)), full)


def test_detections_block_header_shorter_than_one_end_rejected():
    for length in (0, 15):
        with pytest.raises(ProtocolViolationError) as err:
            decode_frame(HEADER.pack(1, 0x0B, length))
        assert not isinstance(err.value, IncompleteFrameError)
    with pytest.raises(IncompleteFrameError):
        decode_frame(HEADER.pack(1, 0x0B, 16))


def test_detections_block_decode_memory_follows_bytes():
    # Array payloads decode in place: a block of 2M clicks and a DISCLOSE of
    # 2M records peak at 1.5x their frame bytes, a BASES of 2M bits at 1.5x
    # its decoded uint8 array.
    clicks = np.arange(0, 4_000_000, 2)
    bits = (clicks % 3 == 0).astype(np.uint8)
    for msg, decoded_bytes in ((block([4_000_000, 5_000_000], clicks), None),
                               (disclose(clicks, bits), None),
                               (Bases(bits), bits.size)):
        frame = encode_frame(msg)
        tracemalloc.start()
        try:
            decoded = decode_frame(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert same_message(decoded, msg)
        assert peak <= 1.5 * (decoded_bytes or len(frame)), type(msg).__name__


def same_message(a, b):
    """Field-wise equality; window symbols are arrays, whose ``==`` is elementwise."""
    if type(a) is not type(b):
        return False
    return all(
        np.array_equal(x, y) and x.dtype == y.dtype if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


def random_messages(rng):
    yield SessionStart(int(rng.integers(1, 2**40)), int(rng.integers(0, 2)),
                       float(rng.uniform(0.01, 2.0)), bytes(rng.integers(0, 256, 32,
                                                                         dtype=np.uint8)))
    pol = tuple(float(x) for x in rng.standard_normal(4))
    yield QFrameOut(int(rng.integers(0, 2**50)), float(rng.uniform(0, 1e7)), pol)
    yield QFrameBack(int(rng.integers(0, 2**50)), float(rng.uniform(0, 1.0)),
                     float(rng.uniform(-10, 10)), pol)
    k = int(rng.integers(0, 6))
    indices = tuple(sorted(int(x) for x in rng.choice(1000, size=k, replace=False)))
    yield Detections(indices)
    yield Bases(rng.integers(0, 2, size=int(rng.integers(0, 20))).astype(np.uint8))
    yield disclose(indices, rng.integers(0, 2, size=k))
    yield ErReport(float(rng.uniform(0, 1)))
    yield Terminate(int(rng.integers(0, 4)))
    count = int(rng.integers(0, 40))
    yield QFrameWindowOut(int(rng.integers(0, 2**50)), count, float(rng.uniform(0, 1e7)), pol)
    yield QFrameWindowBack(int(rng.integers(0, 2**50)), count, float(rng.uniform(0, 1.0)),
                           rng.integers(0, 4, size=count).astype(np.uint8), pol)
    ends = np.unique(rng.integers(1, 2**63, size=int(rng.integers(1, 8)), dtype=np.uint64))
    clicks = np.unique(rng.integers(0, ends[-1], size=int(rng.integers(0, 12)),
                                    dtype=np.uint64))
    yield DetectionsBlock(ends, clicks)


def test_round_trip_all_message_types():
    rng = np.random.default_rng(8)
    for _ in range(100):
        for msg in random_messages(rng):
            assert same_message(decode_frame(encode_frame(msg)), msg)


def test_truncated_input_is_incomplete():
    with pytest.raises(IncompleteFrameError):
        decode_frame(b"\x01\x04\x14")
    frame = encode_frame(Detections((3, 17)))
    with pytest.raises(IncompleteFrameError):
        decode_frame(frame[:-1])


def test_trailing_bytes_rejected():
    with pytest.raises(ProtocolViolationError):
        decode_frame(encode_frame(Terminate(0)) + b"\x00")


def test_bad_version_rejected():
    frame = bytearray(encode_frame(Terminate(0)))
    frame[0] = 2
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_unknown_type_rejected():
    frame = bytearray(encode_frame(Terminate(0)))
    frame[1] = 0x77
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_non_increasing_indices_rejected_both_ways():
    with pytest.raises(ProtocolViolationError):
        encode_frame(Detections((5, 5)))
    with pytest.raises(ProtocolViolationError):
        encode_frame(Disclose(((7, 1), (3, 0))))
    good = bytearray(encode_frame(Detections((3, 17))))
    good[10:18] = (20).to_bytes(8, "little")  # first index now 20 > 17
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(good))


def test_nonzero_bitmap_padding_rejected():
    frame = bytearray(encode_frame(Bases((1, 0, 1))))
    frame[-1] |= 0x80
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_non_finite_floats_rejected_on_encode():
    with pytest.raises(ProtocolViolationError):
        encode_frame(ErReport(math.nan))
    with pytest.raises(ProtocolViolationError):
        encode_frame(QFrameBack(0, 0.05, math.inf, (1.0, 0.0, 0.0, 0.0)))


def test_bad_commitment_size_rejected():
    with pytest.raises(ProtocolViolationError):
        encode_frame(SessionStart(10, 0, 0.1, b"\x00" * 31))


def test_disclose_bit_values_validated():
    with pytest.raises(ProtocolViolationError):
        encode_frame(Disclose(((3, 2),)))


def window_back(symbols, count=None):
    symbols = np.asarray(symbols, np.uint8)
    return QFrameWindowBack(0, len(symbols) if count is None else count, 0.5, symbols,
                            (0.0, 0.0, 1.0, 0.0))


def test_window_symbol_outside_alphabet_rejected_both_ways():
    with pytest.raises(ProtocolViolationError):
        encode_frame(window_back([0, 4, 1]))
    frame = bytearray(encode_frame(window_back([0, 3, 1])))
    frame[-2] = 4
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_window_back_symbols_must_match_count():
    for bad in (window_back([0, 1, 2], count=2),
                window_back([0, 1], count=3),
                window_back([0, 1, 2])._replace(symbols=[0, 1, 2]),
                window_back([0, 1, 2])._replace(symbols=np.array([0, 1, 2], np.int64))):
        with pytest.raises(ProtocolViolationError):
            encode_frame(bad)
    frame = bytearray(encode_frame(window_back([0, 1, 2])))
    frame[14:18] = (2).to_bytes(4, "little")  # count 2, three symbols follow
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_window_back_holds_at_most_one_block():
    full = window_back(np.zeros(BLOCK_PULSES, np.uint8))
    assert same_message(decode_frame(encode_frame(full)), full)
    with pytest.raises(ProtocolViolationError):
        encode_frame(window_back(np.zeros(BLOCK_PULSES + 1, np.uint8)))
    # A header claiming one symbol more is rejected before the payload.
    header = HEADER.pack(1, 0x0A, 52 + BLOCK_PULSES + 1)
    with pytest.raises(ProtocolViolationError) as err:
        decode_frame(header)
    assert not isinstance(err.value, IncompleteFrameError)


def test_window_out_fields_validated_on_encode():
    pol = (1.0, 0.0, 0.0, 0.0)
    for bad in (QFrameWindowOut(-1, 3, 1e6, pol), QFrameWindowOut(0, 2**32, 1e6, pol),
                QFrameWindowOut(0, -1, 1e6, pol), QFrameWindowOut(0, 3, math.nan, pol),
                QFrameWindowOut(0, 3, 1e6, (1.0, math.inf, 0.0, 0.0))):
        with pytest.raises(ProtocolViolationError):
            encode_frame(bad)
    frame = bytearray(encode_frame(QFrameWindowOut(0, 3, 1e6, pol)))
    frame[18:26] = bytes.fromhex("000000000000f87f")  # mean_photons NaN
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


FIXED_SIZES = {0x01: 49, 0x02: 48, 0x03: 56, 0x07: 8, 0x08: 1, 0x09: 52}


@pytest.mark.parametrize("msg_type,size", sorted(FIXED_SIZES.items()))
def test_fixed_size_header_with_wrong_length_rejected(msg_type, size):
    for length in (0, size - 1, size + 1, 2**32 - 1):
        with pytest.raises(ProtocolViolationError) as err:
            decode_frame(HEADER.pack(1, msg_type, length))
        assert not isinstance(err.value, IncompleteFrameError)
    with pytest.raises(IncompleteFrameError):
        decode_frame(HEADER.pack(1, msg_type, size))
