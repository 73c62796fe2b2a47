import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_inputs import (
    DECODED_FORMS,
    FIXED_SIZES,
    MALFORMED,
    TO_ALICE,
    TO_BOB,
    block_payload,
    detections_block,
    disclose,
    honest_message,
    honest_returns,
    same_message,
    window_back,
    window_out,
)
from fmqkd.errors import IncompleteFrameError, ProtocolViolationError
from fmqkd.framing import (
    BLOCK_PULSES,
    HEADER,
    WIRE_TYPES,
    Bases,
    Detections,
    DetectionsBlock,
    Disclose,
    ErReport,
    QFrameBack,
    QFrameWindowBack,
    QFrameWindowOut,
    SessionStart,
    Terminate,
    decode_frame,
    encode_frame,
    index_array,
)
from fmqkd.presets import reference_session
from fmqkd.protocol import Seeds
from sessions import traced_peak


def test_detections_golden_vector():
    frame = encode_frame(Detections((3, 17)))
    expected = bytes.fromhex(
        "0104" + "14000000" + "02000000"
        + "0300000000000000" + "1100000000000000"
    )
    assert frame == expected
    assert same_message(decode_frame(expected), Detections(np.array([3, 17], np.uint64)))


def test_empty_detections_golden_vector():
    assert encode_frame(Detections(())) == bytes.fromhex("0104" + "04000000" + "00000000")


def test_bases_bitmap_golden_vector():
    # Nine bits, LSB-first: byte0 = 0b11101101 = 0xed, byte1 = 0b00000001.
    frame = encode_frame(Bases((1, 0, 1, 1, 0, 1, 1, 1, 1)))
    assert frame == bytes.fromhex("0105" + "06000000" + "09000000" + "ed01")


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


def test_detections_block_golden_vector():
    msg = detections_block([16, 32], [3, 17])
    expected = bytes.fromhex(
        "010b" + "28000000" + "02000000" + "02000000"
        + "1000000000000000" + "2000000000000000"
        + "0300000000000000" + "1100000000000000"
    )
    assert encode_frame(msg) == expected
    assert same_message(decode_frame(expected), msg)


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
    for bad in (detections_block([]), detections_block(range(1, BLOCK_PULSES + 2)),
                detections_block([16, 16]), detections_block([16], [5, 3]),
                detections_block([16], [3, 16]),
                DetectionsBlock(np.array([16], np.int64), np.array([3], np.uint64)),
                DetectionsBlock((16,), np.array([3], np.uint64)),
                DetectionsBlock(np.array([16], np.uint64), np.array([[3]], np.uint64))):
        with pytest.raises(ProtocolViolationError):
            encode_frame(bad)
    full = detections_block(range(1, BLOCK_PULSES + 1), [0])
    assert same_message(decode_frame(encode_frame(full)), full)


def test_detections_block_header_shorter_than_one_end_rejected():
    for length in (0, 15):
        with pytest.raises(ProtocolViolationError) as err:
            decode_frame(HEADER.pack(1, 0x0B, length))
        assert not isinstance(err.value, IncompleteFrameError)
    with pytest.raises(IncompleteFrameError):
        decode_frame(HEADER.pack(1, 0x0B, 16))


def test_detections_block_decode_memory_follows_bytes():
    # Array payloads decode in place: a DETECTIONS or a block of 2M clicks and
    # a DISCLOSE of 2M records peak at 1.5x their frame bytes, a BASES of 2M
    # bits at 1.5x its decoded uint8 array.
    clicks = np.arange(0, 4_000_000, 2)
    bits = (clicks % 3 == 0).astype(np.uint8)
    for msg, decoded_bytes in ((Detections(clicks.astype(np.uint64)), None),
                               (detections_block([4_000_000, 5_000_000], clicks), None),
                               (disclose(clicks, bits), None),
                               (Bases(bits), bits.size)):
        frame = encode_frame(msg)
        with traced_peak() as traced:
            decoded = decode_frame(frame)
        assert same_message(decoded, msg)
        assert traced.peak <= 1.5 * (decoded_bytes or len(frame)), type(msg).__name__


@settings(max_examples=100, deadline=None, database=None)
@given(messages=st.tuples(*DECODED_FORMS))
def test_round_trip_all_message_types(messages):
    # One message of each type per example.
    for msg in messages:
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


@pytest.mark.parametrize("values", [
    np.array([3, -1]),            # negative, would wrap to 2**64 - 1
    np.array([1.7, 2.2]),         # float dtype, would truncate
    np.array([2.0, 3.0]),         # float dtype, even when integral
    np.array([False, True]),      # bool dtype
    np.array([], np.float64),     # float dtype, even when empty
    [1.7, 2.2],                   # list of floats
    [3, -1],                      # list with a negative int
    [2 ** 64],                    # past u64
    ["3"],                        # list of strings
], ids=repr)
def test_index_array_rejects_what_is_not_u64_integers(values):
    with pytest.raises(ProtocolViolationError, match="integers that fit in u64"):
        index_array(values, "indices")


@pytest.mark.parametrize("values, expected", [
    ([], []),
    ((4, 15), [4, 15]),
    ([2 ** 64 - 1], [2 ** 64 - 1]),
    ([1, 2 ** 64 - 1], [1, 2 ** 64 - 1]),
    (np.array([0, 2 ** 64 - 1], np.uint64), [0, 2 ** 64 - 1]),
    (np.array([], np.uint64), []),
    (np.array([5, 9]), [5, 9]),   # non-negative signed ints fit
], ids=repr)
def test_index_array_accepts_u64_integers(values, expected):
    got = index_array(values, "indices")
    assert got.dtype == np.dtype("<u8") and got.tolist() == expected


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


def test_window_symbol_outside_alphabet_rejected_both_ways():
    with pytest.raises(ProtocolViolationError):
        encode_frame(window_back([0, 4, 1]))
    frame = bytearray(encode_frame(window_back([0, 3, 1])))
    frame[-2] = 4
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


def test_window_back_symbols_must_match_count():
    for bad in (window_back([0, 1, 2])._replace(count=2),
                window_back([0, 1])._replace(count=3),
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
    for bad in (window_out(-1, 3), window_out(0, 2**32),
                window_out(0, -1), window_out(0, 3, math.nan),
                window_out(0, 3)._replace(pol=(1.0, math.inf, 0.0, 0.0))):
        with pytest.raises(ProtocolViolationError):
            encode_frame(bad)
    frame = bytearray(encode_frame(window_out(0, 3)))
    frame[18:26] = bytes.fromhex("000000000000f87f")  # mean_photons NaN
    with pytest.raises(ProtocolViolationError):
        decode_frame(bytes(frame))


@pytest.mark.parametrize("msg_type,size", sorted(FIXED_SIZES.values()))
def test_fixed_size_header_with_wrong_length_rejected(msg_type, size):
    for length in (0, size - 1, size + 1, 2**32 - 1):
        with pytest.raises(ProtocolViolationError) as err:
            decode_frame(HEADER.pack(1, msg_type, length))
        assert not isinstance(err.value, IncompleteFrameError)
    with pytest.raises(IncompleteFrameError):
        decode_frame(HEADER.pack(1, msg_type, size))


@pytest.mark.parametrize("what", sorted(MALFORMED))
def test_malformed_message_rejected_on_encode(what):
    with pytest.raises(ProtocolViolationError):
        encode_frame(MALFORMED[what])


MATRIX_CONFIG = reference_session(0.1, 1000, Seeds(1, 2, 3))


@pytest.mark.parametrize("what", sorted(TO_ALICE))
def test_fields_alice_refuses_are_refused_on_encode(what):
    kind, fields = TO_ALICE[what]
    honest = honest_message(kind, MATRIX_CONFIG)
    with pytest.raises(ProtocolViolationError, match="does not fit"):
        encode_frame(honest._replace(**fields))
    encode_frame(honest)


@pytest.mark.parametrize("what", sorted(TO_BOB))
def test_fields_bob_refuses_are_refused_on_encode(what):
    fields = TO_BOB[what]
    frames = [frame._replace(**fields) for frame in honest_returns(MATRIX_CONFIG)
              if set(fields) <= set(frame._fields)]
    assert frames
    for frame in frames:
        with pytest.raises(ProtocolViolationError):
            encode_frame(frame)
    for frame in honest_returns(MATRIX_CONFIG):
        encode_frame(frame)


def test_readme_wire_format_table_names_every_type():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Wire format", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (0x[0-9A-F]{2}) \| (\w+) +\|", section, re.MULTILINE)
    assert {int(code, 16): name for code, name in rows} == {
        code: wire.name for code, wire in WIRE_TYPES.items()}
    assert len(rows) == len(WIRE_TYPES)
