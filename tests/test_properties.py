"""Property tests of the documented invariants.

- Random streams are chunk-independent: any interleaving of scalar and
  block requests serves the same sequence, across key-file boundaries too.
- Alice's state machine answers any message sequence, block
  acknowledgements included, with replies or ``ProtocolViolationError``,
  nothing else, and rejects every window frame that overlaps, leaves a gap,
  is empty or runs past the session, and every message with a fixed field
  that does not fit its wire type.
- Framing is canonical: any byte string either fails to decode with
  ``ProtocolViolationError`` or decodes to a message that encodes back to
  exactly those bytes, and any message with one malformed field either
  fails to encode with ``ProtocolViolationError`` or decodes back to itself.
  ``check_message`` refuses exactly the messages encoding refuses, and
  returns what decoding their frames returns.
- Bob's session, on either engine, ends against any peer whose replies the
  wire can carry in a ``SessionResult``, ``ProtocolViolationError``,
  ``ConfigError`` or ``SessionAborted``, nothing else.
- The batched engine acknowledges each block's ack windows, and only those,
  in one DETECTIONS_BLOCK, whose clicks together are the session's.
"""

import functools
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from field_inputs import (
    BIT,
    FINITE,
    MESSAGES,
    POLS,
    TO_ALICE,
    detections_block,
    honest_message,
    pulse_out,
    same_message,
    window_out,
)
from fmqkd import protocol
from fmqkd.channel import open_in_process
from fmqkd.detector import GatedDetectorConfig
from fmqkd.errors import (
    BitSourceExhausted,
    ConfigError,
    ProtocolViolationError,
    SessionAborted,
)
from fmqkd.framing import (
    DISCLOSE_RECORD,
    HEADER,
    Bases,
    Detections,
    DetectionsBlock,
    Disclose,
    QFrameBack,
    QFrameOut,
    Terminate,
    check_message,
    decode_frame,
    encode_frame,
)
from fmqkd.interferometer import SetupConfig
from fmqkd.keyfile import read_key_file, write_key_file
from fmqkd.protocol import (
    OUTGOING_REFERENCE_PHOTONS,
    PHASES,
    STREAM_BASES,
    STREAM_BITS,
    AliceSession,
    BobSession,
    ProtocolVariant,
    QFrameWindowBack,
    QFrameWindowOut,
    Seeds,
    SessionConfig,
    SessionResult,
    run_session,
    session_start,
)
from fmqkd.randomness import BitSource, UniformSampler, derive_rng
from sessions import PassThroughEndpoint, noisy_config, run_in_process

SETTINGS = settings(max_examples=150, deadline=None, database=None)
SMALL_BLOCK = 64

# (scalar?, count): ``count`` scalar calls in a row, or one block call.
request_runs = st.lists(st.tuples(st.booleans(), st.integers(0, 3 * SMALL_BLOCK)),
                        max_size=30)


def serve(runs, scalar, block):
    served = []
    for as_scalar, count in runs:
        if as_scalar:
            served.extend(scalar() for _ in range(count))
        else:
            served.extend(taken(block, count))
    return served


def taken(block, count):
    """``block(count)`` as a list, then overwritten: a result owns its memory,
    so writing into it must leave every later draw unchanged."""
    out = block(count)
    assert out.flags.owndata
    values = out.tolist()
    out[:] = 1 - out
    return values


class SmallBits(BitSource):
    _BLOCK = SMALL_BLOCK


@SETTINGS
@given(runs=request_runs, seed=st.integers(0, 2 ** 64 - 1))
def test_prng_bits_any_interleaving_same_stream(runs, seed):
    src = SmallBits.from_seed(seed, 0)
    served = serve(runs, src.take_bit, src.take)
    rng = derive_rng(seed, 0)
    blocks = -(-len(served) // SMALL_BLOCK)
    stream = [int(b) for _ in range(blocks)
              for b in rng.integers(0, 2, size=SMALL_BLOCK, dtype=np.int64)]
    assert served == stream[:len(served)]
    assert all(type(b) is int for b in served)


@SETTINGS
@given(runs=request_runs, bits=st.integers(0, 4 * SMALL_BLOCK).flatmap(
    lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n)))
def test_key_file_bits_any_interleaving_same_stream(runs, bits):
    # Up to four small blocks, so requests cross key-file blocks and meet the end.
    src = SmallBits.from_bits(bits)
    served = []
    for as_scalar, count in runs:
        left = min(count, src.remaining())
        if as_scalar:
            served.extend(src.take_bit() for _ in range(left))
        elif left == count:
            served.extend(taken(src.take, count))
        if left < count:
            # A refused block serves nothing; scalars stop at the last bit.
            with pytest.raises(BitSourceExhausted):
                src.take_bit() if as_scalar else src.take(count)
            break
    assert served == bits[:len(served)]
    assert src.remaining() == len(bits) - len(served)


@SETTINGS
@given(blocks=st.lists(st.lists(BIT, min_size=1, max_size=70), min_size=1, max_size=5),
       runs=st.lists(st.tuples(st.booleans(), st.integers(0, 80)), max_size=40))
# An empty file is a valid key file: scalars and takes pass over it.
@example(blocks=[[1, 0, 1], [], [0, 1]], runs=[(True, 4), (False, 1), (False, 0)])
@example(blocks=[[1], [], [0, 1]], runs=[(False, 3)])
def test_key_files_serve_their_bits_across_file_boundaries(blocks, runs):
    # Files of 1-70 bits end at every offset in a byte, so takes start and cross
    # file boundaries at every bit offset.
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{k}.qkdr") for k in range(len(blocks))]
        for path, bits in zip(paths, blocks):
            write_key_file(path, np.array(bits, np.uint8))
        file_bits = np.concatenate([read_key_file(path) for path in paths]).tolist()
        src = BitSource.from_key_files(paths)
    served = []
    for as_scalar, count in runs:
        left = src.remaining()
        if as_scalar:
            served.extend(src.take_bit() for _ in range(min(count, left)))
        elif count <= left:
            served.extend(taken(src.take, count))
        if count > left:
            # A refused take serves nothing; scalars stop at the last bit.
            with pytest.raises(BitSourceExhausted):
                src.take_bit() if as_scalar else src.take(count)
            assert src.remaining() == left - (left if as_scalar else 0)
    assert served == file_bits[:len(served)]
    assert src.remaining() == len(file_bits) - len(served)


class SmallSampler(UniformSampler):
    _BLOCK = 16


@SETTINGS
@given(runs=st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=30),
       seed=st.integers(0, 2 ** 64 - 1))
def test_uniform_sampler_any_interleaving_same_stream(runs, seed):
    sampler = SmallSampler(derive_rng(seed, 0))
    served = serve(runs, sampler.next, sampler.take)
    rng = derive_rng(seed, 0)
    blocks = -(-len(served) // SmallSampler._BLOCK)
    stream = [u for _ in range(blocks) for u in rng.random(SmallSampler._BLOCK).tolist()]
    assert served == stream[:len(served)]
    assert all(type(u) is float for u in served)


N_PULSES = 24
REPLY_TYPES = (QFrameBack, QFrameWindowBack, Terminate, Bases, Disclose)


def session_config(variant, disclosure):
    return SessionConfig(
        n_pulses=N_PULSES, variant=variant, setup=SetupConfig(mu_pair=0.2),
        detector=GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=1e-5),
        seeds=Seeds(3, 4, 5), disclosure_fraction=disclosure, ack_window=4,
    )


KINDS = st.sampled_from(["qframe", "window", "window", "detections", "detections", "block",
                         "block", "bases", "terminate", "start"])
MOSTLY = st.sampled_from([True, True, True, False])
ANY_INDEX = st.integers(-1, N_PULSES + 1)
LEVELS = st.sampled_from([OUTGOING_REFERENCE_PHOTONS, OUTGOING_REFERENCE_PHOTONS, 1.0])
SMALL = st.integers(0, 6)
# Values no bit field holds, by dtype: out of range, negative, fractional or NaN.
OUT_OF_RANGE = {np.uint8: [2, 255], np.int64: [256, -1], np.float64: [0.5, float("nan")]}


@st.composite
def odd_arrays(draw, rows):
    """``rows`` 0s and 1s as uint8, int64 or float64, in one dimension or in a
    column or a row of two, perhaps with one value from ``OUT_OF_RANGE``."""
    dtype = draw(st.sampled_from(list(OUT_OF_RANGE)))
    shape = draw(st.sampled_from([(rows,), (rows, 1), (rows, 2)]))
    size = int(np.prod(shape))
    values = np.array(draw(st.lists(BIT, min_size=size, max_size=size)), dtype).reshape(shape)
    if values.size and draw(st.booleans()):
        values.flat[draw(st.integers(0, values.size - 1))] = draw(
            st.sampled_from(OUT_OF_RANGE[dtype]))
    return values


def picks(data, pool, count):
    """``count`` draws from the range ``pool``, in draw order."""
    return [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(count)] if pool else []


def draw_message(data, valid_start, alice, sent, acked):
    """One message, biased towards ones that advance the session.

    ``sent`` frames were reflected and the first ``acked`` acknowledged.
    """
    # Half the time, the kind an honest Bob sends next, so that sessions reach BASES;
    # half of those BASES are malformed.
    if data.draw(st.booleans()):
        kind = "window" if sent < N_PULSES else "block" if acked < N_PULSES else "bases"
        plausible = data.draw(st.booleans() if kind == "bases" else MOSTLY)
    else:
        kind, plausible = data.draw(KINDS), data.draw(MOSTLY)
    if kind in ("qframe", "window"):
        start = sent if plausible else data.draw(ANY_INDEX)
        level = data.draw(LEVELS)
        if kind == "qframe":
            return pulse_out(start, level)
        left = N_PULSES - sent
        # Often all the frames left, so that sessions reach BASES and disclosure.
        count = (data.draw(st.one_of(st.just(left), st.integers(1, left))) if plausible and left
                 else data.draw(ANY_INDEX))
        return window_out(start, count, level)
    if kind == "detections":
        count = data.draw(SMALL)
        if plausible:
            # Like Bob's: clicks in the window since the last acknowledgement.
            return Detections(tuple(sorted(set(picks(data, range(acked, sent), count)))))
        return Detections(tuple(data.draw(ANY_INDEX) for _ in range(count)))
    if kind == "block":
        if plausible and sent > acked:
            # Like Bob's: ends up to the frames reflected, clicks in the new windows.
            ends = sorted(set(picks(data, range(acked + 1, sent), data.draw(SMALL))) | {sent})
            return detections_block(ends, sorted(set(picks(data, range(acked, sent),
                                                           data.draw(SMALL)))))
        anywhere = range(N_PULSES + 2)
        return detections_block(picks(data, anywhere, data.draw(st.integers(0, 3))),
                                picks(data, anywhere, data.draw(SMALL)))
    if kind == "bases":
        count = len(alice.detected_indices)
        if plausible:
            return Bases(np.array([data.draw(BIT) for _ in range(count)], np.uint8))
        # Any shape and dtype, as an in-process peer may send: a bare bit, or an
        # array of mostly one row per detection.
        rows = count if data.draw(MOSTLY) else data.draw(SMALL)
        return Bases(data.draw(st.one_of(BIT, odd_arrays(rows))))
    if kind == "terminate":
        return Terminate(data.draw(st.integers(0, 3)))
    return valid_start if plausible else valid_start._replace(n_pulses=N_PULSES + 1)


@SETTINGS
@given(data=st.data(), variant=st.sampled_from(list(ProtocolVariant)),
       disclosure=st.sampled_from([0.0, 0.5]))
def test_alice_answers_any_sequence_with_replies_or_violation(data, variant, disclosure):
    cfg = session_config(variant, disclosure)
    alice = AliceSession(cfg)
    valid_start = session_start(cfg)
    started = False
    sent = acked = 0
    symbols = []  # symbol Alice reflected for each frame, in index order
    for k in range(data.draw(st.integers(1, 40))):
        if k and data.draw(st.integers(0, 9)) == 0:
            # One message in ten has a fixed field that does not fit.
            kind, fields = TO_ALICE[data.draw(st.sampled_from(sorted(TO_ALICE)))]
            msg = honest_message(kind, cfg, sent)._replace(**fields)
            if alice.done and alice.abort_reason is not None:
                assert alice.handle(msg) == []  # an aborted session drops stragglers
            else:
                with pytest.raises(ProtocolViolationError):
                    alice.handle(msg)
            continue
        if k == 0 and data.draw(MOSTLY):
            msg = valid_start
        else:
            msg = draw_message(data, valid_start, alice, sent, acked)
        live = started and not alice.done
        if live and isinstance(msg, (QFrameOut, QFrameWindowOut)):
            start, count = (msg.index, 1) if isinstance(msg, QFrameOut) else msg[:2]
            valid = (start == sent and count >= 1 and start + count <= N_PULSES
                     and msg.mean_photons == OUTGOING_REFERENCE_PHOTONS)
            if not valid:
                with pytest.raises(ProtocolViolationError):
                    alice.handle(msg)
                continue
            (reply,) = alice.handle(msg)
            if isinstance(msg, QFrameOut):
                assert reply.index == start
                symbols.append(PHASES.index(reply.phase_a))
            else:
                assert (reply.start, reply.count) == (start, count)
                symbols.extend(reply.symbols.tolist())
            sent += count
            continue
        try:
            replies = alice.handle(msg)
        except ProtocolViolationError:
            continue
        assert isinstance(replies, list)
        assert all(isinstance(r, REPLY_TYPES) for r in replies)
        if isinstance(msg, Bases) and replies:
            # Alice sifts only on one integer 0 or 1 per detection; with none, the
            # empty bits may have any dtype, as an empty list does.
            bits = np.asarray(msg.bits)
            assert bits.shape == (len(alice.detected_indices),)
            assert bits.dtype.kind in "biu" or not bits.size
            assert set(bits.tolist()) <= {0, 1}
        if live and isinstance(msg, Detections):
            acked = sent
        elif live and isinstance(msg, DetectionsBlock):
            acked = int(msg.ends[-1])
        if msg is valid_start:
            started = started or not alice.done
    # Scalar and window frames served one stream, in index order.
    bits = BitSource.from_seed(cfg.seeds.alice, STREAM_BITS).take(sent)
    expected = 2 * bits.astype(int)
    if variant.uses_bases:
        expected += BitSource.from_seed(cfg.seeds.alice, STREAM_BASES).take(sent)
    assert symbols == expected.tolist()


@st.composite
def frame_bytes(draw):
    """Arbitrary bytes, mostly a valid frame with a few bytes overwritten or cut."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=80))
    data = bytearray(encode_frame(draw(MESSAGES)))
    for _ in range(draw(st.integers(0, 2))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    edit = draw(st.sampled_from(["keep", "keep", "cut", "extend", "relength"]))
    if edit == "cut":
        del data[draw(st.integers(0, len(data))):]
    elif edit == "extend":
        data += draw(st.binary(min_size=1, max_size=9))
    elif edit == "relength":
        data[2:HEADER.size] = draw(st.integers(0, 2 ** 32 - 1)).to_bytes(4, "little")
    return bytes(data)


@settings(max_examples=600, deadline=None, database=None)
@given(data=frame_bytes())
def test_decode_either_rejects_or_round_trips(data):
    try:
        msg = decode_frame(data)
    except ProtocolViolationError:  # IncompleteFrameError included
        return
    assert encode_frame(msg) == data


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
BAD_INTS = st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64), st.floats())
WRONG_POLS = st.lists(FINITE, max_size=6).filter(lambda p: len(p) != 4).map(tuple)


@st.composite
def corrupted_messages(draw):
    """A message from ``MESSAGES`` with one field replaced: a float field by NaN
    or inf, an int field by a negative or above-u64 int or by a float, ``pol``
    by a wrong number of values, and an array field by any of those scalars or
    by an array of another shape or dtype, or holding a value out of range."""
    msg = draw(MESSAGES)
    field = draw(st.sampled_from(msg._fields))
    value = getattr(msg, field)
    if field == "pol":
        bad = draw(WRONG_POLS)
    elif isinstance(value, float):
        bad = draw(NON_FINITE)
    elif isinstance(value, int):
        bad = draw(BAD_INTS)
    else:
        bad = draw(SMALL.flatmap(odd_arrays) if draw(MOSTLY) else st.one_of(NON_FINITE, BAD_INTS))
    return msg._replace(**{field: bad})


@settings(max_examples=200, deadline=None, database=None)
@given(msg=corrupted_messages())
def test_encode_either_rejects_or_round_trips(msg):
    try:
        frame = encode_frame(msg)
    except ProtocolViolationError:
        return
    back = decode_frame(frame)
    assert type(back) is type(msg)
    for got, sent in zip(back, msg):
        # Array fields decode to arrays, also where a sequence was encoded.
        arrays = isinstance(got, np.ndarray) or isinstance(sent, np.ndarray)
        assert np.array_equal(got, sent) if arrays else got == sent


@settings(max_examples=200, deadline=None, database=None)
@given(msg=corrupted_messages())
def test_check_message_refuses_exactly_what_encode_refuses(msg):
    try:
        checked = check_message(msg)
    except ProtocolViolationError:
        with pytest.raises(ProtocolViolationError):
            encode_frame(msg)
        return
    back = decode_frame(encode_frame(msg))
    assert [type(got) for got in back] == [type(want) for want in checked]
    assert same_message(back, checked)


def decoded(frame):
    """The message ``frame`` decodes to, or None if framing rejects it."""
    try:
        return decode_frame(frame)
    except ProtocolViolationError:
        return None


# Messages as they arrive after a trip over the wire.
PEER_MESSAGES = MESSAGES.map(lambda m: decoded(encode_frame(m))).filter(lambda m: m is not None)
PEER_ACTIONS = st.sampled_from(["pass", "drop", "replace", "extra", "flip", "edit", "edit"])


def edited(data, msg):
    """``msg`` with one field redrawn near its value, as the wire delivers it, or None."""
    k = data.draw(st.integers(0, len(msg) - 1))
    value = msg[k]
    if msg._fields[k] == "symbols":  # window symbols; the count follows them
        symbols = np.array(data.draw(st.lists(st.integers(0, 3), max_size=30)), np.uint8)
        return decoded(encode_frame(msg._replace(count=symbols.size, symbols=symbols)))
    if isinstance(value, int):
        new = max(0, value + data.draw(st.integers(-2, 2)))
    elif isinstance(value, float):
        new = data.draw(st.one_of(st.sampled_from([0.0, value / 2, 2 * value, value + 1.5]),
                                  FINITE))
    elif len(value) == 4 and all(isinstance(x, float) for x in value):
        new = data.draw(POLS)
    else:  # BASES bits or DISCLOSE records: one short, one long, or one bit flipped
        edit = data.draw(st.sampled_from(["short", "long", "flip"]))
        records = value.dtype == DISCLOSE_RECORD
        if edit == "short" or not value.size:
            new = value[:-1]
        elif edit == "long":
            new = np.concatenate((value, value[-1:]))
            if records:  # the added record takes the next index and bit 0
                new["index"][-1:] += 1
                new["bit"][-1] = 0
        else:
            new = value.copy()
            (new["bit"] if records else new)[data.draw(st.integers(0, value.size - 1))] ^= 1
    try:
        frame = encode_frame(msg._replace(**{msg._fields[k]: new}))
    except (ProtocolViolationError, struct.error):
        return None
    return decoded(frame)


@functools.lru_cache(maxsize=None)
def messages_bob_sends(variant, disclosure, per_pulse):
    """How many messages Bob sends in an honest session."""
    cfg = session_config(variant, disclosure)
    _, _, sent = run_in_process(cfg, PassThroughEndpoint) if per_pulse else run_in_process(cfg)
    return len(sent)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), variant=st.sampled_from(list(ProtocolVariant)),
       disclosure=st.sampled_from([0.0, 0.5]), per_pulse=st.booleans())
def test_bob_ends_in_result_or_documented_error(data, variant, disclosure, per_pulse):
    cfg = session_config(variant, disclosure)
    alice = AliceSession(cfg)
    sent_types = []
    honest = True
    # Alice answers the first messages truthfully, so every stage gets probed;
    # the replies to at least Bob's last message are open to the peer's edits.
    truthful = data.draw(st.integers(0, messages_bob_sends(variant, disclosure, per_pulse) - 1))

    def peer(msg):
        """Alice's replies, now and then dropped, replaced, padded, bit-flipped or edited."""
        nonlocal honest
        sent_types.append(type(msg))
        replies = alice.handle(msg)
        if len(sent_types) <= truthful:
            return replies
        action = data.draw(PEER_ACTIONS)
        honest = honest and action == "pass"
        if action == "drop":
            return replies[1:]
        if action == "replace":
            return [data.draw(PEER_MESSAGES)] + replies[1:]
        if action == "extra":
            return replies + [data.draw(PEER_MESSAGES)]
        if action == "edit" and replies:
            return [m for m in [edited(data, replies[0])] if m is not None] + replies[1:]
        if action == "flip" and replies:
            frame = bytearray(encode_frame(replies[0]))
            frame[data.draw(st.integers(0, len(frame) - 1))] ^= 1 << data.draw(st.integers(0, 7))
            flipped = decoded(bytes(frame))
            return ([flipped] if flipped is not None else []) + replies[1:]
        return replies

    endpoint = open_in_process(peer)
    try:
        result = BobSession(cfg).run(PassThroughEndpoint(endpoint) if per_pulse else endpoint)
    except (ProtocolViolationError, ConfigError, SessionAborted):
        result = None
    # The first frame shows which engine ran.
    assert sent_types[1] is (QFrameOut if per_pulse else QFrameWindowOut)
    if result is not None:
        assert isinstance(result, SessionResult)
    if honest:
        assert result == run_session(cfg)


@SETTINGS
@example(n=1000, ack_window=100, block=64)  # windows span blocks; n closes one
@example(n=1001, ack_window=100, block=64)  # and a final short window
@example(n=5, ack_window=8, block=64)  # one short window, one block
@given(n=st.integers(1, 400), ack_window=st.integers(1, 150), block=st.integers(1, 64))
def test_block_acknowledgements_close_each_window_once(n, ack_window, block):
    cfg = noisy_config(n, Seeds(7, 8, 9), ProtocolVariant.BB92, ack_window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "BLOCK_PULSES", block)
        result, _, seen = run_in_process(cfg)
    # Each window frame, and the acknowledgements sent before the next one.
    blocks = []
    for msg in seen:
        if isinstance(msg, QFrameWindowOut):
            blocks.append((msg.start, msg.start + msg.count, []))
        elif isinstance(msg, DetectionsBlock):
            blocks[-1][2].append(msg)
    assert [end for _, end, _ in blocks[:-1]] == [start for start, _, _ in blocks[1:]]
    assert blocks[0][0] == 0 and blocks[-1][1] == n
    for start, end, acks in blocks:
        assert end - start <= block
        ends = [e for e in range(start + 1, end + 1) if e % ack_window == 0 or e == n]
        assert [ack.ends.tolist() for ack in acks] == ([ends] if ends else [])
    indices = [i for _, _, acks in blocks for ack in acks for i in ack.indices.tolist()]
    assert tuple(indices) == result.detected_indices
