"""Property tests of the documented invariants.

- Random streams are chunk-independent: any interleaving of scalar and
  block requests serves the same sequence.
- Alice's state machine answers any message sequence, block
  acknowledgements included, with replies or ``ProtocolViolationError``,
  nothing else, and rejects every window frame that overlaps, leaves a gap,
  is empty or runs past the session.
- Framing is canonical: any byte string either fails to decode with
  ``ProtocolViolationError`` or decodes to a message that encodes back to
  exactly those bytes.
- Bob's session, on either engine, ends against any peer whose replies the
  wire can carry in a ``SessionResult``, ``ProtocolViolationError``,
  ``ConfigError`` or ``SessionAborted``, nothing else.
"""

import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ErReport,
    QFrameBack,
    QFrameOut,
    SessionStart,
    Terminate,
    decode_frame,
    encode_frame,
)
from fmqkd.interferometer import SetupConfig
from fmqkd.protocol import (
    OUTGOING_REFERENCE_PHOTONS,
    PHASES,
    POL_HORIZONTAL,
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
    seeds_commitment,
)
from fmqkd.randomness import BitSource, UniformSampler, derive_rng

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
            served.extend(block(count).tolist())
    return served


@SETTINGS
@given(runs=request_runs, seed=st.integers(0, 2 ** 64 - 1))
def test_prng_bits_any_interleaving_same_stream(runs, seed):
    src = BitSource("prng", rng=derive_rng(seed, 0), block_size_bits=SMALL_BLOCK)
    served = serve(runs, src.take_bit, src.take)
    rng = derive_rng(seed, 0)
    blocks = -(-len(served) // SMALL_BLOCK)
    stream = [int(b) for _ in range(blocks)
              for b in rng.integers(0, 2, size=SMALL_BLOCK, dtype=np.int64)]
    assert served == stream[:len(served)]
    assert all(type(b) is int for b in served)
    assert src.cursor == len(served)


@SETTINGS
@given(runs=request_runs, bits=st.lists(st.integers(0, 1), max_size=4 * SMALL_BLOCK))
def test_key_file_bits_any_interleaving_same_stream(runs, bits):
    src = BitSource.from_bits(bits)
    served = []
    for as_scalar, count in runs:
        left = min(count, src.remaining())
        if as_scalar:
            served.extend(src.take_bit() for _ in range(left))
        elif left == count:
            served.extend(src.take(count).tolist())
        if left < count:
            # A refused block serves nothing; scalars stop at the last bit.
            with pytest.raises(BitSourceExhausted):
                src.take_bit() if as_scalar else src.take(count)
            break
    assert served == bits[:len(served)]
    assert src.cursor == len(served)


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
BIT = st.integers(0, 1)


def picks(data, pool, count):
    """``count`` draws from the range ``pool``, in draw order."""
    return [pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(count)] if pool else []


def detections_block(ends, indices):
    return DetectionsBlock(np.array(ends, np.uint64), np.array(indices, np.uint64))


def draw_message(data, valid_start, alice, sent, acked):
    """One message, biased towards ones that advance the session.

    ``sent`` frames were reflected and the first ``acked`` acknowledged.
    """
    kind = data.draw(KINDS)
    plausible = data.draw(MOSTLY)
    if kind in ("qframe", "window"):
        start = sent if plausible else data.draw(ANY_INDEX)
        level = data.draw(LEVELS)
        if kind == "qframe":
            return QFrameOut(start, level, POL_HORIZONTAL)
        left = N_PULSES - sent
        count = data.draw(st.integers(1, left)) if plausible and left else data.draw(ANY_INDEX)
        return QFrameWindowOut(start, count, level, POL_HORIZONTAL)
    if kind == "detections":
        count = data.draw(SMALL)
        if plausible:
            # Like Bob's: clicks in the window since the last acknowledgement.
            pool = range(acked, sent)
            return Detections(tuple(sorted(set(
                pool[data.draw(st.integers(0, len(pool) - 1))] for _ in range(count)
            ))) if pool else ())
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
        count = len(alice.detected_indices) if plausible else data.draw(SMALL)
        return Bases(np.array([data.draw(BIT) for _ in range(count)], np.uint8))
    if kind == "terminate":
        return Terminate(data.draw(st.integers(0, 3)))
    return valid_start if plausible else valid_start._replace(n_pulses=N_PULSES + 1)


@SETTINGS
@given(data=st.data(), variant=st.sampled_from(list(ProtocolVariant)),
       disclosure=st.sampled_from([0.0, 0.5]))
def test_alice_answers_any_sequence_with_replies_or_violation(data, variant, disclosure):
    cfg = session_config(variant, disclosure)
    alice = AliceSession(cfg)
    valid_start = SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                               seeds_commitment(cfg))
    started = False
    sent = acked = 0
    symbols = []  # symbol Alice reflected for each frame, in index order
    for k in range(data.draw(st.integers(1, 40))):
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
        if live and isinstance(msg, Detections):
            acked = sent
        elif live and isinstance(msg, DetectionsBlock):
            acked = int(msg.ends[-1])
        if msg is valid_start:
            started = started or not alice.done
    # Scalar and window frames served one stream, in index order.
    bits = BitSource.from_rng(derive_rng(cfg.seeds.alice, STREAM_BITS)).take(sent)
    expected = 2 * bits.astype(int)
    if variant.uses_bases:
        expected += BitSource.from_rng(derive_rng(cfg.seeds.alice, STREAM_BASES)).take(sent)
    assert symbols == expected.tolist()


U64 = st.integers(0, 2 ** 64 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POL = st.tuples(FINITE, FINITE, FINITE, FINITE)
INDICES = st.lists(st.integers(0, 2 ** 64 - 1), max_size=6, unique=True).map(sorted)


def window_back(start, mean_photons, pol, symbols):
    return QFrameWindowBack(start, len(symbols), mean_photons,
                            np.array(symbols, dtype=np.uint8), pol)


MESSAGES = st.one_of(
    st.builds(SessionStart, U64, st.integers(0, 255), FINITE,
              st.binary(min_size=32, max_size=32)),
    st.builds(QFrameOut, U64, FINITE, POL),
    st.builds(QFrameBack, U64, FINITE, FINITE, POL),
    st.builds(Detections, INDICES.map(tuple)),
    st.builds(Bases, st.lists(BIT, max_size=20).map(lambda bits: np.array(bits, np.uint8))),
    INDICES.flatmap(lambda idx: st.lists(BIT, min_size=len(idx), max_size=len(idx)).map(
        lambda bits: Disclose(np.array(list(zip(idx, bits)), DISCLOSE_RECORD)))),
    st.builds(ErReport, FINITE),
    st.builds(Terminate, st.integers(0, 255)),
    st.builds(QFrameWindowOut, U64, st.integers(0, 2 ** 32 - 1), FINITE, POL),
    st.builds(window_back, U64, FINITE, POL, st.lists(st.integers(0, 3), max_size=20)),
    st.lists(st.integers(1, 2 ** 64 - 1), min_size=1, max_size=6, unique=True).map(sorted)
    .flatmap(lambda ends: st.lists(st.integers(0, ends[-1] - 1), max_size=6, unique=True)
             .map(lambda indices: detections_block(ends, sorted(indices)))),
)


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
        new = data.draw(POL)
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


class PassThrough:
    """Endpoint wrapper; Bob runs the per-pulse engine behind any wrapper."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()


@functools.lru_cache(maxsize=None)
def messages_bob_sends(variant, disclosure, per_pulse):
    """How many messages Bob sends in an honest session."""
    cfg = session_config(variant, disclosure)
    alice = AliceSession(cfg)
    sent = []

    def responder(msg):
        sent.append(msg)
        return alice.handle(msg)

    endpoint = open_in_process(responder)
    BobSession(cfg).run(PassThrough(endpoint) if per_pulse else endpoint)
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
        result = BobSession(cfg).run(PassThrough(endpoint) if per_pulse else endpoint)
    except (ProtocolViolationError, ConfigError, SessionAborted):
        result = None
    # The first frame shows which engine ran.
    assert sent_types[1] is (QFrameOut if per_pulse else QFrameWindowOut)
    if result is not None:
        assert isinstance(result, SessionResult)
    if honest:
        assert result == run_session(cfg)
