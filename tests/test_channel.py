import threading
import time

import numpy as np
import pytest

from field_inputs import FIXED_SIZES, block_payload, window_back
from fmqkd import channel, framing, protocol
from fmqkd.channel import connect, open_in_process
from fmqkd.errors import (
    ChannelError,
    IncompleteFrameError,
    ProtocolViolationError,
    SessionAborted,
)
from fmqkd.framing import (
    BLOCK_PULSES,
    HEADER,
    Detections,
    DetectionsBlock,
    ErReport,
    QFrameWindowOut,
    Terminate,
    encode_frame,
)
from fmqkd.protocol import BobSession, Seeds, run_session
from fmqkd.presets import reference_session
from sessions import (
    RawPeer,
    free_port,
    run_in_process,
    run_over_socket,
    serving,
    started_alice,
    traced_peak,
)


def test_in_process_fifo_order():
    seen = []

    def responder(msg):
        seen.append(msg)
        return [ErReport(0.25), Terminate(0)]

    ep = open_in_process(responder)
    ep.send(Detections((1, 2)))
    assert seen == [Detections((1, 2))]
    assert ep.recv() == ErReport(0.25)
    assert ep.recv() == Terminate(0)
    with pytest.raises(ChannelError):
        ep.recv()


def test_in_process_closed_endpoint_errors():
    ep = open_in_process(lambda m: [])
    ep.close()
    with pytest.raises(ChannelError):
        ep.send(Terminate(0))


def test_socket_round_trip_and_order():
    received = []
    done = threading.Event()

    def responder(msg):
        received.append(msg)
        if isinstance(msg, Terminate):
            done.set()
            return []
        return [msg]  # echo

    with serving(responder, done.is_set) as ep:  # joins the server, and asserts it ended
        for msg in (Detections((3, 17)), ErReport(0.5)):
            ep.send(msg)
            assert encode_frame(ep.recv()) == encode_frame(msg)  # canonical, so the same message
        ep.send(Terminate(0))
    assert received[-1] == Terminate(0)


def test_socket_peer_close_mid_frame_raises():
    with RawPeer(encode_frame(Terminate(0))[:3], close_after_send=True) as peer:
        ep = peer.endpoint()
        with pytest.raises(ChannelError):
            ep.recv()


def test_connect_refused_after_retries(monkeypatch):
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.05)
    monkeypatch.setattr(channel, "CONNECT_DELAY_S", 0.01)
    with pytest.raises(ChannelError):
        connect("127.0.0.1", free_port())


def test_connect_gives_up_at_one_deadline(monkeypatch):
    # A peer that refuses twice, then never answers: each try waits what is left
    # of the deadline, and all of them end within it plus a stated 0.5 s slack.
    timeout, slack = 0.2, 0.5
    tries = []

    def create_connection(address, timeout):
        tries.append(timeout)
        if len(tries) <= 2:
            raise ConnectionRefusedError("refused")
        time.sleep(timeout)
        raise TimeoutError("timed out")

    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", timeout)
    monkeypatch.setattr(channel, "CONNECT_DELAY_S", 0.01)
    monkeypatch.setattr(channel.socket, "create_connection", create_connection)
    start = time.monotonic()
    with pytest.raises(ChannelError, match="timed out"):
        connect("127.0.0.1", 1)
    assert time.monotonic() - start < timeout + slack
    assert len(tries) == 3 and tries[0] == timeout > tries[1] > tries[2] > 0


def test_socket_session_matches_in_process():
    cfg = reference_session(0.2, 5000, Seeds(42, 43, 44))
    in_process = run_session(cfg)
    over_socket, alice, _ = run_over_socket(cfg)
    assert over_socket == in_process
    assert alice.sifted_key == in_process.sifted_key_alice
    assert alice.measured_er == in_process.measured_er


def test_socket_session_sends_one_acknowledgement_per_block():
    # 20k pulses in 1024-pulse windows: one block of 19 windows and the
    # final short window.
    cfg = reference_session(0.2, 20_000, Seeds(42, 43, 44))
    result, _, seen = run_over_socket(cfg)
    assert result == run_session(cfg)
    assert not any(isinstance(m, Detections) for m in seen)
    acks = [m for m in seen if isinstance(m, DetectionsBlock)]
    assert [m.ends.size for m in acks] == [20]
    assert acks[-1].ends[-1] == cfg.n_pulses


def test_socket_session_checks_each_received_message_once(monkeypatch):
    received, checked = [], []
    recv, check = channel.SocketEndpoint.recv, framing.check_message

    def counted_recv(endpoint):
        received.append(recv(endpoint))
        return received[-1]

    def counted_check(msg):
        checked.append(msg)
        return check(msg)

    monkeypatch.setattr(channel.SocketEndpoint, "recv", counted_recv)
    for module in (framing, protocol):
        monkeypatch.setattr(module, "check_message", counted_check)
    result, _, _ = run_over_socket(reference_session(0.2, 20_000, Seeds(3, 4, 5)))
    assert not result.aborted
    # Bob receives one window frame and the DISCLOSE; Alice the other five.
    assert len(received) == 7
    assert sorted(map(id, checked)) == sorted(map(id, received))


def test_in_process_session_makes_one_round_trip_per_block():
    # 100k pulses in 1024-pulse windows: two blocks of 64 and 33 windows, the
    # second with the final short window.
    cfg = reference_session(0.1, 100_000, Seeds(42, 43, 44))
    result, _, seen = run_in_process(cfg)
    assert result == run_session(cfg)
    assert sum(isinstance(m, QFrameWindowOut) for m in seen) == 2
    acks = [m for m in seen if isinstance(m, DetectionsBlock)]
    assert [m.ends.size for m in acks] == [64, 34]


@pytest.mark.parametrize("name", sorted(FIXED_SIZES))
@pytest.mark.parametrize("claim", ["one_more", "four_gib"])
def test_fixed_size_header_rejected_before_payload(name, claim):
    msg_type, size = FIXED_SIZES[name]
    length = size + 1 if claim == "one_more" else 2**32 - 1
    with RawPeer(HEADER.pack(1, msg_type, length)) as peer:
        ep = peer.endpoint()
        with pytest.raises(ProtocolViolationError) as err:
            ep.recv()
        assert not isinstance(err.value, IncompleteFrameError)


def test_window_back_capped_at_one_block():
    with RawPeer(HEADER.pack(1, 0x0A, 52 + BLOCK_PULSES + 1)) as peer:
        ep = peer.endpoint()
        with pytest.raises(ProtocolViolationError):
            ep.recv()
    symbols = np.arange(BLOCK_PULSES, dtype=np.uint8) % 4
    full = window_back(symbols, start=7, mean_photons=0.05)
    with RawPeer(encode_frame(full)) as peer:
        got = peer.endpoint().recv()
        assert got[:3] == full[:3] and got.pol == full.pol
        assert np.array_equal(got.symbols, symbols)


# DETECTIONS, BASES, DISCLOSE, DETECTIONS_BLOCK
@pytest.mark.parametrize("msg_type", [0x04, 0x05, 0x06, 0x0B])
def test_variable_payload_memory_follows_arrived_bytes(msg_type):
    claimed, sent = 64 << 20, 256 << 10
    data = HEADER.pack(1, msg_type, claimed) + bytes(sent)
    with RawPeer(data, close_after_send=True) as peer:
        ep = peer.endpoint()
        with traced_peak() as traced, pytest.raises(ChannelError):
            ep.recv()  # the peer closes long before the claimed payload is complete
    assert traced.peak < 4 * sent


def test_detections_block_capped_at_one_block_of_windows():
    # The socket reads the whole frame; its receiver refuses the windows.
    alice = started_alice(reference_session(0.2, 5000, Seeds(1, 2, 3)))
    with RawPeer(block_payload(BLOCK_PULSES + 1, 0, range(1, BLOCK_PULSES + 2))) as peer:
        with pytest.raises(ProtocolViolationError, match="windows") as err:
            alice.handle(peer.endpoint().recv())
        assert not isinstance(err.value, IncompleteFrameError)


def test_stalled_peer_aborts_session(monkeypatch):
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.2)
    with RawPeer() as peer:  # accepts, then stays silent with the connection open
        ep = peer.endpoint()
        started = time.monotonic()
        with pytest.raises(SessionAborted, match="timed out"):
            BobSession(reference_session(0.2, 5000, Seeds(1, 2, 3))).run(ep)
    assert time.monotonic() - started < 5.0
