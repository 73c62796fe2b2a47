import socket
import threading
import time
import tracemalloc

import numpy as np
import pytest

from fmqkd import channel
from fmqkd.channel import SocketEndpoint, connect, open_in_process, serve_once
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
    QFrameWindowBack,
    QFrameWindowOut,
    Terminate,
    encode_frame,
)
from fmqkd.protocol import AliceSession, BobSession, Seeds, run_session
from fmqkd.presets import reference_session


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


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
    port = free_port()
    received = []
    done = threading.Event()

    def responder(msg):
        received.append(msg)
        if isinstance(msg, Terminate):
            done.set()
            return []
        return [msg]  # echo

    server = threading.Thread(
        target=serve_once,
        args=("127.0.0.1", port, responder, done.is_set),
        daemon=True,
    )
    server.start()
    ep = connect("127.0.0.1", port)
    for msg in (Detections((3, 17)), ErReport(0.5)):
        ep.send(msg)
        assert ep.recv() == msg
    ep.send(Terminate(0))
    server.join(timeout=10)
    assert not server.is_alive()
    assert received[-1] == Terminate(0)
    ep.close()


def test_socket_peer_close_mid_frame_raises():
    port = free_port()
    ready = threading.Event()

    def half_frame_server():
        with socket.socket() as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", port))
            listener.listen(1)
            ready.set()
            conn, _ = listener.accept()
            with conn:
                conn.sendall(encode_frame(Terminate(0))[:3])

    server = threading.Thread(target=half_frame_server, daemon=True)
    server.start()
    ready.wait(5)
    ep = connect("127.0.0.1", port)
    with pytest.raises(ChannelError):
        ep.recv()
    ep.close()
    server.join(5)


def test_connect_refused_after_retries(monkeypatch):
    monkeypatch.setattr(channel, "CONNECT_ATTEMPTS", 2)
    monkeypatch.setattr(channel, "CONNECT_DELAY_S", 0.01)
    with pytest.raises(ChannelError):
        connect("127.0.0.1", free_port())


def run_over_socket(cfg, wrap=lambda handle: handle):
    """(result, Alice) of a loopback session; Alice serves ``wrap(alice.handle)``."""
    port = free_port()
    alice = AliceSession(cfg)
    errors = []

    def serve():
        try:
            serve_once("127.0.0.1", port, wrap(alice.handle), lambda: alice.done)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    endpoint = connect("127.0.0.1", port)
    try:
        result = BobSession(cfg).run(endpoint)
    finally:
        endpoint.close()
    server.join(timeout=30)
    assert not server.is_alive() and not errors, errors
    return result, alice


def test_socket_session_matches_in_process():
    cfg = reference_session(0.2, 5000, Seeds(42, 43, 44))
    in_process = run_session(cfg)
    over_socket, alice = run_over_socket(cfg)
    assert over_socket == in_process
    assert alice.sifted_key == in_process.sifted_key_alice
    assert alice.measured_er == in_process.measured_er


def recorder(seen):
    """A wrapper of Alice's handler that appends every message Alice receives to ``seen``."""
    def wrap(handle):
        def responder(msg):
            seen.append(msg)
            return handle(msg)
        return responder
    return wrap


def test_socket_session_sends_one_acknowledgement_per_block():
    # 20k pulses in 1024-pulse windows: one block of 19 windows, then the
    # final short window.
    cfg = reference_session(0.2, 20_000, Seeds(42, 43, 44))
    seen = []
    result, _ = run_over_socket(cfg, recorder(seen))
    assert result == run_session(cfg)
    assert not any(isinstance(m, Detections) for m in seen)
    acks = [m for m in seen if isinstance(m, DetectionsBlock)]
    assert [m.ends.size for m in acks] == [19, 1]
    assert acks[-1].ends[-1] == cfg.n_pulses


def test_in_process_session_makes_one_round_trip_per_block():
    # 100k pulses in 1024-pulse windows: two blocks of 64 and 33 windows, then
    # the final short window.
    cfg = reference_session(0.1, 100_000, Seeds(42, 43, 44))
    seen = []
    result = BobSession(cfg).run(open_in_process(recorder(seen)(AliceSession(cfg).handle)))
    assert result == run_session(cfg)
    assert sum(isinstance(m, QFrameWindowOut) for m in seen) == 3
    acks = [m for m in seen if isinstance(m, DetectionsBlock)]
    assert [m.ends.size for m in acks] == [64, 33, 1]


class RawPeer:
    """A listening socket that sends fixed bytes to its one client.

    The peer keeps the connection open until ``close`` unless told to close
    right after sending, so a receiver that waits for more bytes than were
    sent times out instead of seeing a clean close.
    """

    def __init__(self, data: bytes, close_after_send: bool = False):
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._release = threading.Event()
        self._thread = threading.Thread(target=self._serve, args=(data, close_after_send),
                                        daemon=True)
        self._thread.start()

    def _serve(self, data, close_after_send):
        conn, _ = self._listener.accept()
        with conn:
            conn.sendall(data)
            if not close_after_send:
                self._release.wait(10)

    def endpoint(self) -> SocketEndpoint:
        # The endpoint's idle timeout turns a receiver that waits for a
        # claimed payload into a ChannelError rather than a hang.
        return connect("127.0.0.1", self.port)

    def close(self):
        self._release.set()
        self._thread.join(10)
        self._listener.close()


FIXED_SIZES = {"SESSION_START": (0x01, 49), "QFRAME_OUT": (0x02, 48),
               "QFRAME_BACK": (0x03, 56), "ER_REPORT": (0x07, 8), "TERMINATE": (0x08, 1),
               "QFRAME_WINDOW_OUT": (0x09, 52)}


@pytest.mark.parametrize("name", sorted(FIXED_SIZES))
@pytest.mark.parametrize("claim", ["one_more", "four_gib"])
def test_fixed_size_header_rejected_before_payload(name, claim):
    msg_type, size = FIXED_SIZES[name]
    length = size + 1 if claim == "one_more" else 2**32 - 1
    peer = RawPeer(HEADER.pack(1, msg_type, length))
    ep = peer.endpoint()
    try:
        with pytest.raises(ProtocolViolationError) as err:
            ep.recv()
        assert not isinstance(err.value, IncompleteFrameError)
    finally:
        ep.close()
        peer.close()


def test_window_back_capped_at_one_block():
    peer = RawPeer(HEADER.pack(1, 0x0A, 52 + BLOCK_PULSES + 1))
    ep = peer.endpoint()
    try:
        with pytest.raises(ProtocolViolationError):
            ep.recv()
    finally:
        ep.close()
        peer.close()
    symbols = np.arange(BLOCK_PULSES, dtype=np.uint8) % 4
    full = QFrameWindowBack(7, BLOCK_PULSES, 0.05, symbols, (0.0, 0.0, 1.0, 0.0))
    peer = RawPeer(encode_frame(full))
    ep = peer.endpoint()
    try:
        got = ep.recv()
        assert got[:3] == full[:3] and got.pol == full.pol
        assert np.array_equal(got.symbols, symbols)
    finally:
        ep.close()
        peer.close()


# DETECTIONS, BASES, DISCLOSE, DETECTIONS_BLOCK
@pytest.mark.parametrize("msg_type", [0x04, 0x05, 0x06, 0x0B])
def test_variable_payload_memory_follows_arrived_bytes(msg_type):
    claimed, sent = 64 << 20, 256 << 10
    data = HEADER.pack(1, msg_type, claimed) + bytes(sent)
    peer = RawPeer(data, close_after_send=True)
    ep = peer.endpoint()
    tracemalloc.start()
    try:
        with pytest.raises(ChannelError):
            ep.recv()  # the peer closes long before the claimed payload is complete
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        ep.close()
        peer.close()
    assert peak < 4 * sent


def test_detections_block_capped_at_one_block_of_windows():
    ends = np.arange(1, BLOCK_PULSES + 2, dtype="<u8")
    payload = np.array([ends.size, 0], "<u4").tobytes() + ends.tobytes()
    peer = RawPeer(HEADER.pack(1, 0x0B, len(payload)) + payload)
    ep = peer.endpoint()
    try:
        with pytest.raises(ProtocolViolationError) as err:
            ep.recv()
        assert not isinstance(err.value, IncompleteFrameError)
    finally:
        ep.close()
        peer.close()


def test_stalled_peer_aborts_session(monkeypatch):
    monkeypatch.setattr(channel, "IDLE_TIMEOUT_S", 0.2)
    peer = RawPeer(b"")  # accepts, then stays silent with the connection open
    ep = peer.endpoint()
    started = time.monotonic()
    try:
        with pytest.raises(SessionAborted, match="timed out"):
            BobSession(reference_session(0.2, 5000, Seeds(1, 2, 3))).run(ep)
    finally:
        ep.close()
        peer.close()
    assert time.monotonic() - started < 5.0
