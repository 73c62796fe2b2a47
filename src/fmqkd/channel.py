"""Channel layer: deterministic in-process delivery and TCP sockets.

Both modes move the same message set. The in-process endpoint hands each
sent message straight to a responder callable and queues the replies, which
makes delivery a deterministic FIFO; the socket endpoint moves encoded
frames over TCP in send order.
"""

from __future__ import annotations

import socket
import time
from collections import deque
from typing import Callable, List, Optional

from .errors import ChannelError
from .framing import HEADER, Message, decode_header, decode_payload, encode_frame

Responder = Callable[[Message], List[Message]]

# Largest single read, so a payload's buffer grows only with the bytes that
# actually arrive, whatever length its header claims.
RECV_CHUNK = 65536

# Seconds a socket waits on its peer for a whole connect, its tries included, or any
# one send or recv; a stalled peer then ends the session with ChannelError, not a hang.
IDLE_TIMEOUT_S = 30.0
CONNECT_DELAY_S = 0.25  # seconds between tries to reach a peer that is still starting up


class InProcessEndpoint:
    """Driver-side endpoint wired directly to the peer's handler."""

    def __init__(self, responder: Responder):
        self._responder = responder
        self._inbox: deque = deque()
        self._closed = False

    def send(self, msg: Message) -> None:
        if self._closed:
            raise ChannelError("channel is closed")
        self._inbox.extend(self._responder(msg))

    def recv(self) -> Message:
        if not self._inbox:
            raise ChannelError("no message pending on in-process channel")
        return self._inbox.popleft()

    def close(self) -> None:
        self._closed = True


class SocketEndpoint:
    """Frame-oriented endpoint over a connected TCP socket.

    ``recv`` checks each header's length against its type's bounds before it
    reads the payload, and reads the payload in chunks of at most RECV_CHUNK
    bytes; the receiving party checks the message. Every send and recv gives
    up after IDLE_TIMEOUT_S seconds.
    """

    def __init__(self, sock: socket.socket):
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(IDLE_TIMEOUT_S)
        self._sock = sock

    def send(self, msg: Message) -> None:
        try:
            self._sock.sendall(encode_frame(msg))
        except OSError as exc:
            raise ChannelError(f"send failed: {exc}") from exc

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            try:
                chunk = self._sock.recv(min(n - got, RECV_CHUNK))
            except OSError as exc:
                raise ChannelError(f"recv failed: {exc}") from exc
            if not chunk:
                raise ChannelError("peer closed the connection mid-frame")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv(self) -> Message:
        msg_type, length = decode_header(self._recv_exact(HEADER.size))
        return decode_payload(msg_type, self._recv_exact(length))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


def open_in_process(responder: Responder) -> InProcessEndpoint:
    return InProcessEndpoint(responder)


def connect(host: str, port: int) -> SocketEndpoint:
    """Connect to a serving peer, retrying while it starts up, until a deadline
    IDLE_TIMEOUT_S after the call; each try waits only for the time left."""
    deadline = time.monotonic() + IDLE_TIMEOUT_S
    left = IDLE_TIMEOUT_S
    while True:
        try:
            return SocketEndpoint(socket.create_connection((host, port), timeout=left))
        except OSError as exc:
            left = deadline - time.monotonic() - CONNECT_DELAY_S
            if left <= 0:
                raise ChannelError(f"could not connect to {host}:{port}: {exc}") from exc
        time.sleep(CONNECT_DELAY_S)


def serve_once(host: str, port: int, responder: Responder,
               is_done: Callable[[], bool],
               on_listening: Optional[Callable[[int], None]] = None) -> None:
    """Accept one connection and serve it until the session reports done.

    ``on_listening`` receives the bound port before accept, so callers can
    pass port 0 and learn the kernel-assigned one.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(1)
        if on_listening is not None:
            on_listening(listener.getsockname()[1])
        conn, _ = listener.accept()
    except OSError as exc:
        listener.close()
        raise ChannelError(f"listen on {host}:{port} failed: {exc}") from exc
    endpoint = SocketEndpoint(conn)
    try:
        with conn:
            while not is_done():
                msg = endpoint.recv()
                for reply in responder(msg):
                    endpoint.send(reply)
    finally:
        listener.close()
