"""The session harness of the test suite.

The link configs, key files and started parties that tests feed a session;
one forwarding endpoint, the in-process and loopback session runners, one
scripted raw peer, ``free_port``, ``traced_peak``, the memory probe, and
``child_env``, the environment of a child interpreter. pytest
does not collect this module; tests import it like ``field_inputs``. Each
thread started here is joined before the test that started it ends, and what
the thread raised is raised in that test.
"""

import contextlib
import dataclasses
import os
import queue
import socket
import threading
import tracemalloc
import types

import numpy as np

import fmqkd
from field_inputs import window_out
from fmqkd.channel import SocketEndpoint, connect, open_in_process, serve_once
from fmqkd.detector import GatedDetectorConfig
from fmqkd.interferometer import SetupConfig
from fmqkd.keyfile import write_key_file
from fmqkd.protocol import (
    AliceSession,
    BobSession,
    ProtocolVariant,
    Seeds,
    SessionConfig,
    session_start,
)

HOST = "127.0.0.1"
INF = float("inf")


def ideal_setup(mu_pair=0.1):
    """No loss and no extinction error."""
    return SetupConfig(
        mu_pair=mu_pair, line_loss_db=0.0, c1_tap_db=0.0,
        alice_extinction_db=INF, bob_extinction_db=INF,
    )


def noiseless_config(n_pulses, seeds=Seeds(1, 2, 3), variant=ProtocolVariant.BB92,
                     mu_pair=40.0):
    """The ideal setup and a perfect detector: keys without errors."""
    detector = GatedDetectorConfig(efficiency=1.0, dark_prob_per_gate=0.0)
    return SessionConfig(n_pulses=n_pulses, variant=variant, setup=ideal_setup(mu_pair),
                         detector=detector, seeds=seeds)


def noisy_config(n_pulses, seeds, variant, ack_window, disclosure=0.0):
    """About 5% clicks with dark counts, so keys carry errors at every window size."""
    return SessionConfig(
        n_pulses=n_pulses, variant=variant, setup=SetupConfig(mu_pair=2.0),
        detector=GatedDetectorConfig(efficiency=0.5, dark_prob_per_gate=0.01),
        seeds=seeds, disclosure_fraction=disclosure, ack_window=ack_window,
    )


def dark_count_config(n_pulses, seeds, disclosure=0.0):
    """A BB92 link at mu 0.2 whose detector's dark counts put errors in the key."""
    return SessionConfig(
        n_pulses=n_pulses, variant=ProtocolVariant.BB92,
        setup=SetupConfig(mu_pair=0.2),
        detector=GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=5e-4),
        seeds=seeds, disclosure_fraction=disclosure,
    )


def with_key_files(cfg, tmp_path, entropy):
    """``cfg`` with both parties' bits read from two generated key files each."""
    rng = np.random.default_rng(entropy)
    files = {}
    for party in ("alice", "bob"):
        paths = tuple(str(tmp_path / f"{party}_{entropy}_{k}.qkdr") for k in range(2))
        for p in paths:
            write_key_file(p, rng.integers(0, 2, size=cfg.n_pulses // 2 + 1).astype(np.uint8))
        files[f"{party}_key_files"] = paths
    return dataclasses.replace(cfg, **files)


def started_alice(cfg, reflected=0):
    """Alice of ``cfg`` after SESSION_START, who has reflected the first
    ``reflected`` frames in one window."""
    alice = AliceSession(cfg)
    assert alice.handle(session_start(cfg)) == []
    if reflected:
        alice.handle(window_out(0, reflected))
    return alice


class PassThroughEndpoint:
    """Forwards every call to ``inner``. Its type hides the inner endpoint's,
    so Bob takes the per-pulse path behind it; a subclass overrides only the
    call it changes."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()


def child_env() -> dict:
    """Environment for a child interpreter: the package under test first on its path."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.realpath(fmqkd.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def free_port():
    """A loopback port that nothing listens on, for a CLI config that needs
    its port before anything listens. A test's own listener binds port 0."""
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


@contextlib.contextmanager
def traced_peak():
    """Traces the ``with`` body's allocations; at its end, ``.peak`` holds the
    most bytes the body held at once."""
    traced = types.SimpleNamespace()
    tracemalloc.start()
    try:
        yield traced
    finally:
        traced.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@contextlib.contextmanager
def in_thread(target, timeout=30):
    """Runs ``target()`` in a thread for the ``with`` body, then joins it and
    raises what it raised."""
    errors = []

    def run():
        try:
            target()
        except Exception as exc:  # raised below, in the test that started it
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield
    finally:
        thread.join(timeout)
    assert not thread.is_alive(), "thread still running"
    if errors:
        raise errors[0]


def _recording_alice(cfg):
    """Alice of ``cfg``, her handler, and the list it appends each message she receives to."""
    alice, seen = AliceSession(cfg), []

    def responder(msg):
        seen.append(msg)
        return alice.handle(msg)

    return alice, responder, seen


def run_in_process(cfg, wrap=lambda endpoint: endpoint):
    """(result, Alice, messages Alice received) of an in-process session, with
    Bob's endpoint passed through ``wrap``; by default the batched path."""
    alice, responder, seen = _recording_alice(cfg)
    return BobSession(cfg).run(wrap(open_in_process(responder))), alice, seen


@contextlib.contextmanager
def serving(responder, is_done, serve=serve_once):
    """A client endpoint of ``serve``, which has ``serve_once``'s signature and
    runs in a thread on a loopback port it binds as port 0."""
    ports = queue.Queue()
    with in_thread(lambda: serve(HOST, 0, responder, is_done, on_listening=ports.put)):
        endpoint = connect(HOST, ports.get(timeout=10))
        try:
            yield endpoint
        finally:
            endpoint.close()


def run_over_socket(cfg, serve=serve_once):
    """``run_in_process`` over loopback, with Alice behind ``serve``."""
    alice, responder, seen = _recording_alice(cfg)
    with serving(responder, lambda: alice.done, serve) as endpoint:
        result = BobSession(cfg).run(endpoint)
    return result, alice, seen


class RawPeer:
    """A loopback listener that scripts its one client's connection.

    It accepts, reads ``reads`` frames into ``received``, sends ``data``, and
    then closes the connection if ``close_after_send``. Otherwise it holds the
    connection open until the ``with`` block ends, so a receiver that waits
    for more bytes than were sent times out instead of seeing a clean close.
    The block's end also closes every endpoint ``endpoint`` made.
    """

    def __init__(self, data=b"", reads=0, close_after_send=False):
        self.received = []
        self._stack = contextlib.ExitStack()
        listener = self._stack.enter_context(socket.create_server((HOST, 0)))
        self.port = listener.getsockname()[1]
        release = threading.Event()

        def serve():
            conn, _ = listener.accept()
            with conn:
                endpoint = SocketEndpoint(conn)
                self.received += [endpoint.recv() for _ in range(reads)]
                conn.sendall(data)
                if not close_after_send:
                    release.wait(10)

        self._stack.enter_context(in_thread(serve, timeout=10))
        self._stack.callback(release.set)

    def endpoint(self) -> SocketEndpoint:
        # The endpoint's idle timeout turns a receiver that waits for a
        # claimed payload into a ChannelError rather than a hang.
        endpoint = connect(HOST, self.port)
        self._stack.callback(endpoint.close)
        return endpoint

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._stack.__exit__(*exc_info)
