"""The batched engine against the per-pulse reference path.

A bare in-process or socket endpoint with the stock physics takes the
batched path; the same session through a pass-through endpoint wrapper takes
the per-pulse path. All must agree on everything either party ends up with.
"""

import dataclasses
import queue
import socket
import threading

import numpy as np
import pytest

from fmqkd import protocol
from fmqkd.channel import SocketEndpoint, connect, open_in_process, serve_once
from fmqkd.detector import GatedDetectorConfig, click_probability
from fmqkd.errors import ChannelError, ProtocolViolationError, SessionAborted
from fmqkd.framing import (
    Detections,
    DetectionsBlock,
    QFrameBack,
    QFrameOut,
    SessionStart,
    decode_frame,
    encode_frame,
)
from fmqkd.interferometer import SetupConfig, detection_mean
from fmqkd.keyfile import write_key_file
from fmqkd.presets import reference_detector, reference_session, reference_setup
from fmqkd.protocol import (
    OUTGOING_REFERENCE_PHOTONS,
    POL_HORIZONTAL,
    AliceSession,
    BobSession,
    ProtocolVariant,
    QFrameWindowBack,
    QFrameWindowOut,
    QuantumPhysics,
    Seeds,
    SessionConfig,
    SessionResult,
    seeds_commitment,
)
from fmqkd.randomness import derive_rng

SEEDS = [Seeds(1, 2, 3), Seeds(17, 4, 99), Seeds(2 ** 63, 5, 8), Seeds(40, 41, 42),
         Seeds(123456789, 987654321, 555)]


class PassThroughEndpoint:
    """Forwards every call; hides the endpoint type, forcing the per-pulse path."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()


def noisy_config(n_pulses, seeds, variant, ack_window, disclosure=0.0):
    """About 5% clicks with dark counts, so keys carry errors at every window size."""
    return SessionConfig(
        n_pulses=n_pulses, variant=variant, setup=SetupConfig(mu_pair=2.0),
        detector=GatedDetectorConfig(efficiency=0.5, dark_prob_per_gate=0.01),
        seeds=seeds, disclosure_fraction=disclosure, ack_window=ack_window,
    )


def with_key_files(cfg, tmp_path, entropy):
    """``cfg`` with both parties' bits read from generated key files."""
    rng = np.random.default_rng(entropy)
    paths = {}
    for party in ("alice", "bob"):
        paths[party] = []
        for k in range(2):
            p = tmp_path / f"{party}_{entropy}_{k}.qkdr"
            write_key_file(p, rng.integers(0, 2, size=cfg.n_pulses // 2 + 1).astype(np.uint8))
            paths[party].append(str(p))
    return dataclasses.replace(cfg, alice_key_files=tuple(paths["alice"]),
                               bob_key_files=tuple(paths["bob"]))


def run_in_process(cfg, wrap=lambda endpoint: endpoint):
    """(result, Alice, messages Alice received) of an in-process session, with
    Bob's endpoint passed through ``wrap``; by default the batched path."""
    alice = AliceSession(cfg)
    seen = []

    def responder(msg):
        seen.append(msg)
        return alice.handle(msg)

    return BobSession(cfg).run(wrap(open_in_process(responder))), alice, seen


def run_reference(cfg):
    """``run_in_process`` on the per-pulse path."""
    return run_in_process(cfg, PassThroughEndpoint)


def block_windows(seen):
    """(end, indices) of each ack window, split out of the DETECTIONS_BLOCK frames."""
    assert not any(isinstance(m, Detections) for m in seen)
    windows = []
    for m in seen:
        if isinstance(m, DetectionsBlock):
            cuts = [0] + np.searchsorted(m.indices, m.ends).tolist()
            windows += [(end, tuple(m.indices[lo:hi].tolist()))
                        for end, lo, hi in zip(m.ends.tolist(), cuts, cuts[1:])]
    return windows


def detection_windows(seen, cfg):
    """(end, indices) of each per-pulse DETECTIONS; window k ends at min(k * w, n)."""
    detections = [m for m in seen if isinstance(m, Detections)]
    return [(min((k + 1) * cfg.ack_window, cfg.n_pulses), m.indices)
            for k, m in enumerate(detections)]


def assert_equivalent(cfg, reference=None):
    """The batched path equals ``reference``, the per-pulse path's run of ``cfg``."""
    batched, alice_b, seen_b = run_in_process(cfg)
    reference, alice_r, seen_r = reference or run_reference(cfg)
    # The batched path really ran, in blocks; the reference ran per pulse.
    assert any(isinstance(m, QFrameWindowOut) for m in seen_b)
    assert not any(isinstance(m, QFrameOut) for m in seen_b)
    assert not any(isinstance(m, QFrameWindowOut) for m in seen_r)
    assert batched == reference
    assert alice_b.sifted_key == alice_r.sifted_key
    assert alice_b.final_key == alice_r.final_key
    assert alice_b.measured_er == alice_r.measured_er
    windows = block_windows(seen_b)
    assert windows == detection_windows(seen_r, cfg)
    assert len(windows) == -(-cfg.n_pulses // cfg.ack_window)
    return batched


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("ack_window", [1, 7, 1000, 1024])
@pytest.mark.parametrize("key_files", [False, True])
@pytest.mark.parametrize("disclosure", [0.0, 0.5])
def test_batched_matches_per_pulse(tmp_path, variant, ack_window, key_files, disclosure):
    # 1000 pulses: not a multiple of 7, equal to one window, smaller than 1024.
    for k, seeds in enumerate(SEEDS):
        cfg = noisy_config(1000, seeds, variant, ack_window, disclosure)
        if key_files:
            cfg = with_key_files(cfg, tmp_path, k)
        result = assert_equivalent(cfg)
        assert result.clicks > 20


@pytest.mark.parametrize("ack_window", [1, 7, 64, 100, 250, 2000])
def test_batched_matches_per_pulse_across_blocks(monkeypatch, ack_window):
    # Small blocks exercise multi-block sessions, windows spanning several
    # blocks (ack_window > BLOCK_PULSES) and a final short window.
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 64)
    for variant in ProtocolVariant:
        for seeds in SEEDS[:2]:
            assert_equivalent(noisy_config(1000, seeds, variant, ack_window, 0.5))


@pytest.fixture(scope="module")
def full_blocks():
    """Two full blocks and a short third, and their per-pulse reference, which
    both engines' tests compare with, run once."""
    cfg = reference_session(0.2, 2 * protocol.BLOCK_PULSES + 1001, Seeds(5, 6, 7),
                            ProtocolVariant.BB84)
    cfg = dataclasses.replace(cfg, ack_window=7)
    return cfg, run_reference(cfg)


def test_batched_matches_per_pulse_full_blocks(full_blocks):
    assert assert_equivalent(*full_blocks).clicks > 0


def test_block_boundaries():
    assert list(protocol._blocks(10, 3)) == [(0, 9), (9, 10)]
    assert list(protocol._blocks(9, 3)) == [(0, 6), (6, 9)]
    assert list(protocol._blocks(5, 8)) == [(0, 5)]
    block = protocol.BLOCK_PULSES
    assert list(protocol._blocks(3 * block, 1024)) == [
        (0, block), (block, 2 * block), (2 * block, 3 * block - 1024),
        (3 * block - 1024, 3 * block)]
    # A window longer than a block travels in block-sized pieces.
    assert list(protocol._blocks(block + 10, block + 10)) == [
        (0, block), (block, block + 10)]


RESULT_TYPES = {
    "variant": (str,),
    "n_pulses": (int,),
    "mu_pair": (float,),
    "disclosure_fraction": (float,),
    "seeds": "ints",
    "pulses_processed": (int,),
    "clicks": (int,),
    "detected_indices": "ints",
    "basis_matched": (int,),
    "sifted_key_bob": (bytes,),
    "sifted_key_alice": (bytes, type(None)),
    "disclosed_indices": "ints",
    "compared_bits": (int,),
    "mismatches": (int,),
    "measured_er": (float, type(None)),
    "final_key_bob": (bytes,),
    "aborted": (bool,),
}


def assert_python_types(result: SessionResult) -> None:
    """Every field holds plain Python values; a numpy scalar would change its repr."""
    assert {f.name for f in dataclasses.fields(result)} == set(RESULT_TYPES)
    for name, allowed in RESULT_TYPES.items():
        value = getattr(result, name)
        if allowed == "ints":
            assert type(value) is tuple, name
            assert all(type(x) is int for x in value), name
        else:
            assert type(value) in allowed, (name, type(value))


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("disclosure", [0.0, 0.5])
def test_batched_result_holds_python_types(variant, disclosure):
    cfg = noisy_config(3000, SEEDS[0], variant, 1024, disclosure)
    result = BobSession(cfg).run(open_in_process(AliceSession(cfg).handle))
    assert result.clicks > 0 and result.compared_bits > 0
    assert_python_types(result)


def test_batched_abort_keeps_acknowledged_windows(monkeypatch):
    # 400-pulse blocks of four 100-pulse windows; the 4th block frame fails.
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 400)
    cfg = noisy_config(5000, SEEDS[1], ProtocolVariant.BB92, 100)
    alice = AliceSession(cfg)
    acks = []

    def responder(msg):
        if isinstance(msg, DetectionsBlock):
            if len(acks) == 3:
                raise ChannelError("connection reset")
            acks.append(msg)
        return alice.handle(msg)

    with pytest.raises(SessionAborted) as err:
        BobSession(cfg).run(open_in_process(responder))
    partial = err.value.partial
    assert partial.aborted
    assert partial.pulses_processed == 1200
    assert partial.detected_indices == tuple(i for m in acks for i in m.indices.tolist())
    assert partial.clicks == len(partial.detected_indices) > 0
    assert_python_types(partial)


def started_alice(cfg):
    alice = AliceSession(cfg)
    alice.handle(SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                              seeds_commitment(cfg)))
    return alice


def window(start, count, level=OUTGOING_REFERENCE_PHOTONS):
    return QFrameWindowOut(start, count, level, POL_HORIZONTAL)


def test_alice_rejects_bad_windows():
    cfg = noisy_config(100, SEEDS[0], ProtocolVariant.BB84, 10)
    alice = started_alice(cfg)
    (back,) = alice.handle(window(0, 40))
    assert isinstance(back, QFrameWindowBack) and back.count == 40
    for bad in (window(0, 10),      # overlaps frames already reflected
                window(39, 5),      # overlaps
                window(41, 5),      # leaves a gap
                window(40, 0),      # empty
                window(40, -3),     # empty
                window(40, 61),     # runs past n_pulses
                window(40, 10, 1.0)):  # wrong pulse level
        with pytest.raises(ProtocolViolationError):
            alice.handle(bad)
    assert isinstance(alice.handle(window(40, 60))[0], QFrameWindowBack)
    with pytest.raises(ProtocolViolationError):
        alice.handle(QFrameOut(100, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))


def test_alice_rejects_window_before_start():
    alice = AliceSession(noisy_config(100, SEEDS[0], ProtocolVariant.BB92, 10))
    with pytest.raises(ProtocolViolationError):
        alice.handle(window(0, 10))


def test_physics_window_checks():
    cfg = noisy_config(100, SEEDS[0], ProtocolVariant.BB84, 10)
    half = cfg.setup.mu_pair / 2.0
    pol = (0.0, 0.0, 1.0, 0.0)
    bob = np.zeros(10, dtype=np.uint8)

    def back(start, symbols, level=half, p=pol):
        return QFrameWindowBack(start, len(symbols), level, np.asarray(symbols, np.uint8), p)

    physics = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(3, 0))
    good = back(0, [0, 1, 2, 3] * 2 + [0, 0])
    dense = (derive_rng(3, 0).random(10)
             < dense_click_table(cfg.setup, cfg.detector)[(good.symbols << 2) + bob])
    offsets = physics.observe_window(good, bob)
    assert offsets.dtype == np.intp and np.array_equal(offsets, np.flatnonzero(dense))
    for bad, bob_symbols in ((back(5, [0] * 10), bob),          # out of order
                             (back(10, [0] * 10, half * 3), bob),  # wrong level
                             (back(10, [0] * 10, p=(0.5, 0, 0, 0)), bob),
                             (back(10, [0] * 9), bob),           # short window
                             (back(10, [4] + [0] * 9), bob)):    # outside the alphabet
        with pytest.raises(ProtocolViolationError):
            physics.observe_window(bad, bob_symbols)
    physics.observe_window(back(10, [0] * 10), bob)


def test_observe_rejects_phase_outside_alphabet():
    cfg = noisy_config(100, SEEDS[0], ProtocolVariant.BB92, 10)
    physics = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(3, 0))
    half = cfg.setup.mu_pair / 2.0
    pol = (0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ProtocolViolationError):
        physics.observe(QFrameBack(0, half, 0.25, pol), 0.0)
    with pytest.raises(ProtocolViolationError):
        physics.observe(QFrameBack(0, half, 0.0, pol), float("nan"))
    physics.observe(QFrameBack(0, half, 1.5 * np.pi, pol), np.pi / 2.0)


def test_window_and_pulse_paths_share_one_click_table():
    cfg = noisy_config(5000, SEEDS[0], ProtocolVariant.BB84, 10)
    rng = np.random.default_rng(4)
    a = rng.integers(0, 4, 5000).astype(np.uint8)
    b = rng.integers(0, 4, 5000).astype(np.uint8)
    pol = (0.0, 0.0, 1.0, 0.0)
    half = cfg.setup.mu_pair / 2.0
    batched = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(9, 0)).observe_window(
        QFrameWindowBack(0, 5000, half, a, pol), b)
    scalar = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(9, 0))
    per_pulse = [scalar.observe(QFrameBack(i, half, protocol.PHASES[a[i]], pol),
                                protocol.PHASES[b[i]]) for i in range(5000)]
    assert batched.tolist() == np.flatnonzero(per_pulse).tolist()
    assert 100 < sum(per_pulse) < 4900


def dense_click_table(setup, detector):
    """Click probability of every pair, by 4 * alice_symbol + bob_symbol."""
    return np.array([click_probability(detection_mean(pa - pb, setup), detector)
                     for pa in protocol.PHASES for pb in protocol.PHASES])


GATE_CASES = {
    "mu 0.1": (reference_setup(0.1), reference_detector()),
    "mu 0.2": (reference_setup(0.2), reference_detector()),
    # Bright pulses on a perfect detector: the table's maximum is exactly 1.0.
    "p_max 1": (SetupConfig(mu_pair=1000.0), GatedDetectorConfig(1.0, 0.0)),
}


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("case", sorted(GATE_CASES))
def test_window_gate_matches_dense_lookup(variant, case):
    # The window gate looks up a pair's probability only under the table's
    # maximum; its clicks must equal a lookup on every pulse.
    setup, detector = GATE_CASES[case]
    table = dense_click_table(setup, detector)
    assert (table.max() == 1.0) == (case == "p_max 1")
    block = protocol.BLOCK_PULSES
    rng = np.random.default_rng(11)
    n = 3 * block
    if variant.uses_bases:
        a, b = rng.integers(0, 4, (2, n), dtype=np.uint8)
    else:
        a, b = 2 * rng.integers(0, 2, (2, n), dtype=np.uint8)
    assert set(a.tolist()) == ({0, 1, 2, 3} if variant.uses_bases else {0, 2})
    physics = QuantumPhysics(setup, detector, derive_rng(5, 0))
    pol = (0.0, 0.0, 1.0, 0.0)
    clicks = np.concatenate([
        start + physics.observe_window(QFrameWindowBack(start, block, setup.mu_pair / 2.0,
                                                        a[start:start + block], pol),
                                       b[start:start + block])
        for start in range(0, n, block)])
    dense = derive_rng(5, 0).random(n) < table[(a << 2) + b]
    assert clicks.dtype == np.intp
    assert np.array_equal(clicks, np.flatnonzero(dense))
    assert dense.any()


def test_alice_rejects_window_larger_than_a_block():
    block = protocol.BLOCK_PULSES
    cfg = noisy_config(3 * block, SEEDS[0], ProtocolVariant.BB84, 1024)
    alice = started_alice(cfg)
    big = window(0, block + 1)
    with pytest.raises(ProtocolViolationError):
        alice.handle(big)
    with pytest.raises(ProtocolViolationError):
        alice.handle(decode_frame(encode_frame(big)))
    # The rejected windows drew nothing: the next window starts the streams.
    (back,) = alice.handle(window(0, block))
    (fresh,) = started_alice(cfg).handle(window(0, block))
    assert back.count == block
    assert np.array_equal(back.symbols, fresh.symbols)


def run_over_socket(cfg, serve=serve_once):
    """(result, Alice, messages Alice received) of a session over loopback.

    Alice runs in a thread behind ``serve``, which has ``serve_once``'s
    signature.
    """
    alice = AliceSession(cfg)
    seen, errors, ports = [], [], queue.Queue()

    def responder(msg):
        seen.append(msg)
        return alice.handle(msg)

    def run():
        try:
            serve("127.0.0.1", 0, responder, lambda: alice.done, on_listening=ports.put)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    server = threading.Thread(target=run, daemon=True)
    server.start()
    endpoint = connect("127.0.0.1", ports.get(timeout=10))
    try:
        result = BobSession(cfg).run(endpoint)
    finally:
        endpoint.close()
        server.join(timeout=30)
    assert not server.is_alive() and not errors, errors
    return result, alice, seen


def assert_socket_matches(cfg, reference=None):
    """The socket session runs in blocks and equals ``reference``, the
    per-pulse path's run of ``cfg``."""
    reference, alice_r, seen_r = reference or run_reference(cfg)
    result, alice, seen = run_over_socket(cfg)
    assert any(isinstance(m, QFrameWindowOut) for m in seen)
    assert not any(isinstance(m, QFrameOut) for m in seen)
    assert result == reference
    assert alice.sifted_key == alice_r.sifted_key
    assert alice.final_key == alice_r.final_key
    assert alice.measured_er == alice_r.measured_er
    windows = block_windows(seen)
    assert windows == detection_windows(seen_r, cfg)
    assert len(windows) == -(-cfg.n_pulses // cfg.ack_window)
    assert_python_types(result)
    return result


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("ack_window", [1, 7, 1024])
@pytest.mark.parametrize("key_files", [False, True])
@pytest.mark.parametrize("disclosure", [0.0, 0.5])
def test_socket_matches_in_process(tmp_path, variant, ack_window, key_files, disclosure):
    for k, seeds in enumerate(SEEDS[:2]):
        cfg = noisy_config(1000, seeds, variant, ack_window, disclosure)
        if key_files:
            cfg = with_key_files(cfg, tmp_path, k)
        assert assert_socket_matches(cfg).clicks > 20


@pytest.mark.parametrize("ack_window", [7, 100])
def test_socket_matches_in_process_across_blocks(monkeypatch, ack_window):
    # 64-pulse blocks: many window frames per session, and 100-pulse windows
    # that span two blocks.
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 64)
    for variant in ProtocolVariant:
        assert_socket_matches(noisy_config(1000, SEEDS[2], variant, ack_window, 0.5))


def test_socket_matches_in_process_full_blocks(full_blocks):
    assert assert_socket_matches(*full_blocks).clicks > 0


def serve_one_block(host, port, responder, is_done, on_listening):
    """Serves like ``serve_once`` but hangs up when Bob asks for a second block."""
    with socket.create_server((host, port)) as listener:
        on_listening(listener.getsockname()[1])
        conn, _ = listener.accept()
        endpoint = SocketEndpoint(conn)
        windows = 0
        with conn:
            while True:
                msg = endpoint.recv()
                windows += isinstance(msg, QFrameWindowOut)
                if windows == 2:
                    return
                for reply in responder(msg):
                    endpoint.send(reply)


def test_socket_disconnect_after_first_block_aborts_on_window_boundary(monkeypatch):
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 400)
    cfg = noisy_config(3 * protocol.BLOCK_PULSES, SEEDS[1], ProtocolVariant.BB92, 100)
    first_block_end = 100 * (protocol.BLOCK_PULSES // 100)
    with pytest.raises(SessionAborted) as err:
        run_over_socket(cfg, serve=serve_one_block)
    partial = err.value.partial
    assert partial.aborted
    assert partial.pulses_processed == first_block_end
    assert partial.pulses_processed % cfg.ack_window == 0
    reference, _, _ = run_reference(cfg)
    assert partial.detected_indices == tuple(
        i for i in reference.detected_indices if i < first_block_end)
    assert partial.clicks == len(partial.detected_indices) > 0
    assert_python_types(partial)


def advanced_state(seed, stream, words):
    """The generator state of ``derive_rng(seed, stream)`` after ``words``
    PCG64 words."""
    rng = derive_rng(seed, stream)
    rng.bit_generator.advance(words)
    return rng.bit_generator.state


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("ack_window", [1024, 7])
def test_batched_session_draws_only_the_values_it_uses(variant, ack_window):
    # Bits come two to a PCG64 word and gate uniforms one to a word, so each
    # stream ends exactly where the session's own pulses leave it.
    n = 20_001
    cfg = dataclasses.replace(reference_session(0.2, n, SEEDS[1], variant),
                              ack_window=ack_window)
    alice, bob = AliceSession(cfg), BobSession(cfg)
    bob.run(open_in_process(alice.handle))
    for party, seed in ((alice, cfg.seeds.alice), (bob, cfg.seeds.bob)):
        for stream, src in ((protocol.STREAM_BITS, party._bits_src),
                            (protocol.STREAM_BASES, party._bases_src)):
            if src is not None:
                assert src._rng.bit_generator.state == advanced_state(seed, stream, -(-n // 2))
    gates = bob._physics._gates._rng.bit_generator.state
    assert gates == advanced_state(cfg.seeds.physics, protocol.STREAM_GATES, n)
