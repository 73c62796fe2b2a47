"""The batched engine against the per-pulse reference path.

The type of Bob's endpoint alone picks the engine: a bare in-process or
socket endpoint takes the batched path; the same session through a
pass-through endpoint wrapper takes the per-pulse path. All must agree on
everything either party ends up with.
"""

import dataclasses
import functools
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from field_inputs import pulse_out, window_back, window_out
from fmqkd import protocol
from fmqkd.channel import SocketEndpoint, open_in_process
from fmqkd.detector import GatedDetectorConfig, click_probability
from fmqkd.errors import ChannelError, ProtocolViolationError, SessionAborted
from fmqkd.framing import (
    Detections,
    DetectionsBlock,
    QFrameBack,
    QFrameOut,
    decode_frame,
    encode_frame,
)
from fmqkd.interferometer import SetupConfig, detection_mean
from fmqkd.presets import reference_detector, reference_session, reference_setup
from fmqkd.protocol import (
    STREAM_BASES,
    STREAM_BITS,
    AliceSession,
    BobSession,
    ProtocolVariant,
    QFrameWindowBack,
    QFrameWindowOut,
    QuantumPhysics,
    Seeds,
    SessionResult,
    run_session,
)
from fmqkd.randomness import BitSource, derive_rng
from sessions import (
    PassThroughEndpoint,
    child_env,
    noisy_config,
    run_in_process,
    run_over_socket,
    started_alice,
    with_key_files,
)

SEEDS = [Seeds(1, 2, 3), Seeds(17, 4, 99), Seeds(2 ** 63, 5, 8), Seeds(40, 41, 42),
         Seeds(123456789, 987654321, 555)]


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
    return [(min((k + 1) * cfg.ack_window, cfg.n_pulses), tuple(m.indices.tolist()))
            for k, m in enumerate(detections)]


def assert_equivalent(cfg, reference=None, run=run_in_process):
    """The batched path, in ``run``'s session of ``cfg``, equals ``reference``,
    the per-pulse path's run of ``cfg``."""
    batched, alice_b, seen_b = run(cfg)
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
    # The fewest round trips: one window frame per block-sized step.
    block = protocol.BLOCK_PULSES
    step = cfg.ack_window * (block // cfg.ack_window) or block
    assert sum(isinstance(m, QFrameWindowOut) for m in seen_b) == -(-cfg.n_pulses // step)
    assert_python_types(batched)
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


@pytest.mark.parametrize("engine", [run_in_process, run_reference], ids=["batched", "per_pulse"])
@pytest.mark.parametrize("disclosure", [0.0, 0.5])
@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("ack_window", [1, 7, 100, 250])
def test_alice_keys_are_her_own_stream_bits(monkeypatch, ack_window, variant, disclosure,
                                            engine):
    # An oracle outside Alice's record: her keys are her bit stream at the sifted
    # pulses, with windows inside and across blocks.
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 64)
    cfg = noisy_config(1000, SEEDS[1], variant, ack_window, disclosure)
    result, alice, _ = engine(cfg)

    def stream(seed, kind):
        return BitSource.from_seed(seed, kind).take(cfg.n_pulses)

    sifted = np.array(result.detected_indices, np.intp)
    if variant.uses_bases:
        bases = stream(cfg.seeds.alice, STREAM_BASES), stream(cfg.seeds.bob, STREAM_BASES)
        sifted = sifted[bases[0][sifted] == bases[1][sifted]]
    bits = stream(cfg.seeds.alice, STREAM_BITS)
    assert sifted.size > 10
    assert alice.sifted_key == bits[sifted].tobytes()
    assert alice.final_key == bits[np.setdiff1d(sifted, result.disclosed_indices)].tobytes()


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
    # The final short window rides in the last block.
    assert list(protocol._blocks(10, 3)) == [(0, 10)]
    assert list(protocol._blocks(9, 3)) == [(0, 9)]
    assert list(protocol._blocks(5, 8)) == [(0, 5)]
    block = protocol.BLOCK_PULSES
    assert list(protocol._blocks(3 * block, 1024)) == [
        (0, block), (block, 2 * block), (2 * block, 3 * block)]
    # No block grows past BLOCK_PULSES to take it.
    assert list(protocol._blocks(2 * block + 1, 1024)) == [
        (0, block), (block, 2 * block), (2 * block, 2 * block + 1)]
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


def test_alice_rejects_bad_windows():
    cfg = noisy_config(100, SEEDS[0], ProtocolVariant.BB84, 10)
    alice = started_alice(cfg)
    (back,) = alice.handle(window_out(0, 40))
    assert isinstance(back, QFrameWindowBack) and back.count == 40
    for bad in (window_out(0, 10),      # overlaps frames already reflected
                window_out(39, 5),      # overlaps
                window_out(41, 5),      # leaves a gap
                window_out(40, 0),      # empty
                window_out(40, -3),     # empty
                window_out(40, 61),     # runs past n_pulses
                window_out(40, 10, 1.0)):  # wrong pulse level
        with pytest.raises(ProtocolViolationError):
            alice.handle(bad)
    assert isinstance(alice.handle(window_out(40, 60))[0], QFrameWindowBack)
    with pytest.raises(ProtocolViolationError):
        alice.handle(pulse_out(100))


def test_alice_rejects_window_before_start():
    alice = AliceSession(noisy_config(100, SEEDS[0], ProtocolVariant.BB92, 10))
    with pytest.raises(ProtocolViolationError):
        alice.handle(window_out(0, 10))


def test_physics_window_checks():
    cfg = noisy_config(100, SEEDS[0], ProtocolVariant.BB84, 10)
    half = cfg.setup.mu_pair / 2.0
    bob = np.zeros(10, dtype=np.uint8)
    back = functools.partial(window_back, mean_photons=half)
    physics = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(3, 0))
    good = back([0, 1, 2, 3] * 2 + [0, 0])
    dense = (derive_rng(3, 0).random(10)
             < dense_click_table(cfg.setup, cfg.detector)[(good.symbols << 2) + bob])
    offsets = physics.observe_window(good, bob)
    assert offsets.dtype == np.intp and np.array_equal(offsets, np.flatnonzero(dense))
    for bad, bob_symbols in ((back([0] * 10, start=5), bob),  # out of order
                             (back([0] * 10, start=10, mean_photons=half * 3), bob),  # too bright
                             (back([0] * 10, start=10, mean_photons=half / 3), bob),  # too dim
                             (back([0] * 10, start=10, pol=(0.5, 0, 0, 0)), bob),
                             # |pol|^2 = 1 + 1e-5: outside the 1e-6 tolerance, inside 1e-2.
                             (back([0] * 10, start=10, pol=(0, 0, math.sqrt(1 + 1e-5), 0)), bob),
                             (back([0] * 9, start=10), bob)):  # short window
        with pytest.raises(ProtocolViolationError):
            physics.observe_window(bad, bob_symbols)
    physics.observe_window(back([0] * 10, start=10), bob)
    physics.observe_window(back([0] * 10, start=20, pol=(0, 0, math.sqrt(1 + 1e-7), 0)), bob)


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
        window_back(a, mean_photons=half), b)
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
    clicks = np.concatenate([
        start + physics.observe_window(window_back(a[start:start + block], start=start,
                                                   mean_photons=setup.mu_pair / 2.0),
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
    big = window_out(0, block + 1)
    with pytest.raises(ProtocolViolationError):
        alice.handle(big)
    with pytest.raises(ProtocolViolationError):
        alice.handle(decode_frame(encode_frame(big)))
    # The rejected windows drew nothing: the next window starts the streams.
    (back,) = alice.handle(window_out(0, block))
    (fresh,) = started_alice(cfg).handle(window_out(0, block))
    assert back.count == block
    assert np.array_equal(back.symbols, fresh.symbols)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("ack_window", [1, 7, 1024])
@pytest.mark.parametrize("key_files", [False, True])
@pytest.mark.parametrize("disclosure", [0.0, 0.5])
def test_socket_matches_in_process(tmp_path, variant, ack_window, key_files, disclosure):
    for k, seeds in enumerate(SEEDS[:2]):
        cfg = noisy_config(1000, seeds, variant, ack_window, disclosure)
        if key_files:
            cfg = with_key_files(cfg, tmp_path, k)
        assert assert_equivalent(cfg, run=run_over_socket).clicks > 20


@pytest.mark.parametrize("ack_window", [7, 100])
def test_socket_matches_in_process_across_blocks(monkeypatch, ack_window):
    # 64-pulse blocks: many window frames per session, and 100-pulse windows
    # that span two blocks.
    monkeypatch.setattr(protocol, "BLOCK_PULSES", 64)
    for variant in ProtocolVariant:
        assert_equivalent(noisy_config(1000, SEEDS[2], variant, ack_window, 0.5),
                          run=run_over_socket)


def test_socket_matches_in_process_full_blocks(full_blocks):
    assert assert_equivalent(*full_blocks, run=run_over_socket).clicks > 0


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
    for n in (20_001, 2 * protocol.BLOCK_PULSES + 1):
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


@pytest.mark.parametrize("breach, message", [
    (lambda back: back._replace(mean_photons=0.3), "photons"),
    (lambda back: back._replace(start=1), "index"),
    (lambda back: back._replace(count=back.count - 1, symbols=back.symbols[1:]), "symbols for"),
], ids=["brightness", "index", "count"])
def test_rule_breaking_window_after_a_prefetch_leaves_the_helper_serving(breach, message):
    # The name dates from when this block's gates were drawn ahead on a helper
    # thread. One 40,000-pulse block whose returned window breaks a rule: Bob
    # refuses it before drawing any of its gates, no thread is started, and the
    # next session in this process is the one a fresh process runs.
    cfg = reference_session(0.2, 40_000, SEEDS[2])
    fresh = run_session(cfg)
    threads = threading.active_count()
    alice = AliceSession(cfg)

    def responder(msg):
        return [breach(r) if isinstance(r, QFrameWindowBack) else r for r in alice.handle(msg)]

    bob = BobSession(cfg)
    with pytest.raises(ProtocolViolationError, match=message):
        bob.run(open_in_process(responder))
    gates = bob._physics._gates._rng.bit_generator.state
    assert gates == advanced_state(cfg.seeds.physics, protocol.STREAM_GATES, 0)
    assert threading.active_count() == threads
    assert run_session(cfg) == fresh


@pytest.mark.skipif(sys.platform != "linux", reason="fork: Linux only")
def test_forked_child_runs_a_session_with_a_helper_of_its_own():
    # The name dates from when each process started a draw helper of its own;
    # a forked child now draws on its one thread, as its parent does.
    cfg = reference_session(0.1, 100_000, SEEDS[0])
    expected = run_session(cfg)
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork in a process that has threads, as a test
        # runner may; the child calls only os._exit once its session is done.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if run_session(cfg) == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's session did not end within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0


# Runs, on every CPU the runner has, a two-block BB92 session and the BB84
# key-file session whose key files argv holds as JSON, then prints the
# threads left running.
_SESSIONS = """
import json, os, sys, threading
try:
    os.sched_setaffinity(0, range(os.cpu_count()))
except (AttributeError, OSError):  # no such call, or CPUs this process may not use
    pass
import dataclasses
from fmqkd import protocol
from fmqkd.presets import reference_session
from fmqkd.protocol import ProtocolVariant, Seeds, run_session
n = 2 * protocol.BLOCK_PULSES + 1
run_session(reference_session(0.1, n, Seeds(1, 2, 3)))
cfg = reference_session(0.2, n, Seeds(4, 5, 6), ProtocolVariant.BB84)
files = json.loads(sys.argv[1])
run_session(dataclasses.replace(cfg, ack_window=8, disclosure_fraction=0.5, **files))
print(threading.active_count())
"""


def test_no_session_starts_a_thread(tmp_path):
    # A fresh interpreter, so no thread of the test process is counted.
    cfg = with_key_files(reference_session(0.2, 2 * protocol.BLOCK_PULSES + 1, SEEDS[0],
                                           ProtocolVariant.BB84), tmp_path, 11)
    files = {party: getattr(cfg, party) for party in ("alice_key_files", "bob_key_files")}
    out = subprocess.run([sys.executable, "-c", _SESSIONS, json.dumps(files)], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert int(out) == 1
