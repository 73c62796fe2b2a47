"""Outside microbenchmarks: fixed inputs, timed calls into each layer's public API.

Each figure is the median over ``REPEATS`` timed loops, each loop sized to
take at least ``LOOP_NS``. Inputs are fixed, not seeded by the run, so the
figures compare across runs and commits.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from fmqkd.channel import open_in_process
from fmqkd.detector import gate_many
from fmqkd.framing import (
    Bases,
    Detections,
    Disclose,
    ErReport,
    QFrameBack,
    QFrameOut,
    SessionStart,
    Terminate,
    decode_frame,
    encode_frame,
)
from fmqkd.interferometer import detection_means
from fmqkd.keyfile import NATIVE_BLOCK_BITS, read_key_file, write_key_file
from fmqkd.presets import reference_detector, reference_session, reference_setup
from fmqkd.protocol import (
    OUTGOING_REFERENCE_PHOTONS,
    POL_HORIZONTAL,
    AliceSession,
    QuantumPhysics,
    Seeds,
    seeds_commitment,
)
from fmqkd.randomness import BitSource, UniformSampler, derive_rng

REPEATS = 5
LOOP_NS = 5_000_000
MAX_CALLS = 1 << 18
TAKE_BITS = 65536
# Scalar draws are timed over whole pre-drawn blocks, so each loop pays its
# refills in the same proportion as a long session does.
BLOCKS = 2 * 65536
PROTOCOL_PULSES = 20_000

_clock = time.perf_counter_ns


def _ns_per_call(make, max_calls: int = MAX_CALLS, min_calls: int = 1) -> float:
    """Median ns per call of ``make()``'s callable, over fresh callables per loop."""
    calls = min_calls
    while True:
        fn = make()
        t0 = _clock()
        for _ in range(calls):
            fn()
        if _clock() - t0 >= LOOP_NS or calls >= max_calls:
            break
        calls *= 2
    samples = []
    for _ in range(REPEATS):
        fn = make()
        t0 = _clock()
        for _ in range(calls):
            fn()
        samples.append((_clock() - t0) / calls)
    return statistics.median(samples)


def _ns_per_item(run_once) -> float:
    """Median ns per item of ``run_once()``, which returns (items, ns)."""
    return statistics.median(ns / items for items, ns in (run_once() for _ in range(REPEATS)))


def frame_samples() -> dict:
    """One message of each type; DETECTIONS at a short and a full window."""
    return {
        "SESSION_START": SessionStart(200_000, 0, 0.1, bytes(range(32))),
        "QFRAME_OUT": QFrameOut(123_456, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL),
        "QFRAME_BACK": QFrameBack(123_456, 0.05, math.pi, (0.0, 0.0, 1.0, 0.0)),
        "DETECTIONS_8": Detections(tuple(range(0, 8 * 128, 128))),
        "DETECTIONS_1024": Detections(tuple(range(0, 1024 * 3, 3))),
        "BASES": Bases(tuple(k % 2 for k in range(1024))),
        "DISCLOSE": Disclose(tuple((3 * k, k % 2) for k in range(256))),
        "ER_REPORT": ErReport(0.0084),
        "TERMINATE": Terminate(0),
    }


def framing_metrics() -> dict:
    out = {}
    for name, msg in frame_samples().items():
        frame = encode_frame(msg)
        out[f"framing.encode.{name}.ns"] = _ns_per_call(lambda m=msg: lambda: encode_frame(m))
        out[f"framing.decode.{name}.ns"] = _ns_per_call(lambda f=frame: lambda: decode_frame(f))
    return out


def randomness_metrics() -> dict:
    bits = np.random.default_rng(7).integers(0, 2, MAX_CALLS + TAKE_BITS, dtype=np.uint8)

    def keyfile_bits():
        return BitSource.from_bits(bits)

    return {
        "randomness.take_bit_prng.ns": _ns_per_call(
            lambda: BitSource.from_seed(7).take_bit, min_calls=BLOCKS),
        "randomness.take_bit_keyfile.ns": _ns_per_call(lambda: keyfile_bits().take_bit),
        "randomness.uniform_next.ns": _ns_per_call(
            lambda: UniformSampler(derive_rng(7, 0)).next, min_calls=BLOCKS),
        "randomness.take.ns_per_bit": _ns_per_call(
            lambda: lambda s=BitSource.from_seed(7): s.take(TAKE_BITS), 1) / TAKE_BITS,
        "randomness.take_keyfile.ns_per_bit": _ns_per_call(
            lambda: lambda s=keyfile_bits(): s.take(TAKE_BITS), 1) / TAKE_BITS,
    }


def protocol_metrics() -> dict:
    cfg = reference_session(0.1, PROTOCOL_PULSES, Seeds(7, 8, 9))
    half_mu = cfg.setup.mu_pair / 2.0
    backs = [QFrameBack(i, half_mu, math.pi * (i % 2), (0.0, 0.0, 1.0, 0.0))
             for i in range(PROTOCOL_PULSES)]
    outs = [QFrameOut(i, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL)
            for i in range(PROTOCOL_PULSES)]

    def observe_once():
        observe = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(9, 0)).observe
        t0 = _clock()
        for frame in backs:
            observe(frame, 0.0)
        return len(backs), _clock() - t0

    def qframe_once():
        alice = AliceSession(cfg)
        alice.handle(SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                                  seeds_commitment(cfg)))
        handle = alice.handle
        t0 = _clock()
        for msg in outs:
            handle(msg)
        return len(outs), _clock() - t0

    return {"protocol.observe.ns": _ns_per_item(observe_once),
            "protocol.alice_qframe.ns": _ns_per_item(qframe_once)}


def channel_metrics() -> dict:
    msg = frame_samples()["QFRAME_OUT"]

    def make():
        endpoint = open_in_process(lambda m: [m])
        send, recv = endpoint.send, endpoint.recv
        return lambda: (send(msg), recv())

    return {"channel.in_process.send_recv.ns": _ns_per_call(make)}


def detector_metrics() -> dict:
    n = 65536
    mu_effs = detection_means(np.random.default_rng(7).uniform(0.0, 2 * math.pi, n),
                              reference_setup(0.1))
    detector = reference_detector()
    ns = _ns_per_call(lambda: lambda rng=derive_rng(7, 0): gate_many(mu_effs, detector, rng), 64)
    return {"detector.gate_many.ns_per_pulse": ns / n}


def keyfile_metrics(workdir: Path) -> dict:
    path = workdir / "micro-block.qkdr"
    write_key_file(path, np.random.default_rng(7).integers(0, 2, NATIVE_BLOCK_BITS, dtype=np.uint8))
    ns = _ns_per_call(lambda: lambda: read_key_file(path))
    return {"keyfile.read.mb_per_s": path.stat().st_size / ns * 1e3}


def all_metrics(workdir: Path) -> dict:
    out = {}
    for part in (framing_metrics(), randomness_metrics(), protocol_metrics(),
                 channel_metrics(), detector_metrics(), keyfile_metrics(workdir)):
        out.update(part)
    return out
