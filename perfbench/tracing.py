"""The traced run: per-layer counters, timers and spans, all from outside ``src/``.

Entry points are wrapped on the objects of one session only (bit sources,
``QuantumPhysics.observe``, ``AliceSession.handle``, the channel endpoint)
or, for the optics, on the module for the duration of one call pair. The
wrappers read the clock and count; they never draw a random number, and
every traced result is checked against the untraced golden digest.

Spans are (trace, id, name, start, end, parent) records kept in memory and
written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from inputs import SPECS, load_golden, make_inputs, result_digest, session_config
from runners import (
    AlicePeer,
    check_fm,
    fm_loop,
    fm_pair,
    inproc_digest,
    inproc_pair,
    session_loop,
)

from fmqkd import interferometer, jones
from fmqkd.framing import Detections, QFrameBack, QFrameOut, encode_frame
from fmqkd.protocol import BobSession

_clock = time.perf_counter_ns
SOCKET_PROBE_PULSES = 5_000
STATE_PULSES = 20_000
OVERHEAD_PAIRS = 2
_FIXED_SIZE = {QFrameOut: len(encode_frame(QFrameOut(0, 1.0, (1.0, 0.0, 0.0, 0.0)))),
               QFrameBack: len(encode_frame(QFrameBack(0, 1.0, 0.0, (1.0, 0.0, 0.0, 0.0))))}


class Meter:
    __slots__ = ("calls", "ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0


def metered(fn, meter: Meter):
    def wrapper(*args):
        t0 = _clock()
        out = fn(*args)
        meter.ns += _clock() - t0
        meter.calls += 1
        return out
    return wrapper


def _wrap(obj, attr: str, meter: Meter) -> None:
    """Meter ``obj.attr`` on this instance only; absent objects are skipped."""
    fn = getattr(obj, attr, None) if obj is not None else None
    if fn is not None:
        setattr(obj, attr, metered(fn, meter))


def frame_size(msg) -> int:
    size = _FIXED_SIZE.get(type(msg))
    return size if size is not None else len(encode_frame(msg))


def _quantiles(values: list) -> tuple:
    """(p50, p99) of ``values``; a single value stands for both."""
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return statistics.median(values), cuts[98]


class Spans:
    def __init__(self):
        self.records: list = []

    def add(self, trace: str, name: str, start: int, end: int, parent) -> int:
        span_id = len(self.records)
        self.records.append((trace, span_id, name, start, end, parent))
        return span_id

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for trace, span_id, name, start, end, parent in self.records:
                out.write(json.dumps({"trace": trace, "id": span_id, "name": name,
                                      "start_ns": start, "end_ns": end,
                                      "parent": parent}) + "\n")


class TracingEndpoint:
    """Channel endpoint wrapper: send/recv time, frames, bytes, windows, round trips."""

    def __init__(self, inner, n_pulses: int):
        self._inner = inner
        self._n = n_pulses
        self.send_m, self.recv_m = Meter(), Meter()
        self.frames = 0
        self.bytes = 0
        self.qframes = 0
        self.loop_start = self.loop_end = None
        self.loop_channel_ns = 0
        self.windows: list = []
        self.rtt_ns: list = []
        self._window_start = None
        self._qframe_sent = 0

    def send(self, msg) -> None:
        t0 = _clock()
        if self.loop_start is None:
            self.loop_start = self._window_start = t0
        self._inner.send(msg)
        t1 = _clock()
        self.send_m.ns += t1 - t0
        self.send_m.calls += 1
        self.frames += 1
        self.bytes += frame_size(msg)
        if type(msg) is QFrameOut:
            self.qframes += 1
            self._qframe_sent = t0
        elif type(msg) is Detections and self.loop_end is None:
            self.windows.append((self._window_start, t1))
            self._window_start = t1
            if self.qframes == self._n:
                self.loop_end = t1
                self.loop_channel_ns = self.send_m.ns + self.recv_m.ns

    def recv(self):
        t0 = _clock()
        msg = self._inner.recv()
        t1 = _clock()
        self.recv_m.ns += t1 - t0
        self.recv_m.calls += 1
        self.frames += 1
        self.bytes += frame_size(msg)
        if type(msg) is QFrameBack:
            self.rtt_ns.append(t1 - self._qframe_sent)
        return msg

    def close(self) -> None:
        self._inner.close()


def traced_session(cfg, spans: Spans, trace: str, peer: AlicePeer = None):
    """One session with every layer entry point metered.

    Returns (result, metrics, seconds in ``BobSession.run``).
    """
    meters = defaultdict(Meter)
    t_start = _clock()
    if peer is None:
        bob, inner, alice = inproc_pair(cfg, lambda h: metered(h, meters["alice_handle"]))
        sources = [getattr(alice, "_bits_src", None), getattr(alice, "_bases_src", None)]
    else:
        bob, inner = BobSession(cfg), peer.endpoint()
        sources = []
    _wrap(getattr(bob, "_bits_src", None), "take_bit", meters["bob_take_bit"])
    _wrap(getattr(bob, "_bases_src", None), "take_bit", meters["bob_take_basis"])
    _wrap(getattr(bob, "_physics", None), "observe", meters["observe"])
    sources += [getattr(bob, "_bits_src", None), getattr(bob, "_bases_src", None)]
    for src in sources:
        _wrap(src, "_refill", meters["refill"])
    endpoint = TracingEndpoint(inner, cfg.n_pulses)
    t_setup = _clock()
    try:
        result = bob.run(endpoint)
    finally:
        endpoint.close()
    t_end = _clock()

    root = spans.add(trace, "session", t_start, t_end, None)
    spans.add(trace, "setup", t_start, t_setup, root)
    loop = spans.add(trace, "pulse_loop", endpoint.loop_start, endpoint.loop_end, root)
    for start, end in endpoint.windows:
        spans.add(trace, "window", start, end, loop)
    spans.add(trace, "sift_tail", endpoint.loop_end, t_end, root)

    loop_children = (meters["bob_take_bit"].ns + meters["bob_take_basis"].ns
                     + meters["observe"].ns + endpoint.loop_channel_ns)
    p50, p99 = _quantiles([(end - start) / 1e6 for start, end in endpoint.windows])
    rtt50, rtt99 = _quantiles([ns / 1e3 for ns in endpoint.rtt_ns])
    n = cfg.n_pulses
    metrics = {
        "randomness.refill.calls": meters["refill"].calls,
        "protocol.observe.click_ratio": result.clicks / n,
        "protocol.bob_loop.self_s": (endpoint.loop_end - endpoint.loop_start - loop_children) / 1e9,
        "protocol.window_ms.p50": p50,
        "protocol.window_ms.p99": p99,
        "protocol.sift_tail.s": (t_end - endpoint.loop_end) / 1e9,
        "protocol.sift_ratio": result.basis_matched / max(result.clicks, 1),
        "framing.bytes_per_pulse": endpoint.bytes / n,
        "channel.socket.rtt_us.p50": rtt50,
        "channel.socket.rtt_us.p99": rtt99,
        "channel.socket.recv_wait_s": endpoint.recv_m.ns / 1e9,
        "channel.socket.frames": endpoint.frames,
        "channel.socket.bytes": endpoint.bytes,
    }
    return result, metrics, (t_end - t_setup) / 1e9


_SOCKET_KEYS = ("channel.socket.rtt_us.p50", "channel.socket.rtt_us.p99",
                "channel.socket.recv_wait_s", "channel.socket.frames", "channel.socket.bytes")


def state_bytes_per_pulse(spec, inputs: dict) -> float:
    """Peak traced allocation of one in-process session, construction included."""
    cfg = session_config(spec, inputs, min(STATE_PULSES, spec.n_pulses))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bob, endpoint, _ = inproc_pair(cfg)
        bob.run(endpoint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / cfg.n_pulses


def traced_fm(inputs: dict, n_samples: int):
    """One call pair with the optics entry points metered on their modules."""
    overlap, haar = Meter(), Meter()
    saved = interferometer.pulse_pair_overlap, jones.haar_random_unitaries
    interferometer.pulse_pair_overlap = metered(saved[0], overlap)
    jones.haar_random_unitaries = metered(saved[1], haar)
    try:
        faraday, ordinary, dt = fm_pair(inputs, n_samples)
    finally:
        interferometer.pulse_pair_overlap, jones.haar_random_unitaries = saved
    metrics = {
        "interferometer.pulse_pair_overlap.us": overlap.ns / overlap.calls / 1e3,
        "jones.haar_random_unitaries.us_per_1000": haar.ns / 1e3 / (2 * n_samples / 1000),
    }
    return faraday, ordinary, dt, metrics


def _side_inputs(spec, seed: int, inputs: dict, workdir: Path) -> dict:
    return inputs if inputs["workload"] == spec.name else make_inputs(spec, seed, workdir)


def traced_run(spec, seed: int, inputs: dict, inputs_path: Path, workdir: Path,
               tally, spans: Spans) -> dict:
    """Per-layer metrics for ``spec``.

    Layers the workload's own load does not reach are measured on a short
    probe: the mu=0.1 reference session for ``fm_check_haar`` and a
    ``SOCKET_PROBE_PULSES`` socket session for the in-process workloads.
    """
    import micro

    metrics = micro.all_metrics(workdir)

    fm_spec = SPECS["fm_check_haar"]
    fm_inputs = _side_inputs(fm_spec, seed, inputs, workdir)
    fm_golden = load_golden(fm_spec)[fm_inputs["index"]]
    faraday, ordinary, fm_traced_s, fm_metrics = traced_fm(fm_inputs, fm_spec.n_samples)
    metrics.update(fm_metrics)
    check_fm(faraday, ordinary, fm_golden, tally)

    sess_spec = spec if spec.kind != "fm" else SPECS["inproc_bb92_ref"]
    sess_inputs = _side_inputs(sess_spec, seed, inputs, workdir)
    cfg = session_config(sess_spec, sess_inputs)
    golden = load_golden(sess_spec)[sess_inputs["index"]]
    own_load = sess_spec is spec
    plain_rates, traced_rates = [], []

    def sessions(peer):
        for k in range(OVERHEAD_PAIRS if own_load else 1):
            if own_load:
                plain_rates.extend(session_loop(cfg, golden, 0.0, 1, tally, peer))
            result, found, run_s = traced_session(cfg, spans if k == 0 else Spans(),
                                                  f"{spec.name}-{seed}-{sess_spec.name}", peer)
            if own_load:
                traced_rates.append(cfg.n_pulses / run_s)
            tally.check(result_digest(result) == golden, "traced digest differs from untraced")
            if k == 0:
                metrics.update(found)

    if sess_spec.kind == "socket":
        with AlicePeer(inputs_path) as peer:
            sessions(peer)
    else:
        sessions(None)
    metrics["protocol.state_bytes_per_pulse"] = state_bytes_per_pulse(sess_spec, sess_inputs)

    if sess_spec.kind != "socket":
        sock_spec = SPECS["socket_bb92_loopback"]
        sock_inputs = dict(_side_inputs(sock_spec, seed, inputs, workdir),
                           n_pulses=SOCKET_PROBE_PULSES)
        probe_path = workdir / "socket-probe.json"
        probe_path.write_text(json.dumps(sock_inputs))
        probe_cfg = session_config(sock_spec, sock_inputs, SOCKET_PROBE_PULSES)
        with AlicePeer(probe_path) as peer:
            result, found, _ = traced_session(probe_cfg, spans,
                                              f"{spec.name}-{seed}-socket-probe", peer)
        tally.check(result_digest(result) == inproc_digest(probe_cfg),
                    "socket probe differs from the in-process result")
        metrics.update({k: found[k] for k in _SOCKET_KEYS})

    if spec.kind == "fm":
        per_pair = 2 * fm_spec.n_samples
        traced_rates.append(per_pair / fm_traced_s)
        for _ in range(OVERHEAD_PAIRS):
            plain_rates.extend(fm_loop(fm_inputs, fm_spec.n_samples, fm_golden, 0.0, 1, tally))
            faraday, ordinary, dt, _ = traced_fm(fm_inputs, fm_spec.n_samples)
            check_fm(faraday, ordinary, fm_golden, tally)
            traced_rates.append(per_pair / dt)
    metrics["trace.overhead_frac"] = (statistics.median(plain_rates)
                                      / statistics.median(traced_rates) - 1.0)
    return metrics
