"""Timed runs of each workload kind, with their output checks.

Every function here times only the work the end-to-end metric names: a
session from its first message to the returned SessionResult, or one pair
of ``visibility_samples`` calls. Construction and checks sit outside the
timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import FM_CONSTANT_TOL, FM_EXTINCTION_DB, fm_digest, fm_rngs, result_digest

from fmqkd.channel import connect, open_in_process
from fmqkd.interferometer import visibility_from_extinction_db, visibility_samples
from fmqkd.protocol import AliceSession, BobSession

HERE = Path(__file__).resolve().parent
PEER_TIMEOUT_S = 30.0


class Tally:
    """Checks attempted and failed in one run, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)


def child_env() -> dict:
    """Environment for child interpreters, with the checkout's sources on the path."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def inproc_pair(cfg, wrap_responder=None):
    """A fresh Bob and an in-process endpoint wired to a fresh Alice."""
    alice = AliceSession(cfg)
    responder = alice.handle if wrap_responder is None else wrap_responder(alice.handle)
    return BobSession(cfg), open_in_process(responder), alice


class AlicePeer:
    """The child process serving Alice for socket sessions.

    Both processes are pinned to one CPU: with one pulse outstanding the two
    never run at once, and a same-CPU hand-off measures the code's own cost
    rather than cross-CPU wake-up latency, which swings widely on a shared
    host.
    """

    def __init__(self, inputs_path: Path):
        self._saved_affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._saved_affinity)})
        try:
            # The child inherits the pinning.
            self._proc = subprocess.Popen(
                [sys.executable, str(HERE / "alice_peer.py"), str(inputs_path)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=child_env(),
            )
        except OSError:
            os.sched_setaffinity(0, self._saved_affinity)
            raise
        self.peak_rss_mb = 0.0

    def endpoint(self):
        """Ask the peer to serve one session and connect to it."""
        self._proc.stdin.write("serve\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"alice peer exited with code {self._proc.poll()}")
        return connect("127.0.0.1", int(line))

    def close(self) -> None:
        """Stop the peer and wait for it; kill it if it does not stop in time."""
        try:
            out, _ = self._proc.communicate("stop\n", timeout=PEER_TIMEOUT_S)
            lines = out.strip().splitlines()
            if lines:
                self.peak_rss_mb = json.loads(lines[-1])["peak_rss_mb"]
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            os.sched_setaffinity(0, self._saved_affinity)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def session_loop(cfg, golden: str, deadline: float, min_runs: int, tally: Tally,
                 peer: AlicePeer = None, between=lambda: None) -> list:
    """Sessions of ``cfg`` until ``deadline``; returns pulses/s of each.

    ``between`` runs before each session, outside the timed region.
    """
    rates = []
    attempts = 0
    while attempts < min_runs or time.perf_counter() < deadline:
        attempts += 1
        between()
        try:
            if peer is None:
                bob, endpoint, _ = inproc_pair(cfg)
            else:
                bob, endpoint = BobSession(cfg), peer.endpoint()
            try:
                t0 = time.perf_counter()
                result = bob.run(endpoint)
                dt = time.perf_counter() - t0
            finally:
                endpoint.close()
        except Exception as exc:  # counted as a failed run; the loop goes on
            tally.fail(f"session raised {type(exc).__name__}: {exc}")
            if peer is not None:
                break
            continue
        if tally.check(result_digest(result) == golden, "session digest differs from golden"):
            rates.append(cfg.n_pulses / dt)
    return rates


def inproc_digest(cfg) -> str:
    bob, endpoint, _ = inproc_pair(cfg)
    return result_digest(bob.run(endpoint))


def fm_pair(inputs: dict, n_samples: int):
    """One Faraday and one ordinary-mirror call; returns both arrays and the time."""
    rng_f, rng_o = fm_rngs(inputs)
    t0 = time.perf_counter()
    faraday = visibility_samples(n_samples, FM_EXTINCTION_DB, rng_f, "faraday")
    ordinary = visibility_samples(n_samples, FM_EXTINCTION_DB, rng_o, "ordinary")
    return faraday, ordinary, time.perf_counter() - t0


def check_fm(faraday: np.ndarray, ordinary: np.ndarray, golden: str, tally: Tally) -> bool:
    v_max = visibility_from_extinction_db(FM_EXTINCTION_DB)
    constant = float(np.max(np.abs(faraday - v_max))) <= FM_CONSTANT_TOL
    return (tally.check(constant, "Faraday visibility is not at the extinction limit")
            and tally.check(fm_digest(faraday, ordinary) == golden,
                            "visibility digest differs from golden"))


def fm_loop(inputs: dict, n_samples: int, golden: str, deadline: float, min_runs: int,
            tally: Tally, between=lambda: None) -> list:
    """Pairs of ``visibility_samples`` calls until ``deadline``; samples/s of each."""
    rates = []
    attempts = 0
    while attempts < min_runs or time.perf_counter() < deadline:
        attempts += 1
        between()
        try:
            faraday, ordinary, dt = fm_pair(inputs, n_samples)
        except Exception as exc:  # counted as a failed run
            tally.fail(f"visibility_samples raised {type(exc).__name__}: {exc}")
            continue
        if check_fm(faraday, ordinary, golden, tally):
            rates.append(2 * n_samples / dt)
    return rates
