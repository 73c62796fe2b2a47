"""Two-party key exchange over the pulse channel.

The receiver (Bob) drives and the sender (Alice) is purely reactive. Bob
announces the session, then runs it a block of pulses at a time: one window
frame out and back per block, one numpy pass of his physics layer over the
block, and one DETECTIONS_BLOCK that acknowledges every ``ack_window`` the
block closes. A block that closes no window sends no acknowledgement. Every
CLI command and every timed benchmark session runs this batched engine.
Only the physics layer ever reads what Alice encoded on the returned pulses;
the sifting layer sees pulse indices and clicks, nothing else.

One rule picks the engine: Bob runs the batched one over a bare in-process
or socket endpoint, and the per-pulse reference over any other, wrapped
endpoint. The reference sends one quantum frame out and back per pulse, and
one DETECTIONS per ack window. Every random stream serves the same values
however its requests are chunked, so both engines consume the same numbers
and produce the same result bit for bit.

Both parties share one core, ``_Party``, which draws every pulse's symbol
and keeps what both sift. Each party runs ``framing.check_message``, the
check encode and ``decode_frame`` run, once on every message it receives (a
socket's ``recv`` leaves it to them); the handlers keep only the session's
rules, and ``MESSAGE_ORDER`` their order. Alice reads a DETECTIONS as
a DETECTIONS_BLOCK of one window, ending at the frames reflected so far.

Sifting keeps clicked pulses (two-state variant) or clicked pulses whose
bases matched (four-state variant, after the BASES exchange). Error
estimation runs over the bits Alice discloses: everything in oracle mode
(disclosure_fraction 0, exact error rate, keys kept), or a random subset
that is then removed from both final keys. Each party keys from its symbols
at the clicks; Alice also holds those of the frames not yet acknowledged.
"""

from __future__ import annotations

import enum
import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .channel import InProcessEndpoint, SocketEndpoint, open_in_process
from .detector import GatedDetectorConfig, click_probability
from .errors import (
    ChannelError,
    ConfigError,
    ProtocolViolationError,
    SessionAborted,
)
from .framing import (
    BLOCK_PULSES,
    DISCLOSE_RECORD,
    TERMINATE_CONFIG_MISMATCH,
    TERMINATE_NORMAL,
    Bases,
    Detections,
    DetectionsBlock,
    Disclose,
    ErReport,
    Message,
    QFrameBack,
    QFrameOut,
    QFrameWindowBack,
    QFrameWindowOut,
    SessionStart,
    Terminate,
    check_message,
)
from .interferometer import SetupConfig, attenuator_setting, detection_mean
from .randomness import BitSource, UniformSampler, check_key_file_paths, derive_rng

# Bright reference level of the outgoing pulses; the sender's attenuator
# brings the trailing pulse down to mu_pair / 2 from here.
OUTGOING_REFERENCE_PHOTONS = 1e6
POL_HORIZONTAL = (1.0, 0.0, 0.0, 0.0)

STREAM_BITS = 0
STREAM_BASES = 1
STREAM_DISCLOSURE = 2
STREAM_GATES = 0

# Phase shift of each symbol 2 * bit + basis. The two-state variant sends
# basis 0 only, so its alphabet is every other entry.
PHASES = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
_SYMBOL_OF_PHASE = {phase: symbol for symbol, phase in enumerate(PHASES)}
# Phase difference of each (Alice, Bob) symbol pair, indexed 4 * alice + bob.
_PHASE_DIFFS = np.subtract.outer(PHASES, PHASES).ravel()

# The session's phases: in each, the types Alice may receive, each to her handler
# (which moves her on), and those Bob may receive. Other types are refused there.
MESSAGE_ORDER = {
    "START": ({SessionStart: "_on_start"}, ()),
    "WINDOWS": ({QFrameOut: "_on_qframe", QFrameWindowOut: "_on_qframe_window",
                 Detections: "_on_detections", DetectionsBlock: "_on_detections_block",
                 Terminate: "_on_terminate"}, (QFrameBack, QFrameWindowBack)),
    "SIFT": ({Bases: "_on_bases", Terminate: "_on_terminate"}, (Bases,)),  # four-state only
    "REPORT": ({ErReport: "_on_er_report", Terminate: "_on_terminate"}, (Disclose,)),
    "CLOSE": ({Terminate: "_on_terminate"}, ()),
    "DONE": ({}, ()),
}


class ProtocolVariant(enum.Enum):
    """Two-state exchange, or the four-state variant with bases."""

    BB92 = "BB92"
    BB84 = "BB84"

    @property
    def code(self) -> int:
        return 0 if self is ProtocolVariant.BB92 else 1

    @property
    def uses_bases(self) -> bool:
        return self is ProtocolVariant.BB84


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """The arrays of ``parts`` as one array, which then replaces them, so a
    list that grows one array per acknowledgement is joined once."""
    if len(parts) > 1:
        parts[:] = [np.concatenate(parts)]
    return parts[0]


def _matched(mine: np.ndarray, peer: Bases) -> np.ndarray:
    """Where the bases ``mine``, one per detection, and the peer's agree, as a mask;
    ProtocolViolationError unless the peer sent one basis per detection."""
    if peer.bits.size != mine.size:
        raise ProtocolViolationError(f"{peer.bits.size} bits of bases for {mine.size} clicks")
    return mine == peer.bits


def _reflect(p: Tuple[float, float, float, float]) -> Tuple[float, float, float, float]:
    # Retro-reflection flips the polarization to the orthogonal state:
    # (c0, c1) -> (-c1, c0). Adding 0.0 normalizes -0.0 for the wire.
    return (-p[2] + 0.0, -p[3] + 0.0, p[0] + 0.0, p[1] + 0.0)


@dataclass(frozen=True)
class Seeds:
    """Independent seeds for the three random streams of a session."""

    alice: int
    bob: int
    physics: int

    def __post_init__(self):
        for name in ("alice", "bob", "physics"):
            v = getattr(self, name)
            if not (isinstance(v, int) and 0 <= v < 2 ** 64):
                raise ConfigError(f"seed {name} must be a u64, got {v!r}")

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.alice, self.bob, self.physics)


@dataclass(frozen=True)
class SessionConfig:
    """Full parameterization of one key-exchange session."""

    n_pulses: int
    variant: ProtocolVariant
    setup: SetupConfig
    detector: GatedDetectorConfig
    seeds: Seeds
    disclosure_fraction: float = 0.0
    ack_window: int = 1024
    alice_key_files: Tuple[str, ...] = ()
    bob_key_files: Tuple[str, ...] = ()

    def __post_init__(self):
        # SESSION_START carries n_pulses as a u64.
        if not (isinstance(self.n_pulses, int) and 0 < self.n_pulses < 2 ** 64):
            raise ConfigError(f"n_pulses must be > 0 and fit a u64, got {self.n_pulses!r}")
        if not (0.0 <= self.disclosure_fraction <= 1.0):
            raise ConfigError(
                f"disclosure_fraction must be in [0, 1], got {self.disclosure_fraction}"
            )
        if not (isinstance(self.ack_window, int) and self.ack_window >= 1):
            raise ConfigError(f"ack_window must be >= 1, got {self.ack_window!r}")
        check_key_file_paths(self.alice_key_files, "alice_key_files")
        check_key_file_paths(self.bob_key_files, "bob_key_files")


def seeds_commitment(cfg: SessionConfig) -> bytes:
    """32-byte digest binding the session parameters and seeds."""
    blob = struct.pack(
        "<QBdQQQ",
        cfg.n_pulses,
        cfg.variant.code,
        cfg.setup.mu_pair,
        cfg.seeds.alice,
        cfg.seeds.bob,
        cfg.seeds.physics,
    )
    return hashlib.sha256(blob).digest()


def session_start(cfg: SessionConfig) -> SessionStart:
    """The SESSION_START of ``cfg``: Bob sends it, and Alice takes only it."""
    return SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                        seeds_commitment(cfg))


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one session, assembled from the driver's wire view.

    ``sifted_key_alice`` is the full peer key in oracle mode and None in
    disclosure mode, where only the sacrificed subset crossed the channel.
    Keys are one byte per bit, values 0 and 1. The sifting fields default to
    a session that never reached sifting.
    """

    variant: str
    n_pulses: int
    mu_pair: float
    disclosure_fraction: float
    seeds: Tuple[int, int, int]
    pulses_processed: int
    clicks: int
    detected_indices: Tuple[int, ...]
    basis_matched: int = 0
    sifted_key_bob: bytes = b""
    sifted_key_alice: Optional[bytes] = None
    disclosed_indices: Tuple[int, ...] = ()
    compared_bits: int = 0
    mismatches: int = 0
    measured_er: Optional[float] = None
    final_key_bob: bytes = b""
    aborted: bool = False

    @property
    def sift_rate_per_1000(self) -> float:
        if self.pulses_processed == 0:
            return 0.0
        return 1000.0 * len(self.sifted_key_bob) / self.pulses_processed


class QuantumPhysics:
    """The receiver's measurement boundary; sole reader of returned phases.

    Consumes returned frames in strict index order and reduces each to one
    click decision. The click probability of every (Alice, Bob) symbol pair
    is computed once, by one call each of ``interferometer.detection_mean``
    and ``detector.click_probability`` over the 16 phase differences, into a
    4 x 4 table that both the per-pulse and the window path index. The
    window path compares each pulse's gate uniform with the table's largest
    entry first and looks up the pair's own probability only where it
    passes: u < p implies u < max(p), so the clicks are the same, and at the
    reference rows about 0.1-0.2% of pulses reach the lookup.
    """

    def __init__(self, setup: SetupConfig, detector: GatedDetectorConfig,
                 rng: np.random.Generator):
        self._expected_index = 0
        self._half_mu = setup.mu_pair / 2.0
        self._table = click_probability(detection_mean(_PHASE_DIFFS, setup), detector)
        self._p_max = self._table.max()
        self._gates = UniformSampler(rng)

    def _check(self, index: int, mean_photons: float, pol) -> None:
        if index != self._expected_index:
            raise ProtocolViolationError(
                f"returned frame index {index}, expected {self._expected_index}"
            )
        if mean_photons != self._half_mu:
            raise ProtocolViolationError(
                f"returned pulse carries {mean_photons} photons, "
                f"expected {self._half_mu}"
            )
        p0, p1, p2, p3 = pol
        norm_sq = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
        if not abs(norm_sq - 1.0) <= 1e-6:  # NaN fails too
            raise ProtocolViolationError("returned polarization is not normalized")

    def observe(self, frame: QFrameBack, phase_b: float) -> bool:
        self._check(frame.index, frame.mean_photons, frame.pol)
        try:
            p = self._table.item(4 * _SYMBOL_OF_PHASE[frame.phase_a] + _SYMBOL_OF_PHASE[phase_b])
        except KeyError:
            raise ProtocolViolationError(
                f"phase pair ({frame.phase_a}, {phase_b}) is outside the alphabet"
            ) from None
        self._expected_index += 1
        return self._gates.next() < p

    def observe_window(self, frame: QFrameWindowBack, bob_symbols: np.ndarray) -> np.ndarray:
        """Offsets in one returned window of the pulses that clicked, increasing, as intp."""
        self._check(frame.start, frame.mean_photons, frame.pol)
        if frame.count < 1 or frame.count != bob_symbols.size:
            raise ProtocolViolationError(
                f"returned window carries {frame.count} symbols for {bob_symbols.size} pulses"
            )
        self._expected_index += frame.count
        u = self._gates.take(frame.count)
        at = (u < self._p_max).nonzero()[0]
        return at[u[at] < self._table[(frame.symbols[at] << 2) + bob_symbols[at]]]


class _Party:
    """What both parties keep: their sources, and the clicks of the
    acknowledged windows with the party's symbol at each, which both sift."""

    def __init__(self, cfg: SessionConfig, key_files: Tuple[str, ...], seed: int, who: str):
        self.cfg = cfg
        self._bits_src = (BitSource.from_key_files(key_files) if key_files
                          else BitSource.from_seed(seed, STREAM_BITS))
        left = self._bits_src.remaining()
        if left is not None and left < cfg.n_pulses:
            raise ConfigError(f"{who} bit source holds {left} bits, session needs {cfg.n_pulses}")
        self._bases_src = (BitSource.from_seed(seed, STREAM_BASES)
                           if cfg.variant.uses_bases else None)  # none in the two-state variant
        # The last acknowledged window's end; the clicks below it and their symbols, per ack.
        self._acked = 0
        self._detected = [np.empty(0, np.uint64)]
        self._click_symbols = [np.empty(0, np.uint8)]

    def _draw_symbols(self, count: int) -> np.ndarray:
        """Next ``count`` symbols 2 * bit + basis, as uint8; without a bases
        source every basis is 0 (two-state variant)."""
        symbols = self._bits_src.take(count)  # a new array, doubled in place
        symbols += symbols
        if self._bases_src is not None:
            symbols += self._bases_src.take(count)
        return symbols


class AliceSession(_Party):
    """Reactive sender state machine: one reply list per incoming message."""

    def __init__(self, cfg: SessionConfig):
        super().__init__(cfg, cfg.alice_key_files, cfg.seeds.alice, "alice")
        self._sent = bytearray()  # the symbol of each frame reflected and not yet acknowledged
        # Oracle mode discloses every sifted bit and draws nothing.
        self._disclose_rng = (derive_rng(cfg.seeds.alice, STREAM_DISCLOSURE)
                              if cfg.disclosure_fraction != 0.0 else None)
        self._start = session_start(cfg)
        # Validates that the reference level can reach mu_pair / 2 at all.
        attenuator_setting(cfg.setup, OUTGOING_REFERENCE_PHOTONS)
        self._half_mu = cfg.setup.mu_pair / 2.0
        self._phase = "START"
        # Sifted bits, and those of them the final key keeps.
        self._sifted = self._final = np.empty(0, np.uint8)
        self.measured_er: Optional[float] = None
        self.abort_reason: Optional[int] = None

    @property
    def done(self) -> bool:
        return self._phase == "DONE"

    def handle(self, msg: Message) -> List[Message]:
        if self.abort_reason is not None:
            return []  # aborted sessions drop stragglers, like a closed socket would
        msg = check_message(msg)
        handler = MESSAGE_ORDER[self._phase][0].get(type(msg))
        if handler is None:
            raise ProtocolViolationError(f"{type(msg).__name__} in phase {self._phase}")
        return getattr(self, handler)(msg)

    def _on_start(self, msg: SessionStart) -> List[Message]:
        if msg != self._start:
            self._phase = "DONE"
            self.abort_reason = TERMINATE_CONFIG_MISMATCH
            return [Terminate(TERMINATE_CONFIG_MISMATCH)]
        self._phase = "WINDOWS"
        return []

    def _on_terminate(self, msg: Terminate) -> List[Message]:
        self._phase = "DONE"
        if msg.reason != TERMINATE_NORMAL:
            self.abort_reason = msg.reason
        return []

    def _on_er_report(self, msg: ErReport) -> List[Message]:
        self.measured_er = msg.error_rate
        self._phase = "CLOSE"
        return []

    def _check_outgoing(self, start: int, count: int, mean_photons: float) -> None:
        reflected = self._acked + len(self._sent)
        if start != reflected:
            raise ProtocolViolationError(
                f"outgoing frame index {start}, expected {reflected}"
            )
        if count < 1 or start + count > self.cfg.n_pulses:
            raise ProtocolViolationError(
                f"outgoing frames {start}..{start + count - 1} outside "
                f"0..{self.cfg.n_pulses - 1}"
            )
        if mean_photons != OUTGOING_REFERENCE_PHOTONS:
            raise ProtocolViolationError(
                f"outgoing pulse level {mean_photons}, "
                f"expected {OUTGOING_REFERENCE_PHOTONS}"
            )

    def _on_qframe(self, msg: QFrameOut) -> List[Message]:
        i = msg.index
        self._check_outgoing(i, 1, msg.mean_photons)
        symbol = 2 * self._bits_src.take_bit()
        if self._bases_src is not None:
            symbol += self._bases_src.take_bit()
        self._sent.append(symbol)
        return [QFrameBack(i, self._half_mu, PHASES[symbol], _reflect(msg.pol))]

    def _on_qframe_window(self, msg: QFrameWindowOut) -> List[Message]:
        if msg.count > BLOCK_PULSES:
            raise ProtocolViolationError(
                f"window of {msg.count} frames exceeds {BLOCK_PULSES}"
            )
        self._check_outgoing(msg.start, msg.count, msg.mean_photons)
        symbols = self._draw_symbols(msg.count)
        self._sent += symbols.data
        return [QFrameWindowBack(msg.start, msg.count, self._half_mu, symbols,
                                 _reflect(msg.pol))]

    def _on_detections(self, msg: Detections) -> List[Message]:
        # One window, ending at the frames reflected so far: no click at or past that end.
        ends = np.array([self._acked + len(self._sent)], np.uint64)
        if msg.indices.size and msg.indices[-1] >= ends[0]:
            raise ProtocolViolationError(f"DETECTIONS index at or past the {ends[0]} "
                                         "frames reflected")
        return self._on_detections_block(DetectionsBlock(ends, msg.indices))

    def _on_detections_block(self, msg: DetectionsBlock) -> List[Message]:
        """Checks and records acknowledged windows; after the last, the
        two-state variant sifts and discloses, and the four-state one waits for BASES."""
        ends, indices = msg
        first, last = int(ends[0]), int(ends[-1])
        if first <= self._acked or last - self._acked > len(self._sent):
            raise ProtocolViolationError(
                f"DETECTIONS_BLOCK ends {first}..{last} out of order, acknowledged "
                f"{self._acked}, reflected {self._acked + len(self._sent)}"
            )
        if indices.size and indices[0] < self._acked:
            raise ProtocolViolationError(
                f"detection index {indices[0]} in a window acknowledged before"
            )
        self._detected.append(indices)
        # The gather copies: a view of _sent left alive would make the del raise BufferError.
        self._click_symbols.append(np.frombuffer(self._sent, np.uint8)[indices - self._acked])
        del self._sent[:last - self._acked]
        self._acked = last
        if last == self.cfg.n_pulses:
            if not self.cfg.variant.uses_bases:
                return [self._disclose(_joined(self._detected), _joined(self._click_symbols) >> 1)]
            self._phase = "SIFT"
        return []

    def _on_bases(self, msg: Bases) -> List[Message]:
        symbols = _joined(self._click_symbols)
        mine = symbols & 1
        keep = _matched(mine, msg)
        return [Bases(mine), self._disclose(_joined(self._detected)[keep], symbols[keep] >> 1)]

    def _disclose(self, sifted: np.ndarray, bits: np.ndarray) -> Disclose:
        """Sifting is done on the pulses ``sifted``, which carry ``bits``:
        disclose every sifted bit, or a random part that leaves the final key."""
        self._sifted = self._final = bits
        f = self.cfg.disclosure_fraction
        if f != 0.0:
            picks = np.sort(
                self._disclose_rng.choice(sifted.size, size=int(f * sifted.size), replace=False)
            )
            self._final = bits[np.bincount(picks, minlength=sifted.size) == 0]  # the rest
            sifted, bits = sifted[picks], bits[picks]
        self._phase = "REPORT" if sifted.size else "CLOSE"  # ER_REPORT only of bits disclosed
        records = np.empty(sifted.size, DISCLOSE_RECORD)
        records["index"], records["bit"] = sifted, bits
        return Disclose(records)

    @property
    def sifted_key(self) -> bytes:
        return self._sifted.tobytes()

    @property
    def final_key(self) -> bytes:
        return self._final.tobytes()

    @property
    def detected_indices(self) -> Tuple[int, ...]:
        return tuple(_joined(self._detected).tolist())


def abort_error(reason: int) -> Exception:
    """The error of a session that its peer ended with TERMINATE ``reason``."""
    kind = ConfigError if reason == TERMINATE_CONFIG_MISMATCH else ProtocolViolationError
    return kind(f"peer aborted with reason {reason}")


class BobSession(_Party):
    """Driving receiver state machine; produces the SessionResult."""

    def __init__(self, cfg: SessionConfig):
        super().__init__(cfg, cfg.bob_key_files, cfg.seeds.bob, "bob")
        self._physics = QuantumPhysics(
            cfg.setup, cfg.detector, derive_rng(cfg.seeds.physics, STREAM_GATES)
        )

    def run(self, endpoint) -> SessionResult:
        try:
            return self._run(endpoint)
        except ChannelError as exc:
            raise SessionAborted(str(exc), partial=self._result(aborted=True)) from exc

    def _result(self, **outcome) -> SessionResult:
        """The result over the acknowledged windows; ``outcome`` sets the rest."""
        cfg = self.cfg
        detected = _joined(self._detected)
        return SessionResult(
            variant=cfg.variant.value,
            n_pulses=cfg.n_pulses,
            mu_pair=cfg.setup.mu_pair,
            disclosure_fraction=cfg.disclosure_fraction,
            seeds=cfg.seeds.as_tuple(),
            pulses_processed=self._acked,
            clicks=detected.size,
            detected_indices=tuple(detected.tolist()),
            **outcome,
        )

    def _expect(self, endpoint, phase, kind=None):
        """The next message: of ``kind`` if given, else of a type Bob may receive in ``phase``."""
        msg = check_message(endpoint.recv())
        if isinstance(msg, Terminate):
            raise abort_error(msg.reason)
        if type(msg) not in ((kind,) if kind else MESSAGE_ORDER[phase][1]):
            raise ProtocolViolationError(f"{type(msg).__name__} in phase {phase}")
        return msg

    def _run(self, endpoint) -> SessionResult:
        endpoint.send(session_start(self.cfg))
        if type(endpoint) in (InProcessEndpoint, SocketEndpoint):
            self._block_loop(endpoint)
        else:
            self._pulse_loop(endpoint)
        return self._sift(endpoint)

    def _pulse_loop(self, endpoint) -> None:
        """Reference path: one QFRAME out and back per pulse; symbols drawn per block."""
        n, window = self.cfg.n_pulses, self.cfg.ack_window
        window_clicks: List[int] = []
        clicked: List[int] = []  # the symbol of each click
        for start, end in _blocks(n, window):
            symbols = self._draw_symbols(end - start)
            for i, symbol in enumerate(symbols.tolist(), start):
                endpoint.send(QFrameOut(i, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))
                if self._physics.observe(self._expect(endpoint, "WINDOWS", QFrameBack),
                                         PHASES[symbol]):
                    window_clicks.append(i)
                    clicked.append(symbol)
                if (i + 1) % window == 0 or i + 1 == n:
                    clicks = np.array(window_clicks, np.uint64)
                    endpoint.send(Detections(clicks))
                    self._detected.append(clicks)
                    self._acked = i + 1
                    window_clicks.clear()
        self._click_symbols.append(np.array(clicked, np.uint8))

    def _block_loop(self, endpoint) -> None:
        """Batched path: one window frame out and back per block of pulses."""
        n, window = self.cfg.n_pulses, self.cfg.ack_window
        observe_window = self._physics.observe_window
        # Clicks of the window still open, when a window spans several blocks.
        pending = np.empty(0, np.uint64)
        for start, end in _blocks(n, window):
            count = end - start
            symbols = self._draw_symbols(count)
            endpoint.send(
                QFrameWindowOut(start, count, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL)
            )
            back = self._expect(endpoint, "WINDOWS", QFrameWindowBack)
            at = observe_window(back, symbols)
            self._click_symbols.append(symbols[at])
            clicks = at.astype(np.uint64)
            clicks += start
            if pending.size:
                clicks = np.concatenate((pending, clicks))
            # Ends of the windows this block closes; the last block also
            # closes the final window, which may be short.
            ends = np.arange(start - start % window + window, end + 1, window, np.uint64)
            if end == n and n % window:
                ends = np.append(ends, np.uint64(n))
            if ends.size:
                k = clicks.searchsorted(ends[-1])
                endpoint.send(DetectionsBlock(ends, clicks[:k]))
                self._detected.append(clicks[:k])
                self._acked = int(ends[-1])
                clicks = clicks[k:]
            pending = clicks

    def _sift(self, endpoint) -> SessionResult:
        """Bases exchange, disclosure check and the result, after the last window."""
        cfg = self.cfg
        matched = detected = _joined(self._detected)
        symbols = _joined(self._click_symbols)  # every window is acknowledged: one per click
        sifted_bob = symbols >> 1
        if cfg.variant.uses_bases:
            bob_bases = symbols & 1
            endpoint.send(Bases(bob_bases))
            keep = _matched(bob_bases, self._expect(endpoint, "SIFT"))
            matched, sifted_bob = detected[keep], sifted_bob[keep]
        records = self._expect(endpoint, "REPORT").items
        disclosed, alice_bits = records["index"], records["bit"]
        if cfg.disclosure_fraction == 0.0:
            if not np.array_equal(disclosed, matched):
                raise ProtocolViolationError(
                    "oracle mode requires the peer to disclose every sifted bit"
                )
            bob_disclosed = final_bob = sifted_bob
            sifted_alice: Optional[bytes] = alice_bits.tobytes()
            removed: Tuple[int, ...] = ()
        else:
            # Both index arrays increase, so each disclosed index must sit
            # where it sorts into the sifted ones.
            at = matched.searchsorted(disclosed)
            if at.size and (at[-1] == matched.size or np.count_nonzero(matched[at] != disclosed)):
                raise ProtocolViolationError("peer disclosed an index that was not sifted")
            rest = np.bincount(at, minlength=matched.size) == 0
            bob_disclosed, final_bob = sifted_bob[at], sifted_bob[rest]
            sifted_alice = None
            removed = tuple(disclosed.tolist())
        compared = disclosed.size
        mismatches = int(np.count_nonzero(alice_bits != bob_disclosed))
        measured = mismatches / compared if compared else None
        if compared:  # ER_REPORT only of bits disclosed
            endpoint.send(ErReport(measured))
        endpoint.send(Terminate(TERMINATE_NORMAL))
        return self._result(
            basis_matched=matched.size,
            sifted_key_bob=sifted_bob.tobytes(),
            sifted_key_alice=sifted_alice,
            disclosed_indices=removed,
            compared_bits=compared,
            mismatches=mismatches,
            measured_er=measured,
            final_key_bob=final_bob.tobytes(),
        )


def _blocks(n: int, window: int) -> Iterator[Tuple[int, int]]:
    """(start, end) of each block of the batched path.

    Blocks tile the session in steps of the largest multiple of ``window``
    that fits in BLOCK_PULSES (65,536) pulses, or of BLOCK_PULSES pulses for a
    longer window; the final short window rides in the last block.
    """
    step = window * (BLOCK_PULSES // window) or BLOCK_PULSES
    for start in range(0, n, step):
        yield start, min(start + step, n)


def run_session(cfg: SessionConfig) -> SessionResult:
    """Run one session, with Alice in process."""
    return BobSession(cfg).run(open_in_process(AliceSession(cfg).handle))

