"""The refusal matrix of the one message check, ``framing.check_message``.

Encode runs it, decode returns it, and Alice and Bob each run it on every
message they receive, so ``encode_frame`` and the in-process receiver of
each entry must both refuse it with ``ProtocolViolationError``.
``MALFORMED`` holds whole messages. Each entry of ``TO_ALICE`` is a message
kind Alice receives and the fields that replace those of the honest message
of that kind (``honest_message``); each entry of ``TO_BOB`` replaces fields
of the frames Alice returns (``honest_returns``), on whichever engine has
those fields. Without the check in process, these escaped as ``TypeError``,
``IndexError`` or ``ValueError``, or were taken: an index 0.0 as 0, a NaN
error rate as the measured one, a commitment of 31 bytes or a NaN mu_pair
as a config mismatch.
"""

import numpy as np

from bit_inputs import DISCLOSE_REFUSED, REFUSED
from fmqkd.framing import (
    Bases,
    Disclose,
    ErReport,
    QFrameBack,
    QFrameOut,
    QFrameWindowBack,
    QFrameWindowOut,
    SessionStart,
    Terminate,
)
from fmqkd.protocol import OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL, session_start

NAN = float("nan")
POL = (1.0, 0.0, 0.0, 0.0)

MALFORMED = {
    "float index": QFrameOut(1.5, 1e6, POL),
    "two pol values": QFrameOut(0, 1e6, (1.0, 0.0)),
    "float window start": QFrameWindowOut(2.5, 3, 1e6, POL),
    "float window-back start": QFrameWindowBack(0.5, 1, 0.5, np.zeros(1, np.uint8), POL),
    "float n_pulses": SessionStart(10.5, 0, 0.1, bytes(32)),
    "str commitment": SessionStart(10, 0, 0.1, "x" * 32),
    "float reason": Terminate(1.5),
    "str error rate": ErReport("0.1"),
    # Ints that float() rounds: each would share its frame with 2**53.
    "inexact error rate": ErReport(2 ** 53 + 1),
    "inexact mean photons": QFrameWindowOut(0, 3, 2 ** 53 + 1, POL),
    # A zero-copy view: the count must be refused before any bit is packed.
    "2**32 bases": Bases(np.broadcast_to(np.uint8(0), (2 ** 32,))),
    # Bits are checked as given: 2-D bits would pack into a frame that decodes
    # to other bits, or to none.
    **{f"bases {what}": Bases(bits) for what, bits in REFUSED.items()},
    **{f"disclose {what}": Disclose(items) for what, items in DISCLOSE_REFUSED.items()},
}

TO_ALICE = {
    "start n_pulses array": ("start", {"n_pulses": np.array([100, 100])}),
    "start commitment array": ("start", {"seeds_commitment": np.zeros(32, np.uint8)}),
    "start commitment of 31 bytes": ("start", {"seeds_commitment": bytes(31)}),
    "start commitment of 33 bytes": ("start", {"seeds_commitment": bytes(33)}),
    "start commitment text": ("start", {"seeds_commitment": "x" * 32}),
    "start commitment None": ("start", {"seeds_commitment": None}),
    "pulse index 0.0": ("pulse", {"index": 0.0}),
    "pulse pol text": ("pulse", {"pol": "abcd"}),
    "window count 2.0": ("window", {"count": 2.0}),
    "window start array": ("window", {"start": np.array([0, 0])}),
    "window level array": ("window", {"mean_photons": np.array([1e6, 1e6])}),
    "window pol None": ("window", {"pol": None}),
    "window pol text": ("window", {"pol": "abcd"}),
    "window pol of two": ("window", {"pol": (0.0, 1.0)}),
    "er report text": ("er_report", {"error_rate": "x"}),
    "er report NaN": ("er_report", {"error_rate": NAN}),
    "er report inf": ("er_report", {"error_rate": float("inf")}),
    "er report 2**53 + 1": ("er_report", {"error_rate": 2 ** 53 + 1}),
    "start mu_pair NaN": ("start", {"mu_pair": NAN}),
    "terminate reason text": ("terminate", {"reason": "x"}),
}

# For a session of 1000 pulses, which the batched engine sends as one window.
TO_BOB = {
    "index 0.0": {"index": 0.0},
    "start 0.0": {"start": 0.0},
    "count 1000.0": {"count": 1000.0},
    "phase list": {"phase_a": [0.0]},
    "pol None": {"pol": None},
    "pol of two": {"pol": (0.0, 1.0)},
    "pol text": {"pol": ("a", 0, 0, 0)},
    "pol NaN": {"pol": (NAN, 0.0, 0.0, 0.0)},
    "symbol 4": {"symbols": np.array([4] + [0] * 999, np.uint8)},
}


def honest_message(kind, cfg, sent=0):
    """The message of ``kind`` an honest Bob sends after ``sent`` frames."""
    return {
        "start": session_start(cfg),
        "pulse": QFrameOut(sent, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL),
        "window": QFrameWindowOut(sent, cfg.n_pulses - sent, OUTGOING_REFERENCE_PHOTONS,
                                  POL_HORIZONTAL),
        "er_report": ErReport(0.0),
        "terminate": Terminate(0),
    }[kind]


def honest_returns(cfg):
    """The first frame an honest Alice returns on each engine, for a session
    of ``cfg`` that fits one window."""
    half, pol = cfg.setup.mu_pair / 2.0, (0.0, 0.0, 1.0, 0.0)
    return (QFrameBack(0, half, 0.0, pol),
            QFrameWindowBack(0, cfg.n_pulses, half, np.zeros(cfg.n_pulses, np.uint8), pol))
