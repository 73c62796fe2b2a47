"""The refusal matrix of the fixed-field check, ``framing.check_fields``.

Frames decoded from the wire always carry fields that fit their struct
codes; in-process peers may send anything. Each entry of ``TO_ALICE`` is a
message kind Alice receives and the fields that replace those of the honest
message of that kind (``honest_message``); each entry of ``TO_BOB`` replaces
fields of the frames Alice returns, on whichever engine has those fields.
Both parties must refuse every entry with ``ProtocolViolationError``.
Without the check, these escaped as ``TypeError``, ``IndexError`` or
``ValueError``, or were taken: an index 0.0 as 0, a NaN polarization as
normalized.
"""

import numpy as np

from fmqkd.framing import ErReport, QFrameOut, QFrameWindowOut, Terminate
from fmqkd.protocol import OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL, session_start

NAN = float("nan")

TO_ALICE = {
    "start n_pulses array": ("start", {"n_pulses": np.array([100, 100])}),
    "pulse index 0.0": ("pulse", {"index": 0.0}),
    "pulse pol text": ("pulse", {"pol": "abcd"}),
    "window count 2.0": ("window", {"count": 2.0}),
    "window start array": ("window", {"start": np.array([0, 0])}),
    "window level array": ("window", {"mean_photons": np.array([1e6, 1e6])}),
    "window pol None": ("window", {"pol": None}),
    "window pol text": ("window", {"pol": "abcd"}),
    "window pol of two": ("window", {"pol": (0.0, 1.0)}),
    "er report text": ("er_report", {"error_rate": "x"}),
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
