"""The messages tests build, and the refusal matrices of the two input checks.

One builder per frame Bob sends in windows or pulses and per array-carrying
message, one random-message source (``MESSAGES``; ``DECODED_FORMS`` has one
strategy per type, in the form decoding returns) and ``same_message``.

The one bit check, ``keyfile.bit_array``: bit sources, key files and BASES
frames must each refuse every entry of ``REFUSED`` with their own error and
take every entry of ``TAKEN`` as the bits 1, 0, 1. A cast before the check
would wrap 256 to 0 and -255 to 1, cut 0.5 to 0, warn on NaN and raise
ValueError on text. DISCLOSE items given as plain (index, bit) pairs pass
the same check on their bits, and the index check on their indices: each
entry of ``DISCLOSE_REFUSED`` must be refused, where a cast into the record
would take 0.5 as bit 0, 1.7 as bit 1 and 5.9 as index 5.

The one message check, ``framing.check_message``: encode runs it,
``decode_frame`` returns it, and Alice and Bob each run it once on every
message they receive (a socket's ``recv`` leaves it to them), so
``encode_frame`` and the in-process receiver of each entry must both refuse
it with ``ProtocolViolationError``. ``MALFORMED`` holds whole messages. Each
entry of ``TO_ALICE`` is a message kind Alice receives and the fields that
replace those of the honest message of that kind (``honest_message``); each
entry of ``TO_BOB`` replaces fields of the frames Alice returns
(``honest_returns``), on whichever engine has those fields. Without the
check in process, these escaped as ``TypeError``, ``IndexError`` or
``ValueError``, or were taken: an index 0.0 as 0, a NaN error rate as the
measured one, a commitment of 31 bytes or a NaN mu_pair as a config
mismatch.

Key-file paths: ``keyfile``'s reader and writer and ``BitSource.from_key_files``
take each form of ``PATH_FORMS``; ``SessionConfig`` and ``from_key_files``
refuse each entry of ``ONE_PATH``, one path where a sequence of them belongs,
which read as a sequence would open a file per character.
"""

from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from fmqkd.framing import (
    DISCLOSE_RECORD,
    HEADER,
    Bases,
    Detections,
    DetectionsBlock,
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


def detections_block(ends, indices=()):
    return DetectionsBlock(np.array(ends, np.uint64), np.array(indices, np.uint64))


def pulse_out(index, mean_photons=OUTGOING_REFERENCE_PHOTONS):
    return QFrameOut(index, mean_photons, POL_HORIZONTAL)


def window_out(start, count, mean_photons=OUTGOING_REFERENCE_PHOTONS):
    return QFrameWindowOut(start, count, mean_photons, POL_HORIZONTAL)


def window_back(symbols, start=0, mean_photons=0.5, pol=(0.0, 0.0, 1.0, 0.0)):
    symbols = np.asarray(symbols, np.uint8)
    return QFrameWindowBack(start, len(symbols), mean_photons, symbols, pol)


def block_payload(windows, clicks, values):
    """A DETECTIONS_BLOCK frame with any counts and u64 values."""
    payload = np.array([windows, clicks], "<u4").tobytes() + np.array(values, "<u8").tobytes()
    return HEADER.pack(1, 0x0B, len(payload)) + payload


def disclose(indices, bits):
    return Disclose(np.array(list(zip(indices, bits)), DISCLOSE_RECORD))


def same_message(a, b):
    """Field-wise equality; window symbols are arrays, whose ``==`` is elementwise."""
    if type(a) is not type(b):
        return False
    return all(
        np.array_equal(x, y) and x.dtype == y.dtype if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


# The wire type and payload length of each message of fixed size.
FIXED_SIZES = {"SESSION_START": (0x01, 49), "QFRAME_OUT": (0x02, 48),
               "QFRAME_BACK": (0x03, 56), "ER_REPORT": (0x07, 8), "TERMINATE": (0x08, 1),
               "QFRAME_WINDOW_OUT": (0x09, 52)}

U64 = st.integers(0, 2 ** 64 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POLS = st.tuples(FINITE, FINITE, FINITE, FINITE)
BIT = st.integers(0, 1)
INDICES = st.lists(U64, max_size=6, unique=True).map(sorted)

DECODED_FORMS = (
    st.builds(SessionStart, U64, st.integers(0, 255), FINITE,
              st.binary(min_size=32, max_size=32)),
    st.builds(QFrameOut, U64, FINITE, POLS),
    st.builds(QFrameBack, U64, FINITE, FINITE, POLS),
    st.builds(Detections, INDICES.map(lambda idx: np.array(idx, np.uint64))),
    st.builds(Bases, st.lists(BIT, max_size=20).map(lambda bits: np.array(bits, np.uint8))),
    INDICES.flatmap(lambda idx: st.lists(BIT, min_size=len(idx), max_size=len(idx)).map(
        lambda bits: disclose(idx, bits))),
    st.builds(ErReport, FINITE),
    st.builds(Terminate, st.integers(0, 255)),
    st.builds(QFrameWindowOut, U64, st.integers(0, 2 ** 32 - 1), FINITE, POLS),
    st.builds(window_back, st.lists(st.integers(0, 3), max_size=20), start=U64,
              mean_photons=FINITE, pol=POLS),
    st.lists(st.integers(1, 2 ** 64 - 1), min_size=1, max_size=6, unique=True).map(sorted)
    .flatmap(lambda ends: st.lists(st.integers(0, ends[-1] - 1), max_size=6, unique=True)
             .map(lambda indices: detections_block(ends, sorted(indices)))),
)
# DETECTIONS also encodes from a tuple of indices; that frame decodes to the array form.
MESSAGES = st.one_of(*DECODED_FORMS, st.builds(Detections, INDICES.map(tuple)))

REFUSED = {
    "256": [256, 1, 0],
    "-255": [-255, 1],
    "fraction": [0.5, 1.0],
    "nan": [float("nan"), 1.0],
    "text": ["a", "b"],
    "2-D": [[0, 1], [1, 0]],
    "column": np.ones((3, 1), np.uint8),
    "scalar": 1,
}

TAKEN = [
    [1, 0, 1],
    np.array([True, False, True]),
    np.array([1, 0, 1], np.int64),
    np.array([1, 0, 1], np.uint8),
]

DISCLOSE_REFUSED = {
    "bit 0.5": [(5, 0.5)],
    "bit 1.7": [(5, 1.7)],
    "index 5.9": [(5.9, 1)],
}


class FsPath:
    """An ``os.PathLike`` that is not a ``pathlib.Path``."""

    def __init__(self, path):
        self._path = str(path)

    def __fspath__(self):
        return self._path


PATH_FORMS = {"str": str, "Path": Path, "PathLike": FsPath}

ONE_PATH = {form: make("alice.qkdr") for form, make in PATH_FORMS.items()}
ONE_PATH["bytes"] = b"alice.qkdr"

NAN = float("nan")

MALFORMED = {
    "float index": pulse_out(1.5),
    "two pol values": pulse_out(0)._replace(pol=(1.0, 0.0)),
    "float window start": window_out(2.5, 3),
    "float window-back start": window_back([0], start=0.5),
    "float n_pulses": SessionStart(10.5, 0, 0.1, bytes(32)),
    "str commitment": SessionStart(10, 0, 0.1, "x" * 32),
    "float reason": Terminate(1.5),
    "str error rate": ErReport("0.1"),
    # Ints that float() rounds: each would share its frame with 2**53.
    "inexact error rate": ErReport(2 ** 53 + 1),
    "inexact mean photons": window_out(0, 3, 2 ** 53 + 1),
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
        "pulse": pulse_out(sent),
        "window": window_out(sent, cfg.n_pulses - sent),
        "er_report": ErReport(0.0),
        "terminate": Terminate(0),
    }[kind]


def honest_returns(cfg):
    """The first frame an honest Alice returns on each engine, for a session
    of ``cfg`` that fits one window."""
    half = cfg.setup.mu_pair / 2.0
    return (QFrameBack(0, half, 0.0, (0.0, 0.0, 1.0, 0.0)),
            window_back(np.zeros(cfg.n_pulses), mean_photons=half))
