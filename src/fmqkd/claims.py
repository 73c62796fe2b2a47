"""The paper's claims, each declared once with the band that judges it: a
fixed (low, high) interval, or k binomial standard deviations around the
model's prediction. Only ``judge`` computes a band; ``table1`` prints its
verdicts and the acceptance suite asserts them. A claim is keyed by its name
and ``mu_pair``; only ``table1`` and criteria 4 and 5 judge it on the session
``row_session`` builds for that row, other tests on sessions of their own."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

from .detector import er_det_analytic
from .interferometer import er_opt_from_visibility, er_opt_prediction
from .interferometer import visibility_from_extinction_db as visibility
from .presets import reference_session
from .protocol import Seeds, SessionConfig, SessionResult


# An operating point of the paper; ``bit_rate_hz`` is published, printed and not judged.
ReferenceRow = namedtuple("ReferenceRow",
                          "mu_pair bit_rate_hz desk_scale_pulses full_scale_pulses seed")


def row_session(row: ReferenceRow, seed: Optional[int] = None,
                full_scale: bool = False) -> SessionConfig:
    """The session of ``row`` that its claims are judged on. ``table1 --seed 27``
    seeds it with ``row.seed`` to ``row.seed + 2``."""
    s = row.seed if seed is None else seed
    n_pulses = row.full_scale_pulses if full_scale else row.desk_scale_pulses
    return reference_session(row.mu_pair, n_pulses, Seeds(s, s + 1, s + 2))


KEY_BITS = 20_142  # the abstract's 20 kbit key: mu 0.1 at full scale, sifting 0.5 per 1000
REFERENCE_ROWS = (ReferenceRow(0.2, 0.9, 4_000_000, 40_000_000, seed=27),
                  ReferenceRow(0.1, 0.5, 4_000_000, math.ceil(KEY_BITS / 0.5 * 1000), seed=30))


def er_predictions(cfg: SessionConfig) -> Tuple[float, float]:
    """The model's detector and optical error rates on ``cfg``'s link."""
    er_det = er_det_analytic(cfg.setup.mu_pair, cfg.setup.post_alice_loss_db, cfg.detector)
    return er_det, er_opt_prediction(cfg.setup)


Verdict = namedtuple("Verdict", "value low high ok")


@dataclass(frozen=True)
class Claim:
    name: str
    mu_pair: Optional[float]  # keys the claim with its name; None: closed form
    paper: Optional[float]  # None where the repository records no published value
    model: Optional[float]  # a closed-form claim's value, a k-sigma band's centre
    band: Union[Tuple[float, float], float]  # (low, high), or k sigmas around model
    reads: Optional[Callable[[SessionResult], Tuple[float, int]]] = None  # value, trials


def judge(claim: Claim, result: Optional[SessionResult] = None) -> Verdict:
    """The claim's value (read from ``result`` unless closed form), band and verdict."""
    value, trials = claim.reads(result) if claim.reads else (claim.model, 0)
    if isinstance(claim.band, tuple):
        low, high = claim.band
    else:
        p = claim.model
        half = claim.band * math.sqrt(p * (1.0 - p) / trials) if trials else 0.0
        low, high = p - half, p + half
    return Verdict(value, low, high, low <= value <= high)


def _error_rate(r: SessionResult) -> Tuple[float, int]:
    return r.measured_er, len(r.sifted_key_bob)


_ER02, _ER01 = (er_predictions(row_session(row)) for row in REFERENCE_ROWS)
_LEAK = {x_db: er_opt_from_visibility(visibility(x_db)) for x_db in (30.0, 27.0)}

# Keyed by (name, mu_pair). The er_det and er_opt paper values have been carried as
# published since the first commit (tolerances: er_det 0.0007 at mu 0.2 and 0.0014 at
# mu 0.1, er_opt 0.0003); which entry of the paper's Table 1 each is: not recorded.
CLAIMS = {(c.name, c.mu_pair): c for c in (
    Claim("visibility at 30 dB", None, 0.998, visibility(30.0), (0.9975, 0.9985)),
    # One modulator's leakage, (1 - V) / 2; the paper's values: source not recorded.
    Claim("er_opt at 30 dB", None, None, _LEAK[30.0], (0.00095, 0.00105)),
    Claim("er_opt at 27 dB", None, None, _LEAK[27.0], (0.00195, 0.00205)),
    Claim("sift rate", 0.2, 1.0, None, (0.9, 1.1), lambda r: (r.sift_rate_per_1000, 0)),
    Claim("error rate", 0.2, 0.005, sum(_ER02), 3.0, _error_rate),
    # Model 0.00347915; band 0.004 +- 0.0007.
    Claim("er_det", 0.2, 0.004, _ER02[0], (0.0033, 0.0047)),
    Claim("er_opt", 0.2, 0.0015, _ER02[1], (0.0012, 0.0018)),
    Claim("sift rate", 0.1, 0.5, None, (0.45, 0.55), lambda r: (r.sift_rate_per_1000, 0)),
    # The paper's 1.35% exceeds its own er_det + er_opt (the source blames
    # counter drift, which is not modeled), so it is printed, not judged.
    Claim("error rate", 0.1, 0.0135, sum(_ER01), 3.0, _error_rate),
    Claim("error rate, fixed band", 0.1, 0.0135, sum(_ER01), (0.007, 0.011), _error_rate),
    # Model 0.00690681; band 0.0072 +- 0.0013 (source not recorded).
    Claim("er_det", 0.1, 0.0081, _ER01[0], (0.0059, 0.0085)),
    Claim("er_opt", 0.1, 0.0015, _ER01[1], (0.0012, 0.0018)),
    # Sifted bits per pulse: the full-scale session sifts KEY_BITS on average.
    Claim("key length", 0.1, KEY_BITS, KEY_BITS / REFERENCE_ROWS[1].full_scale_pulses, 3.0,
          lambda r: (len(r.sifted_key_bob) / r.pulses_processed, r.pulses_processed)),
    # The model's, not the paper's; criterion 8 judges it on a BB84 session.
    Claim("BB84 basis retention", 0.1, None, 0.5, 3.0,
          lambda r: (r.basis_matched / r.clicks, r.clicks)),
)}
