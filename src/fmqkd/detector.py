"""Gated Geiger-mode photon counter: Poisson clicks, dark counts, error rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedRateError


@dataclass(frozen=True)
class GatedDetectorConfig:
    """Single gated avalanche detector.

    Gate and pulse are assumed to coincide, so no timing jitter or
    coincidence-efficiency factor is modelled.
    """

    efficiency: float
    dark_prob_per_gate: float

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in [0, 1], got {self.efficiency}")
        if not (0.0 <= self.dark_prob_per_gate <= 1.0):
            raise ValueError(
                f"dark_prob_per_gate must be in [0, 1], got {self.dark_prob_per_gate}"
            )


def click_probability(mu_eff, cfg: GatedDetectorConfig):
    """Probability that one gate fires on a weak coherent pulse, or on each
    entry of an array of intensities.

    Photon statistics are Poissonian and thinned by the quantum efficiency;
    a dark count fires the gate independently:
    p = 1 - (1 - p_dark) * exp(-eta * mu_eff).
    """
    if not (np.isfinite(mu_eff) & (mu_eff >= 0.0)).all():
        raise ValueError(f"mu_eff must be finite and >= 0, got {mu_eff}")
    d = cfg.dark_prob_per_gate
    return d + (1.0 - d) * -np.expm1(-cfg.efficiency * mu_eff)


def gate_many(
    mu_effs: np.ndarray, cfg: GatedDetectorConfig, rng: np.random.Generator
) -> np.ndarray:
    """One gate draw per intensity, consuming one uniform each, in order."""
    p = click_probability(mu_effs, cfg)
    return rng.random(p.shape[0]) < p


def er_det_analytic(mu_pair: float, post_alice_loss_db: float, cfg: GatedDetectorConfig) -> float:
    """Detector-induced error rate of the sifted key, closed form.

    Alice and Bob's phase choices match half the time, so the key collects
    clicks at the constructive fringe (p_sig) and the destructive fringe
    (p_err) with equal weight; the error rate is p_err / (p_sig + p_err).
    The fringe is perfect, so p_err is the dark-count probability alone and
    the result isolates the dark-count contribution.
    """
    if not (math.isfinite(mu_pair) and mu_pair >= 0.0):
        raise ValueError(f"mu_pair must be >= 0, got {mu_pair}")
    if not (math.isfinite(post_alice_loss_db) and post_alice_loss_db >= 0.0):
        raise ValueError(f"post_alice_loss_db must be >= 0, got {post_alice_loss_db}")
    p_sig = click_probability(mu_pair * 10.0 ** (-post_alice_loss_db / 10.0), cfg)
    p_err = cfg.dark_prob_per_gate
    if p_sig + p_err == 0.0:
        raise UndefinedRateError("no clicks at either fringe; error rate undefined")
    return p_err / (p_sig + p_err)
