"""Unbalanced go-and-return interferometer: fringes, losses, timing.

Two pulses leave the receiver, traverse the identical fiber path in opposite
segment order, are phase-modulated (the sender acts on the trailing pulse,
the receiver on the leading one during its return), and interfere on the
receiver's coupler. The fringe at the detector is

    mu_eff = mu_pair * 10^(-post_alice_loss_db / 10) * (1 + V * cos(dphi)) / 2

with ``mu_pair`` defined as the constructive pair intensity leaving the
sender, before the return-path losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jones
from .errors import ConfigError


@dataclass(frozen=True)
class SetupConfig:
    """Interferometer and link parameters.

    ``line_loss_db`` is the one-way link loss on the return pass and
    ``c1_tap_db`` the remaining receiver-side loss to the detector (output
    coupler branch plus connectors); their sum is the effective transmission
    between the sender's attenuator and the detector. The outbound losses are
    absorbed by the sender's attenuator setting and do not appear here.
    """

    c1_tap_db: float = 1.4
    line_loss_db: float = 8.6
    round_trip_delay_s: float = 230e-6
    pulse_separation_s: float = 250e-9
    alice_extinction_db: float = 27.0
    bob_extinction_db: float = 30.0
    pulse_rate_hz: float = 1000.0
    mu_pair: float = 0.1

    def __post_init__(self):
        for name in ("c1_tap_db", "line_loss_db"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        for name in ("alice_extinction_db", "bob_extinction_db"):
            v = getattr(self, name)
            if math.isnan(v) or v < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {v}")
        if not self.pulse_separation_s < self.round_trip_delay_s:
            raise ConfigError("pulse_separation_s must be smaller than round_trip_delay_s")
        if self.pulse_separation_s <= 0.0 or self.round_trip_delay_s <= 0.0:
            raise ConfigError("pulse timing values must be > 0")
        if not self.pulse_rate_hz > 0.0:
            raise ConfigError(f"pulse_rate_hz must be > 0, got {self.pulse_rate_hz}")
        if not (math.isfinite(self.mu_pair) and self.mu_pair > 0.0):
            raise ConfigError(f"mu_pair must be > 0, got {self.mu_pair}")

    @property
    def post_alice_loss_db(self) -> float:
        return self.line_loss_db + self.c1_tap_db

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.post_alice_loss_db / 10.0)


def visibility_from_extinction_db(x_db: float) -> float:
    """Classical fringe visibility (Imax - Imin) / (Imax + Imin).

    ``x_db`` is the constructive/destructive intensity ratio in dB; infinity
    is allowed and maps to visibility 1.
    """
    if math.isnan(x_db) or x_db < 0.0:
        raise ValueError(f"extinction must be >= 0 dB, got {x_db}")
    if math.isinf(x_db):
        return 1.0
    r = 10.0 ** (x_db / 10.0)
    return (r - 1.0) / (r + 1.0)


def er_opt_from_visibility(v: float) -> float:
    """Fraction of light leaking into the destructive port: (1 - V) / 2."""
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    return (1.0 - v) / 2.0


def effective_visibility(setup: SetupConfig) -> float:
    """Session-level fringe visibility: geometric pairing of both modulators.

    Each modulator's extinction limits its own arm; the geometric mean makes
    the destructive leakage match the average of the two single-modulator
    settings to first order.
    """
    va = visibility_from_extinction_db(setup.alice_extinction_db)
    vb = visibility_from_extinction_db(setup.bob_extinction_db)
    return math.sqrt(va * vb)


def er_opt_prediction(setup: SetupConfig) -> float:
    """Interference-leakage error rate: mean of the two modulator settings."""
    va = visibility_from_extinction_db(setup.alice_extinction_db)
    vb = visibility_from_extinction_db(setup.bob_extinction_db)
    return (er_opt_from_visibility(va) + er_opt_from_visibility(vb)) / 2.0


def detection_mean(delta_phi, setup: SetupConfig):
    """Mean photon number arriving at the detector for a phase difference, or
    for each entry of an array of them; ValueError unless every one is finite."""
    if not np.isfinite(delta_phi).all():
        raise ValueError(f"delta_phi must be finite, got {delta_phi}")
    fringe = (1.0 + effective_visibility(setup) * np.cos(delta_phi)) / 2.0
    return setup.mu_pair * setup.transmission * fringe


# perfbench's micro-benchmark imports the array form by this name.
detection_means = detection_mean


@dataclass(frozen=True)
class PulseSchedule:
    """Timestamps of one pulse pair through the link, in seconds."""

    emit_s: float
    p1_arrive_alice_s: float
    p2_arrive_alice_s: float
    modulation_window_open_s: float
    modulation_window_close_s: float
    p1_arrive_d0_s: float
    p2_arrive_d0_s: float


def schedule(pulse_index: int, setup: SetupConfig) -> PulseSchedule:
    """Event times for pulse pair ``pulse_index``.

    The leading pulse skips the receiver's delay on the way out and takes it
    on the way back; the trailing pulse does the opposite. Both therefore
    traverse the same three segments and reach the output coupler at the same
    instant, ``emit + round_trip_delay_s``. Segment sums use ``math.fsum`` so
    the two arrival times are equal bit for bit despite the different segment
    order.
    """
    if pulse_index < 0:
        raise ValueError(f"pulse_index must be >= 0, got {pulse_index}")
    emit = pulse_index / setup.pulse_rate_hz
    sep = setup.pulse_separation_s
    one_way = (setup.round_trip_delay_s - sep) / 2.0
    p1_arrive_alice = math.fsum([emit, one_way])
    p2_arrive_alice = math.fsum([emit, sep, one_way])
    p1_arrive_d0 = math.fsum([emit, one_way, one_way, sep])
    p2_arrive_d0 = math.fsum([emit, sep, one_way, one_way])
    return PulseSchedule(
        emit_s=emit,
        p1_arrive_alice_s=p1_arrive_alice,
        p2_arrive_alice_s=p2_arrive_alice,
        modulation_window_open_s=p1_arrive_alice,
        modulation_window_close_s=p2_arrive_alice,
        p1_arrive_d0_s=p1_arrive_d0,
        p2_arrive_d0_s=p2_arrive_d0,
    )


def attenuator_setting(setup: SetupConfig, incoming_mean_photons: float) -> float:
    """Attenuation in dB so the trailing pulse leaves the sender at mu_pair/2.

    ``incoming_mean_photons`` is the pulse intensity arriving at the sender's
    attenuator. A target stronger than the incoming pulse is unreachable.
    """
    if not (math.isfinite(incoming_mean_photons) and incoming_mean_photons > 0.0):
        raise ConfigError(
            f"incoming_mean_photons must be > 0, got {incoming_mean_photons}"
        )
    target = setup.mu_pair / 2.0
    if target > incoming_mean_photons:
        raise ConfigError(
            f"target {target} photons exceeds incoming {incoming_mean_photons}; "
            "attenuation would be negative"
        )
    return 10.0 * math.log10(incoming_mean_photons / target)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def pulse_pair_overlap(link_unitary: np.ndarray,
                       alice_mirror: str = "faraday") -> float | np.ndarray:
    """Polarization overlap of the two interfering pulses at the coupler.

    The leading pulse makes the link round trip first and the internal delay
    trip second; the trailing pulse takes the opposite order, so the two
    composite operators differ unless the link trip is a global-phase
    multiple of the delay trip. With a Faraday mirror at the far end the link
    trip is exactly that multiple and the overlap is 1 for every link
    unitary; with an ordinary mirror it fluctuates with the birefringence.
    A stack of links, shape (n, 2, 2), gives an (n,) array of overlaps.
    """
    if alice_mirror == "faraday":
        trip = jones.round_trip(link_unitary)
    elif alice_mirror == "ordinary":
        trip = jones.ordinary_mirror_round_trip(link_unitary)
    else:
        raise ValueError(f"alice_mirror must be 'faraday' or 'ordinary', got {alice_mirror!r}")
    delay_trip = jones.faraday_mirror()
    pair = np.stack((delay_trip @ trip @ jones.HORIZONTAL, trip @ delay_trip @ jones.HORIZONTAL))
    # Norms and |vdot| by parts, rounded as np.linalg.norm and np.vdot round one link.
    pair = pair / np.sqrt(_dot(pair.real, pair.real) + _dot(pair.imag, pair.imag))[..., None]
    (lr, tr), (li, ti) = pair.real, pair.imag
    return np.hypot(_dot(lr, tr) + _dot(li, ti), _dot(lr, ti) - _dot(li, tr))


def visibility_samples(n_samples: int, extinction_db: float,
                       rng: np.random.Generator, mirror: str = "faraday") -> np.ndarray:
    """Fringe visibility over Haar-random link birefringence draws.

    Each sample is the extinction-limited visibility scaled by the
    polarization overlap of the two pulses for one random link unitary.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    v_max = visibility_from_extinction_db(extinction_db)
    return v_max * pulse_pair_overlap(jones.haar_random_unitaries(rng, n_samples), mirror)
