"""Reference operating points of the modeled link.

Two benchmark rows, declared with the paper's claims in ``claims``: pair
intensities 0.2 and 0.1 photons, both at 10% detector efficiency with 7e-6
dark counts per gate and 10 dB effective loss between the sender's
attenuator and the detector (8.6 dB link plus 1.4 dB receiver tap and
connectors), modulator extinctions 27 dB (sender) and 30 dB (receiver).
"""

from __future__ import annotations

from .detector import GatedDetectorConfig
from .interferometer import SetupConfig
from .protocol import ProtocolVariant, Seeds, SessionConfig


def reference_setup(mu_pair: float) -> SetupConfig:
    return SetupConfig(mu_pair=mu_pair)


def reference_detector() -> GatedDetectorConfig:
    return GatedDetectorConfig(efficiency=0.10, dark_prob_per_gate=7e-6)


def reference_session(mu_pair: float, n_pulses: int, seeds: Seeds,
                      variant: ProtocolVariant = ProtocolVariant.BB92) -> SessionConfig:
    return SessionConfig(
        n_pulses=n_pulses,
        variant=variant,
        setup=reference_setup(mu_pair),
        detector=reference_detector(),
        seeds=seeds,
    )
