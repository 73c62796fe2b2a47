"""Desk-scale simulator of a Faraday-mirror plug-and-play interferometric
quantum key distribution link: Jones-calculus optics, a gated photon-counter
noise model, and two-party key-exchange state machines over a pluggable
in-process or socket channel."""

from .detector import GatedDetectorConfig, click_probability, er_det_analytic
from .interferometer import (
    SetupConfig,
    detection_mean,
    er_opt_from_visibility,
    visibility_from_extinction_db,
)
from .protocol import (
    ProtocolVariant,
    Seeds,
    SessionConfig,
    SessionResult,
    run_session,
)

__version__ = "0.1.0"

__all__ = [
    "GatedDetectorConfig",
    "ProtocolVariant",
    "Seeds",
    "SessionConfig",
    "SessionResult",
    "SetupConfig",
    "click_probability",
    "detection_mean",
    "er_det_analytic",
    "er_opt_from_visibility",
    "run_session",
    "visibility_from_extinction_db",
]
