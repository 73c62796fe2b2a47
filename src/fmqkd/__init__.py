"""Desk-scale simulator of a Faraday-mirror plug-and-play interferometric
quantum key distribution link: Jones-calculus optics, a gated photon-counter
noise model, and two-party key-exchange state machines over a pluggable
in-process or socket channel."""

__version__ = "0.1.0"
