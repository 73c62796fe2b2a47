"""Workload specs, the inputs each seed generates, and output digests.

The program under test only ever receives what this module writes: a
session config (seeds, sizes) and, for the key-file workload, `.qkdr` files.
A run's seed selects one of ``GOLDEN_SEEDS`` input sets, so every input the
benchmark can generate has a golden digest recorded from the reference code
in ``golden.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from fmqkd.keyfile import NATIVE_BLOCK_BITS, write_key_file
from fmqkd.presets import reference_session
from fmqkd.protocol import ProtocolVariant, Seeds, SessionConfig, SessionResult

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
GOLDEN_SEEDS = 32

FM_EXTINCTION_DB = 30.0
# Faraday-mirror visibility must sit at the extinction limit to this tolerance.
FM_CONSTANT_TOL = 1e-12
# Haar draws go through LAPACK QR, whose last bits may depend on the CPU
# kernel; digests are taken over values rounded to this many decimals.
FM_DIGEST_DECIMALS = 10


@dataclasses.dataclass(frozen=True)
class Spec:
    """One workload's sizes; why each exists is in BENCHMARK.json and README.md."""

    name: str
    kind: str  # "inproc", "socket" or "fm"
    variant: str = "BB92"
    mu_pair: float = 0.1
    n_pulses: int = 0
    ack_window: int = 1024
    disclosure_fraction: float = 0.0
    key_files: bool = False
    n_samples: int = 0

    def size(self) -> dict:
        return dataclasses.asdict(self)


SPECS = {
    s.name: s
    for s in (
        Spec("inproc_bb92_ref", "inproc", variant="BB92", mu_pair=0.1, n_pulses=100_000),
        Spec("socket_bb92_loopback", "socket", variant="BB92", mu_pair=0.2, n_pulses=20_000),
        Spec("inproc_bb84_keyfile", "inproc", variant="BB84", mu_pair=0.2, n_pulses=100_000,
             ack_window=8, disclosure_fraction=0.5, key_files=True),
        Spec("fm_check_haar", "fm", n_samples=1000),
    )
}


def input_index(seed: int) -> int:
    return seed % GOLDEN_SEEDS


def _u64s(label: str, count: int) -> tuple:
    digest = hashlib.sha256(label.encode()).digest()
    return struct.unpack(f"<{count}Q", digest[:8 * count])


def make_inputs(spec: Spec, seed: int, workdir: Path) -> dict:
    """Generate the inputs for ``seed`` under ``workdir``; same seed, same inputs."""
    index = input_index(seed)
    if spec.kind == "fm":
        return {"workload": spec.name, "index": index,
                "entropy": list(_u64s(f"{spec.name}:{index}", 2))}
    alice, bob, physics = _u64s(f"{spec.name}:{index}", 3)
    inputs = {"workload": spec.name, "index": index, "seeds": [alice, bob, physics],
              "alice_key_files": [], "bob_key_files": []}
    if spec.key_files:
        n_files = -(-spec.n_pulses // NATIVE_BLOCK_BITS)
        for party, entropy in (("alice", alice), ("bob", bob)):
            rng = np.random.default_rng([entropy, index])
            paths = []
            for k in range(n_files):
                path = workdir / f"{party}-{k}.qkdr"
                write_key_file(path, rng.integers(0, 2, NATIVE_BLOCK_BITS, dtype=np.uint8))
                paths.append(str(path))
            inputs[f"{party}_key_files"] = paths
    return inputs


def session_config(spec: Spec, inputs: dict, n_pulses: int = 0) -> SessionConfig:
    cfg = reference_session(spec.mu_pair, n_pulses or spec.n_pulses,
                            Seeds(*inputs["seeds"]), ProtocolVariant(spec.variant))
    return dataclasses.replace(
        cfg,
        ack_window=spec.ack_window,
        disclosure_fraction=spec.disclosure_fraction,
        alice_key_files=tuple(inputs["alice_key_files"]),
        bob_key_files=tuple(inputs["bob_key_files"]),
    )


def fm_rngs(inputs: dict) -> tuple:
    """Fresh generators for the Faraday and the ordinary-mirror draws."""
    e_faraday, e_ordinary = inputs["entropy"]
    return np.random.default_rng(e_faraday), np.random.default_rng(e_ordinary)


def result_digest(result: SessionResult) -> str:
    """sha256 over every field of a SessionResult, by name and repr."""
    h = hashlib.sha256()
    for field in dataclasses.fields(result):
        h.update(f"{field.name}={getattr(result, field.name)!r};".encode())
    return h.hexdigest()


def fm_digest(faraday: np.ndarray, ordinary: np.ndarray) -> str:
    h = hashlib.sha256()
    for arr in (faraday, ordinary):
        h.update(np.round(arr, FM_DIGEST_DECIMALS).astype("<f8").tobytes())
    return h.hexdigest()


def load_golden(spec: Spec) -> list:
    """Golden digests for ``spec``, indexed by input index.

    Refuses a golden file recorded for other workload sizes, so a change of
    size without re-recording fails loudly instead of checking nothing.
    """
    data = json.loads(GOLDEN_PATH.read_text())
    entry = data["workloads"][spec.name]
    if entry["size"] != spec.size():
        raise RuntimeError(f"golden.json was recorded for other sizes of {spec.name}; "
                           "re-run perfbench/make_golden.py on the reference code")
    return entry["digests"]
