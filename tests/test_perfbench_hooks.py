"""The names the benchmark reaches by attribute.

``perfbench/tracing.py`` meters a session by replacing attributes on its
objects, and skips any attribute it cannot find, so renaming one of them in
``src/`` would zero a per-layer count with no error. These tests pin every
such name on live sessions of both variants.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fmqkd import interferometer, jones
from fmqkd.errors import BitSourceExhausted
from fmqkd.keyfile import write_key_file
from fmqkd.presets import reference_session
from fmqkd.protocol import ProtocolVariant, Seeds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_every_traced_hook_exists(tracing, variant):
    from runners import inproc_pair

    cfg = reference_session(0.1, 1000, Seeds(1, 2, 3), variant)
    bob, _, alice = inproc_pair(cfg)
    assert callable(alice.handle) and callable(bob._physics.observe)
    for party in (alice, bob):
        sources = [party._bits_src, party._bases_src]
        assert (sources[1] is not None) == variant.uses_bases
        for src in filter(None, sources):
            assert callable(src.take_bit)
            # The meter replaces ``_refill`` on the instance; every draw must reach it.
            meter = tracing.Meter()
            tracing._wrap(src, "_refill", meter)
            src.take(1)
            src.take_bit()
            assert meter.calls == 1
    assert callable(interferometer.pulse_pair_overlap)
    assert callable(jones.haar_random_unitaries)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_traced_hooks_exist_on_key_file_sources(tracing, variant, tmp_path):
    from runners import inproc_pair

    n = 8
    paths = {}
    for k, party in enumerate(("alice", "bob")):
        paths[party] = (str(tmp_path / f"{party}.qkdr"),)
        write_key_file(paths[party][0],
                       np.random.default_rng(k).integers(0, 2, n, dtype=np.uint8))
    cfg = replace(reference_session(0.1, n, Seeds(1, 2, 3), variant),
                  alice_key_files=paths["alice"], bob_key_files=paths["bob"])
    bob, _, alice = inproc_pair(cfg)
    for party in (alice, bob):
        src = party._bits_src
        assert src.remaining() == n
        meters = {name: tracing.Meter() for name in ("take_bit", "_refill")}
        for name, meter in meters.items():
            tracing._wrap(src, name, meter)
            assert name in vars(src), name  # wrapped, not skipped
        src.take(1)
        src.take_bit()
        src.take(n - 2)
        # A key-file source never draws: it reaches ``_refill`` only when it runs out.
        assert (meters["take_bit"].calls, meters["_refill"].calls) == (1, 0)
        with pytest.raises(BitSourceExhausted):
            src.take_bit()


def test_micro_benchmark_entry_points_exist(tracing):
    import micro

    assert callable(micro.BitSource.from_seed(7).take_bit)
    assert callable(micro.BitSource.from_bits([0, 1]).take_bit)
    assert callable(micro.UniformSampler(micro.derive_rng(7, 0)).next)
    assert callable(micro.QuantumPhysics.observe)
    # The micro-benchmark's name for the fringe is the one formula, not a copy.
    assert micro.detection_means is interferometer.detection_mean


@pytest.mark.parametrize("mirror", ["faraday", "ordinary"])
def test_one_visibility_call_reaches_each_metered_optics_entry_point(tracing, monkeypatch,
                                                                     mirror):
    # The traced run meters these two module attributes; a call that bypassed
    # either would read as zero time, not fail.
    meters = {}
    for module, name in ((interferometer, "pulse_pair_overlap"),
                         (jones, "haar_random_unitaries")):
        meters[name] = tracing.Meter()
        monkeypatch.setattr(module, name, tracing.metered(getattr(module, name), meters[name]))
    interferometer.visibility_samples(100, 30.0, np.random.default_rng(1), mirror)
    assert {name: meter.calls for name, meter in meters.items()} == {
        "pulse_pair_overlap": 1, "haar_random_unitaries": 1}
