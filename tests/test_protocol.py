import ast
import dataclasses
import functools
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from field_inputs import (
    DISCLOSE_REFUSED,
    MALFORMED,
    ONE_PATH,
    REFUSED,
    TO_ALICE,
    TO_BOB,
    detections_block,
    honest_message,
    pulse_out,
)
from fmqkd import protocol
from fmqkd.channel import open_in_process
from fmqkd.claims import CLAIMS, REFERENCE_ROWS, judge
from fmqkd.detector import GatedDetectorConfig
from fmqkd.errors import (
    ChannelError,
    ConfigError,
    ProtocolViolationError,
    SessionAborted,
)
from fmqkd.framing import (
    Bases,
    Detections,
    DetectionsBlock,
    Disclose,
    QFrameBack,
    QFrameWindowBack,
    SessionStart,
)
from fmqkd.keyfile import write_key_file
from fmqkd.protocol import (
    PHASES,
    STREAM_BASES,
    STREAM_BITS,
    AliceSession,
    BobSession,
    ProtocolVariant,
    QuantumPhysics,
    Seeds,
    run_session,
    seeds_commitment,
)
from fmqkd.presets import reference_session
from fmqkd.randomness import BitSource, derive_rng
from sessions import (
    PassThroughEndpoint,
    dark_count_config,
    noiseless_config,
    run_in_process,
    started_alice,
    traced_peak,
)


def windowed_config(variant=ProtocolVariant.BB92):
    """A 100-pulse reference session acknowledged in windows of 10."""
    return dataclasses.replace(reference_session(0.2, 100, Seeds(1, 2, 3), variant),
                               ack_window=10)


def alice_phases(cfg):
    """Phases Alice returns on the per-pulse path, and the same session's
    window symbols, for every pulse of ``cfg``."""
    alice = started_alice(cfg)
    phases = [alice.handle(honest_message("pulse", cfg, i))[0].phase_a
              for i in range(cfg.n_pulses)]
    (back,) = started_alice(cfg).handle(honest_message("window", cfg))
    return alice, phases, back.symbols


def alice_stream(cfg, stream):
    """The first ``cfg.n_pulses`` values of Alice's bit or basis stream."""
    return BitSource.from_seed(cfg.seeds.alice, stream).take(cfg.n_pulses).tolist()


def test_encode_phase_two_state():
    # Bit 0 -> phase 0, bit 1 -> phase pi; no basis is drawn.
    cfg = noiseless_config(200)
    alice, phases, symbols = alice_phases(cfg)
    bits = alice_stream(cfg, STREAM_BITS)
    assert alice._bases_src is None
    assert set(bits) == {0, 1}
    assert phases == [math.pi * bit for bit in bits]
    assert phases == [PHASES[s] for s in symbols]


def test_encode_phase_four_state():
    # Basis 0 carries {0, pi}, basis 1 carries {pi/2, 3pi/2}.
    cfg = noiseless_config(200, variant=ProtocolVariant.BB84)
    _, phases, symbols = alice_phases(cfg)
    expected = [math.pi * bit + math.pi / 2.0 * basis
                for bit, basis in zip(alice_stream(cfg, STREAM_BITS),
                                      alice_stream(cfg, STREAM_BASES))]
    assert phases == expected
    assert set(phases) == {0.0, math.pi / 2.0, math.pi, 1.5 * math.pi}
    assert phases == [PHASES[s] for s in symbols]


def test_phase_alphabets():
    # Symbol 2 * bit + basis; the two-state variant sends basis 0 only.
    assert PHASES == (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)
    assert not ProtocolVariant.BB92.uses_bases
    assert ProtocolVariant.BB84.uses_bases


def test_noiseless_session_keys_identical():
    result = run_session(noiseless_config(4000))
    assert result.clicks > 1500
    assert result.sifted_key_alice == result.sifted_key_bob
    assert result.measured_er == 0.0
    assert result.mismatches == 0


def test_sessions_are_deterministic():
    cfg = reference_session(0.2, 30_000, Seeds(10, 20, 30))
    assert run_session(cfg) == run_session(cfg)


def test_different_seeds_differ():
    a = run_session(reference_session(0.2, 30_000, Seeds(10, 20, 30)))
    b = run_session(reference_session(0.2, 30_000, Seeds(10, 20, 31)))
    assert a.detected_indices != b.detected_indices


def test_ack_window_does_not_change_outcome():
    base = reference_session(0.2, 20_000, Seeds(4, 5, 6))
    small = dataclasses.replace(base, ack_window=97)
    big = dataclasses.replace(base, ack_window=8192)
    assert run_session(small) == run_session(big)


def test_index_integrity():
    result = run_session(reference_session(0.2, 50_000, Seeds(7, 8, 9)))
    idx = result.detected_indices
    assert list(idx) == sorted(set(idx))
    assert all(0 <= i < result.n_pulses for i in idx)
    assert len(result.sifted_key_bob) == len(idx) == result.clicks
    assert len(result.sifted_key_alice) == len(idx)


def test_errors_only_on_differing_bits():
    # Noisy detector so destructive-fringe clicks certainly occur.
    seeds = Seeds(7, 8, 9)
    cfg = dark_count_config(50_000, seeds)
    result = run_session(cfg)
    n = result.n_pulses
    alice_bits = BitSource.from_seed(seeds.alice, STREAM_BITS).take(n)
    bob_bits = BitSource.from_seed(seeds.bob, STREAM_BITS).take(n)
    assert result.mismatches > 0
    for k, idx in enumerate(result.detected_indices):
        assert result.sifted_key_alice[k] == alice_bits[idx]
        assert result.sifted_key_bob[k] == bob_bits[idx]
        if result.sifted_key_alice[k] != result.sifted_key_bob[k]:
            assert alice_bits[idx] != bob_bits[idx]


def test_measured_er_tracks_prediction():
    result = run_session(reference_session(0.2, 400_000, Seeds(100, 200, 300)))
    assert judge(CLAIMS["error rate", 0.2], result).ok


class DiscloseTamperingEndpoint(PassThroughEndpoint):
    """Flips Alice's disclosed bits at the given positions of her DISCLOSE;
    ``edit`` then rewrites the list of (index, bit) records."""

    def __init__(self, inner, flip=(), drop_last=False, edit=lambda items: items):
        super().__init__(inner)
        self._flip = set(flip)
        self._drop_last = drop_last
        self._edit = edit

    def recv(self):
        msg = super().recv()
        if isinstance(msg, Disclose):
            items = [(idx, bit ^ (k in self._flip)) for k, (idx, bit) in enumerate(msg.items)]
            return Disclose(tuple(self._edit(items[:-1] if self._drop_last else items)))
        return msg


def test_estimate_identical_keys():
    result = run_session(noiseless_config(2000))
    assert result.measured_er == 0.0
    assert result.compared_bits == len(result.sifted_key_bob) > 0
    # Oracle mode compares the whole key and keeps it.
    assert result.disclosed_indices == ()
    assert result.final_key_bob == result.sifted_key_bob == result.sifted_key_alice


def test_estimate_planted_mismatches_exact():
    cfg = noiseless_config(4000)
    planted = (3, 141, 468, 700, 999)
    result, _, _ = run_in_process(cfg, functools.partial(DiscloseTamperingEndpoint, flip=planted))
    assert result.compared_bits == len(result.sifted_key_bob) > 1000
    assert result.mismatches == 5
    assert result.measured_er == 5 / result.compared_bits
    diff = [k for k, (a, b) in enumerate(zip(result.sifted_key_alice, result.sifted_key_bob))
            if a != b]
    assert diff == list(planted)


def test_estimate_disclosure_within_binomial_band():
    # Noisy detector, so the sifted key carries real errors.
    seeds = Seeds(1, 2, 3)
    cfg = dark_count_config(1_000_000, seeds, disclosure=0.5)
    result = run_session(cfg)
    n = result.n_pulses
    alice_bits = BitSource.from_seed(seeds.alice, STREAM_BITS).take(n)
    bob_bits = BitSource.from_seed(seeds.bob, STREAM_BITS).take(n)
    idx = np.array(result.detected_indices)
    true_er = float(np.mean(alice_bits[idx] != bob_bits[idx]))
    k = result.compared_bits
    assert k == int(0.5 * result.clicks)
    sigma = math.sqrt(true_er * (1.0 - true_er) / k)
    assert abs(result.measured_er - true_er) < 3.0 * sigma
    # Disclosed positions are gone from the final key.
    assert len(result.final_key_bob) == result.clicks - k
    assert set(result.disclosed_indices) <= set(result.detected_indices)


def test_estimate_empty_key_undefined():
    cfg = dataclasses.replace(
        noiseless_config(1000),
        detector=GatedDetectorConfig(efficiency=0.0, dark_prob_per_gate=0.0),
    )
    result = run_session(cfg)
    assert result.clicks == 0 and result.compared_bits == 0
    assert result.measured_er is None


def test_oracle_mode_requires_full_disclosure():
    cfg = noiseless_config(2000)
    with pytest.raises(ProtocolViolationError):
        run_in_process(cfg, functools.partial(DiscloseTamperingEndpoint, drop_last=True))


def omit_a_middle_index(items):
    return items[:len(items) // 2] + items[len(items) // 2 + 1:]


def swap_in_an_unsifted_index(items):
    # The first sifted index after a gap moves back by one, onto a pulse that
    # was not sifted; the order stays strictly increasing.
    k = next(k for k in range(1, len(items)) if items[k][0] > items[k - 1][0] + 1)
    return items[:k] + [(items[k - 1][0] + 1, items[k][1])] + items[k + 1:]


def swap_in_an_index_past_the_session(items):
    return items[:-1] + [(10 ** 6, items[-1][1])]


@pytest.mark.parametrize("edit", [omit_a_middle_index, swap_in_an_unsifted_index,
                                  swap_in_an_index_past_the_session])
@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_oracle_mode_refuses_a_disclosure_that_is_not_the_sifted_key(edit, variant):
    cfg = noiseless_config(2000, variant=variant)
    with pytest.raises(ProtocolViolationError):
        run_in_process(cfg, functools.partial(DiscloseTamperingEndpoint, edit=edit))


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_disclosure_mode_refuses_an_index_that_was_not_sifted(variant):
    cfg = dataclasses.replace(noiseless_config(2000, variant=variant), disclosure_fraction=0.5)
    detected = set(run_session(cfg).detected_indices)

    def swap_in_a_pulse_without_a_click(items):
        # A disclosed index moves back by one onto a pulse that did not click, so
        # it still sorts between two sifted ones. (An index that clicked but was
        # not disclosed would be a legal disclosure here.)
        k = next(k for k in range(1, len(items))
                 if items[k][0] - 1 > items[k - 1][0] and items[k][0] - 1 not in detected)
        return items[:k] + [(items[k][0] - 1, items[k][1])] + items[k + 1:]

    with pytest.raises(ProtocolViolationError):
        run_in_process(cfg, functools.partial(DiscloseTamperingEndpoint,
                                              edit=swap_in_a_pulse_without_a_click))


def test_disclosure_mode_session():
    cfg = dataclasses.replace(noiseless_config(3000), disclosure_fraction=0.25)
    result = run_session(cfg)
    assert result.sifted_key_alice is None
    assert result.compared_bits == int(0.25 * result.clicks)
    assert result.measured_er == 0.0
    assert len(result.final_key_bob) == result.clicks - result.compared_bits
    assert set(result.disclosed_indices) <= set(result.detected_indices)
    # Both runs agree bit for bit.
    assert run_session(cfg) == result


def test_key_file_driven_session(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    for k in range(2):
        p = tmp_path / f"alice_{k}.qkdr"
        write_key_file(p, rng.integers(0, 2, size=2000).astype(np.uint8))
        paths.append(str(p))
    base = noiseless_config(3500, seeds=Seeds(1, 2, 3))
    cfg = dataclasses.replace(base, alice_key_files=tuple(paths))
    result = run_session(cfg)
    from fmqkd.keyfile import read_key_file

    file_bits = np.concatenate([read_key_file(p) for p in paths])
    expected = bytes(int(file_bits[i]) for i in result.detected_indices)
    assert result.sifted_key_alice == expected
    assert result.measured_er == 0.0


@pytest.mark.parametrize("field", ["alice_key_files", "bob_key_files"])
@pytest.mark.parametrize("one_path", list(ONE_PATH.values()), ids=list(ONE_PATH))
def test_one_key_file_path_is_refused_where_a_tuple_belongs(field, one_path):
    # Read as a sequence, "alice.qkdr" would open "a", then "l", ...
    base = noiseless_config(500)
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(base, **{field: one_path})
    assert getattr(dataclasses.replace(base, **{field: [one_path]}), field) == [one_path]


def test_bit_exhaustion_is_config_error_before_start(tmp_path):
    p = tmp_path / "short.qkdr"
    write_key_file(p, np.ones(100, dtype=np.uint8))
    base = noiseless_config(500)
    cfg = dataclasses.replace(base, bob_key_files=(str(p),))
    with pytest.raises(ConfigError):
        BobSession(cfg)
    cfg = dataclasses.replace(base, alice_key_files=(str(p),))
    with pytest.raises(ConfigError):
        AliceSession(cfg)


@pytest.mark.parametrize("variant", list(ProtocolVariant))
@pytest.mark.parametrize("party", ["alice", "bob"])
def test_each_party_keeps_a_symbol_per_click_not_a_byte_per_pulse(party, variant):
    # After a 4M-pulse session all that one party still holds, clicks and their
    # symbols included, is under 0.01 B per pulse; a bit and a basis per pulse would be 2 B.
    n = 4_000_000
    cfg = reference_session(0.1, n, Seeds(4, 5, 6), variant)
    tracemalloc.start()
    try:
        parties = {"alice": AliceSession(cfg), "bob": BobSession(cfg)}
        result = parties["bob"].run(open_in_process(parties["alice"].handle))
        assert result.pulses_processed == n and result.clicks > 0
        del result
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del parties[party]  # the other party stays
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.01 * n


@pytest.mark.parametrize("variant", list(ProtocolVariant))
def test_a_full_scale_session_peaks_under_a_tenth_of_a_byte_per_pulse(variant):
    # The paper's 20 kbit key takes about 40M pulses at mu 0.1. Both parties
    # and the result, whose tuple of clicks grows with them, peak under 0.1 B
    # per pulse; a byte per pulse of either party's record would exceed it.
    n = REFERENCE_ROWS[1].full_scale_pulses
    cfg = reference_session(0.1, n, Seeds(4, 5, 6), variant)
    with traced_peak() as traced:
        result = run_session(cfg)
    assert result.pulses_processed == n and result.clicks > 0
    assert traced.peak < 0.1 * n


def test_config_mismatch_rejected():
    alice_cfg = noiseless_config(1000, seeds=Seeds(1, 2, 3))
    bob_cfg = noiseless_config(1000, seeds=Seeds(1, 2, 4))
    alice = AliceSession(alice_cfg)
    with pytest.raises(ConfigError):
        BobSession(bob_cfg).run(open_in_process(alice.handle))


def test_commitment_binds_parameters():
    a = seeds_commitment(noiseless_config(1000))
    others = [seeds_commitment(cfg) for cfg in (
        noiseless_config(1001), noiseless_config(1000, seeds=Seeds(1, 2, 4)),
        noiseless_config(1000, mu_pair=40.5), noiseless_config(1000, variant=ProtocolVariant.BB84))]
    assert len(a) == 32
    assert a not in others


def test_commitment_bytes_are_pinned():
    # SHA-256 of "<QBdQQQ": n_pulses, variant code, mu_pair as a float64, three seeds.
    assert seeds_commitment(noiseless_config(1000)).hex() == (
        "7a8bfa2e40512930e5568f547ae4d6c7becc855c5679c2c3d33155a01709ad7b")
    assert seeds_commitment(reference_session(0.1, 4_000_000, Seeds(30, 31, 32),
                                              ProtocolVariant.BB84)).hex() == (
        "6f9e2377c29eb35baf4717f76b3260ea30dc2f624af0ccfe45d4db864a2d62c5")


def test_bb84_noiseless_error_free():
    cfg = noiseless_config(4000, variant=ProtocolVariant.BB84)
    result = run_session(cfg)
    assert result.measured_er == 0.0
    assert result.sifted_key_alice == result.sifted_key_bob
    # Mismatched-basis clicks exist but are discarded at sifting.
    assert result.basis_matched < result.clicks
    assert len(result.sifted_key_bob) == result.basis_matched


def as_long_as(bits, n):
    """A one-dimensional ``bits`` repeated to ``n`` values; any other shape as it is."""
    return (bits * n)[:n] if isinstance(bits, list) and np.ndim(bits) == 1 else bits


@pytest.mark.parametrize("what", sorted(REFUSED))
def test_in_process_bases_are_checked_at_both_parties(what):
    # In-process messages skip the wire and its checks, so each party checks the
    # peer's BASES itself, with the length each expects.
    cfg = noiseless_config(200, variant=ProtocolVariant.BB84)
    bad = REFUSED[what]
    alice = AliceSession(cfg)

    def to_alice(msg):
        return alice.handle(Bases(as_long_as(bad, len(msg.bits))) if isinstance(msg, Bases)
                            else msg)

    with pytest.raises(ProtocolViolationError, match="bits"):
        BobSession(cfg).run(open_in_process(to_alice))
    assert not alice.done and alice.sifted_key == b""
    alice = AliceSession(cfg)

    def from_alice(msg):
        return [Bases(as_long_as(bad, r.bits.size)) if isinstance(r, Bases) else r
                for r in alice.handle(msg)]

    with pytest.raises(ProtocolViolationError, match="bits"):
        BobSession(cfg).run(open_in_process(from_alice))


@pytest.mark.parametrize("what", sorted(DISCLOSE_REFUSED))
def test_in_process_disclose_is_checked_before_it_is_read(what):
    cfg = noiseless_config(200)
    alice = AliceSession(cfg)

    def from_alice(msg):
        return [Disclose(DISCLOSE_REFUSED[what]) if isinstance(r, Disclose) else r
                for r in alice.handle(msg)]

    with pytest.raises(ProtocolViolationError, match="DISCLOSE|bits"):
        BobSession(cfg).run(open_in_process(from_alice))


@pytest.mark.parametrize("what", sorted(TO_ALICE))
def test_alice_refuses_fields_that_do_not_fit(what):
    cfg = noiseless_config(100)
    kind, fields = TO_ALICE[what]
    alice = AliceSession(cfg) if kind == "start" else started_alice(cfg)
    with pytest.raises(ProtocolViolationError, match="does not fit"):
        alice.handle(honest_message(kind, cfg)._replace(**fields))
    # The refused message changed nothing: the valid one is still taken.
    replies = alice.handle(honest_message(kind, cfg))
    assert len(replies) == (kind in ("pulse", "window"))
    assert alice.done == (kind == "terminate")


@pytest.mark.parametrize("what, per_pulse", [
    (what, per_pulse) for what, fields in sorted(TO_BOB.items()) for per_pulse in (False, True)
    if set(fields) <= set((QFrameBack if per_pulse else QFrameWindowBack)._fields)])
def test_bob_refuses_returned_fields_that_do_not_fit(what, per_pulse):
    cfg = noiseless_config(1000)
    alice = AliceSession(cfg)
    frame = QFrameBack if per_pulse else QFrameWindowBack

    def from_alice(msg):  # the first returned frame only
        return [r._replace(**TO_BOB[what]) if isinstance(r, frame) and r[0] == 0 else r
                for r in alice.handle(msg)]

    endpoint = open_in_process(from_alice)
    if per_pulse:  # any other endpoint type runs the per-pulse engine
        endpoint = PassThroughEndpoint(endpoint)
    with pytest.raises(ProtocolViolationError):
        BobSession(cfg).run(endpoint)


@pytest.mark.parametrize("what", sorted(MALFORMED))
def test_in_process_receiver_refuses_every_malformed_message(what):
    # Each message goes to the party that receives its type, where an honest
    # message of that type would arrive: Bob gets it in place of Alice's reply.
    msg = MALFORMED[what]
    cfg = noiseless_config(1000, variant=ProtocolVariant.BB84)
    if isinstance(msg, (QFrameBack, QFrameWindowBack, Disclose)):
        alice = AliceSession(cfg)
        endpoint = open_in_process(
            lambda m: [msg if type(r) is type(msg) else r for r in alice.handle(m)])
        if isinstance(msg, QFrameBack):  # any other endpoint type runs the per-pulse engine
            endpoint = PassThroughEndpoint(endpoint)
        with pytest.raises(ProtocolViolationError):
            BobSession(cfg).run(endpoint)
        return
    alice = AliceSession(cfg) if isinstance(msg, SessionStart) else started_alice(cfg)
    with pytest.raises(ProtocolViolationError):
        alice.handle(msg)
    assert not alice.done


def test_protocol_leaves_message_rules_to_check_message():
    # The handlers keep session rules only; a frame rule called from
    # protocol.py would be a second copy of what check_message runs.
    imported = set()  # (module, name) pairs; a bare import has no name
    for node in ast.walk(ast.parse(Path(protocol.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {(node.module or "", alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, "") for alias in node.names}
    modules = {part for module, name in imported for part in (*module.split("."), name)}
    assert "keyfile" not in modules
    from_framing = {name for module, name in imported if module.split(".")[-1] == "framing"}
    assert "check_message" in from_framing and ("", "framing") not in imported
    assert {name for name in from_framing if name.startswith("check_")
            or name.lstrip("_") in ("index_array", "disclose_records")} == {"check_message"}


def test_bb84_sift_fraction_near_half():
    cfg = reference_session(0.2, 400_000, Seeds(11, 12, 13),
                            variant=ProtocolVariant.BB84)
    assert judge(CLAIMS["BB84 basis retention", 0.1], run_session(cfg)).ok


class ReplayPhysics:
    """Replays recorded click decisions; never reads the returned phase."""

    def __init__(self, clicks):
        self._clicks = list(clicks)
        self._expected = 0

    def observe(self, frame, phase_b):
        if frame.index != self._expected:
            raise ProtocolViolationError("out of order")
        self._expected += 1
        return self._clicks[frame.index]


class RecordingPhysics:
    def __init__(self, inner):
        self._inner = inner
        self.clicks = []

    def observe(self, frame, phase_b):
        clicked = self._inner.observe(frame, phase_b)
        self.clicks.append(clicked)
        return clicked


class PhaseMaskingEndpoint(PassThroughEndpoint):
    """Scrambles phase_a on every returned frame after the channel."""

    def recv(self):
        msg = super().recv()
        if hasattr(msg, "phase_a"):
            return msg._replace(phase_a=123.456)
        return msg


def test_sifting_layer_never_reads_phase():
    # Reference run records the physics decisions. Behind a wrapped endpoint
    # Bob takes the per-pulse path, which asks his physics about every pulse.
    cfg = reference_session(0.2, 20_000, Seeds(21, 22, 23))
    bob = BobSession(cfg)
    recorder = bob._physics = RecordingPhysics(bob._physics)
    reference = bob.run(PassThroughEndpoint(open_in_process(AliceSession(cfg).handle)))
    # Replay with every post-physics phase_a masked: identical outcome proves
    # the sifting layer decided from clicks alone.
    bob = BobSession(cfg)
    bob._physics = ReplayPhysics(recorder.clicks)
    masked = bob.run(PhaseMaskingEndpoint(open_in_process(AliceSession(cfg).handle)))
    assert masked == reference


class FlakyEndpoint(PassThroughEndpoint):
    def __init__(self, inner, fail_after_sends):
        super().__init__(inner)
        self._left = fail_after_sends

    def send(self, msg):
        if self._left <= 0:
            raise ChannelError("connection reset")
        self._left -= 1
        super().send(msg)


def test_mid_session_disconnect_aborts_with_partial_stats():
    cfg = noiseless_config(5000)
    with pytest.raises(SessionAborted) as err:
        run_in_process(cfg, functools.partial(FlakyEndpoint, fail_after_sends=2050))
    partial = err.value.partial
    assert partial.aborted
    assert 0 < partial.pulses_processed < 5000
    assert partial.final_key_bob == b""
    assert partial.sifted_key_bob == b""
    assert partial.measured_er is None


def test_alice_rejects_out_of_order_frames():
    cfg = noiseless_config(100)
    alice = started_alice(cfg)
    with pytest.raises(ProtocolViolationError):
        alice.handle(honest_message("pulse", cfg, 5))


def test_alice_rejects_bad_detections_blocks():
    alice = started_alice(windowed_config(ProtocolVariant.BB84), 100)
    assert alice.handle(detections_block([10, 20], [4, 15])) == []
    for bad in (detections_block([]),              # no window
                detections_block([40, 30]),        # ends decrease
                detections_block([30, 30]),        # ends repeat
                detections_block([20, 30]),        # end already acknowledged
                detections_block([30, 101]),       # end past the frames reflected
                detections_block([30], [25, 22]),  # indices decrease
                detections_block([30], [22, 22]),  # indices repeat
                detections_block([30], [15, 25]),  # index inside an acknowledged window
                detections_block([30], [30])):     # index at the last end
        with pytest.raises(ProtocolViolationError):
            alice.handle(bad)
    # BASES only after the final end; the rejected frames changed nothing.
    assert alice.handle(detections_block([30, 90], [20, 89])) == []
    with pytest.raises(ProtocolViolationError):
        alice.handle(Bases((0,) * 4))
    assert alice.handle(detections_block([100], [99])) == []
    assert alice.detected_indices == (4, 15, 20, 89, 99)
    replies = alice.handle(Bases((0,) * 5))
    assert [type(r).__name__ for r in replies] == ["Bases", "Disclose"]
    with pytest.raises(ProtocolViolationError):
        alice.handle(detections_block([100]))


def test_alice_refuses_sequence_blocks_but_takes_their_array_form():
    # A DETECTIONS_BLOCK carries uint64 arrays in process as on the wire, so
    # plain sequences are refused, as encoding refuses them, and change nothing.
    alice = started_alice(windowed_config(ProtocolVariant.BB92), 100)
    for ends, indices in (((10, 20), (4, 15)), ((30,), ()), ((40, 100), (50, 60))):
        for as_given in ((ends, indices), (ends, detections_block(ends, indices).indices),
                         (detections_block(ends, indices).ends, indices)):
            with pytest.raises(ProtocolViolationError, match="uint64 arrays"):
                alice.handle(DetectionsBlock(*as_given))
        replies = alice.handle(detections_block(ends, indices))
    (disclose,) = replies
    assert disclose.items["index"].tolist() == [4, 15, 50, 60]
    assert alice.detected_indices == (4, 15, 50, 60)


def test_alice_rejects_bad_sequence_blocks():
    alice = started_alice(windowed_config(ProtocolVariant.BB84), 100)
    for bad in (DetectionsBlock((), ()),          # no window
                DetectionsBlock((20, 10), ()),    # ends decrease
                DetectionsBlock((10,), (-1,)),    # index outside u64
                DetectionsBlock((10,), ("x",)),   # not an integer
                DetectionsBlock(((10,),), ()),    # nested
                DetectionsBlock((10,), (4.5,)),   # a float in a tuple
                DetectionsBlock(np.array([10.7]), ()),            # a float array
                DetectionsBlock((10,), np.array([False, True])),  # a bool array
                DetectionsBlock(10, ()),          # not a sequence
                DetectionsBlock(None, ())):
        with pytest.raises(ProtocolViolationError):
            alice.handle(bad)
    assert alice.handle(detections_block([10])) == []


@pytest.mark.parametrize("acknowledgement",
                         [Detections((3, 50)), detections_block([10], [3, 50])],
                         ids=["DETECTIONS", "DETECTIONS_BLOCK"])
def test_alice_refuses_a_click_past_the_frames_reflected(acknowledgement):
    # A DETECTIONS acknowledges one window ending at the frames reflected so
    # far, so it passes the block rule: no index at or past that end.
    alice = started_alice(windowed_config())
    for i in range(10):
        alice.handle(pulse_out(i))
    with pytest.raises(ProtocolViolationError):
        alice.handle(acknowledgement)
    assert alice.detected_indices == ()
    assert alice.handle(Detections((3,))) == []
    assert alice.detected_indices == (3,)


def test_per_pulse_session_checks_each_received_message_once(monkeypatch):
    # Alice reads each DETECTIONS as a one-window block; the block is not checked again.
    received, checked = [], []
    check = protocol.check_message

    class CountingEndpoint(PassThroughEndpoint):
        def recv(self):
            received.append(super().recv())
            return received[-1]

    def counted_check(msg):
        checked.append(msg)
        return check(msg)

    monkeypatch.setattr(protocol, "check_message", counted_check)
    cfg = reference_session(0.2, 4096, Seeds(3, 4, 5), ProtocolVariant.BB84)
    result, _, seen = run_in_process(cfg, CountingEndpoint)
    assert not result.aborted
    assert sum(isinstance(m, Detections) for m in seen) == 4
    assert sorted(map(id, checked)) == sorted(map(id, seen + received))


def test_alice_rejects_acknowledgement_of_frames_not_reflected():
    alice = started_alice(windowed_config(ProtocolVariant.BB92), 40)
    with pytest.raises(ProtocolViolationError):
        alice.handle(detections_block([50]))
    assert alice.handle(detections_block([10, 40], [39])) == []


def test_alice_discloses_on_the_final_block_end():
    alice = started_alice(windowed_config(ProtocolVariant.BB92), 100)
    assert alice.handle(detections_block([10, 20, 30], [3])) == []
    (disclose,) = alice.handle(detections_block([40, 100], [50, 60]))
    assert isinstance(disclose, Disclose)
    assert [i for i, _ in disclose.items] == [3, 50, 60]
    with pytest.raises(ProtocolViolationError):
        alice.handle(detections_block([100]))


def test_alice_rejects_detection_in_a_window_reported_empty():
    # Per-pulse DETECTIONS follow the block rules: a window reported empty
    # stays empty.
    alice = started_alice(windowed_config())

    def reflect(frames):
        for i in frames:
            alice.handle(pulse_out(i))

    reflect(range(10))
    assert alice.handle(Detections(())) == []
    reflect(range(10, 20))
    with pytest.raises(ProtocolViolationError):
        alice.handle(Detections((5,)))
    assert alice.detected_indices == ()
    assert alice.handle(Detections((15,))) == []
    assert alice.detected_indices == (15,)


def test_physics_rejects_out_of_order_and_bad_frames():
    cfg = noiseless_config(100)
    physics = QuantumPhysics(cfg.setup, cfg.detector, derive_rng(3, 0))
    pol = (0.0, 0.0, 1.0, 0.0)
    half = cfg.setup.mu_pair / 2.0
    physics.observe(QFrameBack(0, half, 0.0, pol), 0.0)
    with pytest.raises(ProtocolViolationError):
        physics.observe(QFrameBack(2, half, 0.0, pol), 0.0)
    with pytest.raises(ProtocolViolationError):
        physics.observe(QFrameBack(1, half * 3, 0.0, pol), 0.0)
    with pytest.raises(ProtocolViolationError):
        physics.observe(QFrameBack(1, half, 0.0, (0.0, 0.0, 0.5, 0.0)), 0.0)


class DroppingEndpoint(PassThroughEndpoint):
    """Delivers the first ``n`` returned frames, then the channel dies."""

    def __init__(self, inner, deliver):
        super().__init__(inner)
        self._left = deliver

    def recv(self):
        if self._left <= 0:
            raise ChannelError("returned frame lost")
        self._left -= 1
        return super().recv()


def test_dropped_return_frame_aborts_at_that_index():
    cfg = noiseless_config(5000)
    with pytest.raises(SessionAborted) as err:
        run_in_process(cfg, functools.partial(DroppingEndpoint, deliver=1234))
    partial = err.value.partial
    assert partial.aborted
    assert partial.pulses_processed <= 1234


def test_session_requires_positive_pulses():
    with pytest.raises(ConfigError):
        noiseless_config(0)
    with pytest.raises(ConfigError):
        dataclasses.replace(noiseless_config(10), disclosure_fraction=1.5)


def test_seeds_validation():
    with pytest.raises(ConfigError):
        Seeds(-1, 0, 0)
    with pytest.raises(ConfigError):
        Seeds(2 ** 64, 0, 0)
