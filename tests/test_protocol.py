import dataclasses
import math
import types

import numpy as np
import pytest

from bit_inputs import DISCLOSE_REFUSED, REFUSED
from field_inputs import TO_ALICE, TO_BOB, honest_message
from fmqkd.channel import open_in_process
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
    QFrameOut,
    QFrameWindowBack,
    QFrameWindowOut,
    SessionStart,
)
from fmqkd.interferometer import SetupConfig
from fmqkd.keyfile import write_key_file
from fmqkd.protocol import (
    OUTGOING_REFERENCE_PHOTONS,
    PHASES,
    POL_HORIZONTAL,
    STREAM_BITS,
    AliceSession,
    BobSession,
    ProtocolVariant,
    QuantumPhysics,
    Seeds,
    SessionConfig,
    run_session,
    seeds_commitment,
    session_start,
)
from fmqkd.presets import reference_session
from fmqkd.randomness import BitSource, derive_rng

INF = float("inf")


def noiseless_config(n_pulses, seeds=Seeds(1, 2, 3), variant=ProtocolVariant.BB92,
                     mu_pair=40.0):
    setup = SetupConfig(
        mu_pair=mu_pair, line_loss_db=0.0, c1_tap_db=0.0,
        alice_extinction_db=INF, bob_extinction_db=INF,
    )
    detector = GatedDetectorConfig(efficiency=1.0, dark_prob_per_gate=0.0)
    return SessionConfig(n_pulses=n_pulses, variant=variant, setup=setup,
                         detector=detector, seeds=seeds)


def alice_phases(cfg):
    """Phases Alice returns on the per-pulse path, and the same session's
    window symbols, for every pulse of ``cfg``."""
    from fmqkd.framing import QFrameOut, QFrameWindowOut, SessionStart
    from fmqkd.protocol import OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL

    start = SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                         seeds_commitment(cfg))
    alice = AliceSession(cfg)
    alice.handle(start)
    phases = [
        alice.handle(QFrameOut(i, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))[0].phase_a
        for i in range(cfg.n_pulses)
    ]
    windowed = AliceSession(cfg)
    windowed.handle(start)
    (back,) = windowed.handle(
        QFrameWindowOut(0, cfg.n_pulses, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL)
    )
    return alice, phases, back.symbols


def test_encode_phase_two_state():
    # Bit 0 -> phase 0, bit 1 -> phase pi; no basis is drawn.
    alice, phases, symbols = alice_phases(noiseless_config(200))
    assert len(alice._bits) == 200 and len(alice._bases) == 0
    assert set(alice._bits) == {0, 1}
    assert phases == [math.pi * bit for bit in alice._bits]
    assert phases == [PHASES[s] for s in symbols]


def test_encode_phase_four_state():
    # Basis 0 carries {0, pi}, basis 1 carries {pi/2, 3pi/2}.
    cfg = noiseless_config(200, variant=ProtocolVariant.BB84)
    alice, phases, symbols = alice_phases(cfg)
    assert len(alice._bits) == len(alice._bases) == 200
    expected = [math.pi * bit + math.pi / 2.0 * basis
                for bit, basis in zip(alice._bits, alice._bases)]
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
    cfg = SessionConfig(
        n_pulses=50_000, variant=ProtocolVariant.BB92,
        setup=SetupConfig(mu_pair=0.2),
        detector=GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=5e-4),
        seeds=seeds,
    )
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
    from fmqkd.detector import er_det_analytic
    from fmqkd.interferometer import er_opt_prediction

    cfg = reference_session(0.2, 400_000, Seeds(100, 200, 300))
    result = run_session(cfg)
    predicted = er_det_analytic(
        0.2, cfg.setup.post_alice_loss_db, cfg.detector
    ) + er_opt_prediction(cfg.setup)
    n = len(result.sifted_key_bob)
    sigma = math.sqrt(predicted * (1.0 - predicted) / n)
    assert abs(result.measured_er - predicted) < 3.0 * sigma


class DiscloseTamperingEndpoint:
    """Flips Alice's disclosed bits at the given positions of her DISCLOSE;
    ``edit`` then rewrites the list of (index, bit) records."""

    def __init__(self, inner, flip=(), drop_last=False, edit=lambda items: items):
        self._inner = inner
        self._flip = set(flip)
        self._drop_last = drop_last
        self._edit = edit

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        msg = self._inner.recv()
        if isinstance(msg, Disclose):
            items = [(idx, bit ^ (k in self._flip)) for k, (idx, bit) in enumerate(msg.items)]
            return Disclose(tuple(self._edit(items[:-1] if self._drop_last else items)))
        return msg

    def close(self):
        self._inner.close()


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
    alice = AliceSession(cfg)
    endpoint = DiscloseTamperingEndpoint(open_in_process(alice.handle), flip=planted)
    result = BobSession(cfg).run(endpoint)
    assert result.compared_bits == len(result.sifted_key_bob) > 1000
    assert result.mismatches == 5
    assert result.measured_er == 5 / result.compared_bits
    diff = [k for k, (a, b) in enumerate(zip(result.sifted_key_alice, result.sifted_key_bob))
            if a != b]
    assert diff == list(planted)


def test_estimate_disclosure_within_binomial_band():
    # Noisy detector, so the sifted key carries real errors.
    seeds = Seeds(1, 2, 3)
    cfg = SessionConfig(
        n_pulses=1_000_000, variant=ProtocolVariant.BB92,
        setup=SetupConfig(mu_pair=0.2),
        detector=GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=5e-4),
        seeds=seeds, disclosure_fraction=0.5,
    )
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
    alice = AliceSession(cfg)
    endpoint = DiscloseTamperingEndpoint(open_in_process(alice.handle), drop_last=True)
    with pytest.raises(ProtocolViolationError):
        BobSession(cfg).run(endpoint)


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
    alice = AliceSession(cfg)
    endpoint = DiscloseTamperingEndpoint(open_in_process(alice.handle), edit=edit)
    with pytest.raises(ProtocolViolationError):
        BobSession(cfg).run(endpoint)


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


def test_config_mismatch_rejected():
    alice_cfg = noiseless_config(1000, seeds=Seeds(1, 2, 3))
    bob_cfg = noiseless_config(1000, seeds=Seeds(1, 2, 4))
    alice = AliceSession(alice_cfg)
    with pytest.raises(ConfigError):
        BobSession(bob_cfg).run(open_in_process(alice.handle))


def test_commitment_binds_parameters():
    a = seeds_commitment(noiseless_config(1000))
    b = seeds_commitment(noiseless_config(1001))
    c = seeds_commitment(noiseless_config(1000, seeds=Seeds(1, 2, 4)))
    assert len(a) == 32
    assert a != b and a != c


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
    alice = AliceSession(cfg)
    if kind != "start":
        assert alice.handle(session_start(cfg)) == []
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
        endpoint = types.SimpleNamespace(send=endpoint.send, recv=endpoint.recv)
    with pytest.raises(ProtocolViolationError):
        BobSession(cfg).run(endpoint)


def test_bb84_sift_fraction_near_half():
    cfg = reference_session(0.2, 400_000, Seeds(11, 12, 13),
                            variant=ProtocolVariant.BB84)
    result = run_session(cfg)
    frac = result.basis_matched / result.clicks
    sigma = math.sqrt(0.25 / result.clicks)
    assert abs(frac - 0.5) < 3.0 * sigma


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


class PhaseMaskingEndpoint:
    """Scrambles phase_a on every returned frame after the channel."""

    def __init__(self, inner):
        self._inner = inner

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        msg = self._inner.recv()
        if hasattr(msg, "phase_a"):
            return msg._replace(phase_a=123.456)
        return msg

    def close(self):
        self._inner.close()


def test_sifting_layer_never_reads_phase():
    # Reference run records the physics decisions.
    cfg = reference_session(0.2, 20_000, Seeds(21, 22, 23))
    recorder = RecordingPhysics(
        QuantumPhysics(cfg.setup, cfg.detector, derive_rng(cfg.seeds.physics, 0))
    )
    alice = AliceSession(cfg)
    reference = BobSession(cfg, physics=recorder).run(open_in_process(alice.handle))
    # Replay with every post-physics phase_a masked: identical outcome proves
    # the sifting layer decided from clicks alone.
    alice2 = AliceSession(cfg)
    masked_endpoint = PhaseMaskingEndpoint(open_in_process(alice2.handle))
    masked = BobSession(cfg, physics=ReplayPhysics(recorder.clicks)).run(masked_endpoint)
    assert masked == reference


class FlakyEndpoint:
    def __init__(self, inner, fail_after_sends):
        self._inner = inner
        self._left = fail_after_sends

    def send(self, msg):
        if self._left <= 0:
            raise ChannelError("connection reset")
        self._left -= 1
        self._inner.send(msg)

    def recv(self):
        return self._inner.recv()

    def close(self):
        self._inner.close()


def test_mid_session_disconnect_aborts_with_partial_stats():
    cfg = noiseless_config(5000)
    alice = AliceSession(cfg)
    endpoint = FlakyEndpoint(open_in_process(alice.handle), fail_after_sends=2050)
    with pytest.raises(SessionAborted) as err:
        BobSession(cfg).run(endpoint)
    partial = err.value.partial
    assert partial.aborted
    assert 0 < partial.pulses_processed < 5000
    assert partial.final_key_bob == b""
    assert partial.sifted_key_bob == b""
    assert partial.measured_er is None


def test_alice_rejects_out_of_order_frames():
    from fmqkd.framing import QFrameOut, SessionStart
    from fmqkd.protocol import OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL

    cfg = noiseless_config(100)
    alice = AliceSession(cfg)
    start = SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                         seeds_commitment(cfg))
    assert alice.handle(start) == []
    with pytest.raises(ProtocolViolationError):
        alice.handle(QFrameOut(5, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))


def acknowledging_alice(variant, reflected):
    """Alice of a 100-pulse session who has reflected the first ``reflected`` frames."""
    cfg = dataclasses.replace(reference_session(0.2, 100, Seeds(1, 2, 3), variant),
                              ack_window=10)
    alice = AliceSession(cfg)
    alice.handle(SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                              seeds_commitment(cfg)))
    alice.handle(QFrameWindowOut(0, reflected, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))
    return alice


def ack(ends, indices=()):
    return DetectionsBlock(np.array(ends, np.uint64), np.array(indices, np.uint64))


def test_alice_rejects_bad_detections_blocks():
    alice = acknowledging_alice(ProtocolVariant.BB84, 100)
    assert alice.handle(ack([10, 20], [4, 15])) == []
    for bad in (ack([]),                   # no window
                ack([40, 30]),             # ends decrease
                ack([30, 30]),             # ends repeat
                ack([20, 30]),             # end already acknowledged
                ack([30, 101]),            # end past the frames reflected
                ack([30], [25, 22]),       # indices decrease
                ack([30], [22, 22]),       # indices repeat
                ack([30], [15, 25]),       # index inside an acknowledged window
                ack([30], [30])):          # index at the last end
        with pytest.raises(ProtocolViolationError):
            alice.handle(bad)
    # BASES only after the final end; the rejected frames changed nothing.
    assert alice.handle(ack([30, 90], [20, 89])) == []
    with pytest.raises(ProtocolViolationError):
        alice.handle(Bases((0,) * 4))
    assert alice.handle(ack([100], [99])) == []
    assert alice.detected_indices == (4, 15, 20, 89, 99)
    replies = alice.handle(Bases((0,) * 5))
    assert [type(r).__name__ for r in replies] == ["Bases", "Disclose"]
    with pytest.raises(ProtocolViolationError):
        alice.handle(ack([100]))


def test_alice_takes_sequence_blocks_as_their_array_form():
    # In-process peers skip the wire and may send plain sequences.
    as_arrays = acknowledging_alice(ProtocolVariant.BB92, 100)
    as_tuples = acknowledging_alice(ProtocolVariant.BB92, 100)
    for ends, indices in (((10, 20), (4, 15)), ((30,), ()), ((40, 100), (50, 60))):
        want = as_arrays.handle(ack(ends, indices))
        got = as_tuples.handle(DetectionsBlock(ends, indices))
        assert [type(m) for m in got] == [type(m) for m in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.items, w.items)
    assert as_tuples.detected_indices == as_arrays.detected_indices == (4, 15, 50, 60)


def test_alice_rejects_bad_sequence_blocks():
    alice = acknowledging_alice(ProtocolVariant.BB84, 100)
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
    assert alice.handle(DetectionsBlock((10,), ())) == []


def test_alice_rejects_acknowledgement_of_frames_not_reflected():
    alice = acknowledging_alice(ProtocolVariant.BB92, 40)
    with pytest.raises(ProtocolViolationError):
        alice.handle(ack([50]))
    assert alice.handle(ack([10, 40], [39])) == []


def test_alice_discloses_on_the_final_block_end():
    alice = acknowledging_alice(ProtocolVariant.BB92, 100)
    assert alice.handle(ack([10, 20, 30], [3])) == []
    (disclose,) = alice.handle(ack([40, 100], [50, 60]))
    assert isinstance(disclose, Disclose)
    assert [i for i, _ in disclose.items] == [3, 50, 60]
    with pytest.raises(ProtocolViolationError):
        alice.handle(ack([100]))


def test_alice_rejects_detection_in_a_window_reported_empty():
    # Per-pulse DETECTIONS follow the block rules: a window reported empty
    # stays empty.
    cfg = dataclasses.replace(reference_session(0.2, 100, Seeds(1, 2, 3)), ack_window=10)
    alice = AliceSession(cfg)
    alice.handle(SessionStart(cfg.n_pulses, cfg.variant.code, cfg.setup.mu_pair,
                              seeds_commitment(cfg)))

    def reflect(frames):
        for i in frames:
            alice.handle(QFrameOut(i, OUTGOING_REFERENCE_PHOTONS, POL_HORIZONTAL))

    reflect(range(10))
    assert alice.handle(Detections(())) == []
    reflect(range(10, 20))
    with pytest.raises(ProtocolViolationError):
        alice.handle(Detections((5,)))
    assert alice.detected_indices == ()
    assert alice.handle(Detections((15,))) == []
    assert alice.detected_indices == (15,)


def test_physics_rejects_out_of_order_and_bad_frames():
    from fmqkd.framing import QFrameBack

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


class DroppingEndpoint:
    """Delivers the first ``n`` returned frames, then the channel dies."""

    def __init__(self, inner, deliver):
        self._inner = inner
        self._left = deliver

    def send(self, msg):
        self._inner.send(msg)

    def recv(self):
        if self._left <= 0:
            raise ChannelError("returned frame lost")
        self._left -= 1
        return self._inner.recv()

    def close(self):
        self._inner.close()


def test_dropped_return_frame_aborts_at_that_index():
    cfg = noiseless_config(5000)
    alice = AliceSession(cfg)
    endpoint = DroppingEndpoint(open_in_process(alice.handle), deliver=1234)
    with pytest.raises(SessionAborted) as err:
        BobSession(cfg).run(endpoint)
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
