import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from field_inputs import REFUSED, TAKEN
from fmqkd import randomness
from fmqkd.errors import BitSourceExhausted
from fmqkd.randomness import BitSource, UniformSampler, derive_rng
from sessions import traced_peak


def test_take_is_chunk_independent():
    a = BitSource.from_seed(5)
    b = BitSource.from_seed(5)
    chunked = np.concatenate([a.take(7), a.take(9), a.take(1)])
    assert np.array_equal(chunked, b.take(17))


def test_take_bit_matches_take():
    a = BitSource.from_seed(9)
    b = BitSource.from_seed(9)
    bits = [a.take_bit() for _ in range(200)]
    assert np.array_equal(np.array(bits, dtype=np.uint8), b.take(200))


def test_prng_source_spans_refill_boundary():
    a = BitSource.from_seed(3)
    b = BitSource.from_seed(3)
    n = BitSource._BLOCK + 100
    assert np.array_equal(a.take(n), b.take(n))
    assert_same_state(a, integers_oracle(3, 0, n)[1])


def test_same_seed_same_stream():
    assert np.array_equal(BitSource.from_seed(1).take(64), BitSource.from_seed(1).take(64))
    assert not np.array_equal(
        BitSource.from_seed(1).take(64), BitSource.from_seed(2).take(64)
    )


def test_derived_streams_are_independent():
    a = derive_rng(1, 0).random(8)
    b = derive_rng(1, 1).random(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, derive_rng(1, 0).random(8))


def test_file_source_never_reserves_and_exhausts():
    src = BitSource.from_bits([1, 0, 1, 1, 0])
    assert src.remaining() == 5
    assert np.array_equal(src.take(3), [1, 0, 1])
    assert src.take_bit() == 1
    assert src.remaining() == 1
    with pytest.raises(BitSourceExhausted):
        src.take(2)
    assert src.take_bit() == 0
    with pytest.raises(BitSourceExhausted):
        src.take_bit()
    assert src.remaining() == 0


def test_prng_source_is_unbounded():
    assert BitSource.from_seed(0).remaining() is None


def test_from_bits_validates_values():
    # Checked as given, before any cast: uint8 would wrap 256 to 0 and cut 0.5 to 0.
    # Only a 1-D sequence: a 2-D array or a bare scalar would serve the wrong shape.
    for bad in ([0, 2], np.array([256, 257, -255]), np.array([0.5, 1.0]), *REFUSED.values()):
        with pytest.raises(ValueError):
            BitSource.from_bits(bad)
    for good in TAKEN:
        assert BitSource.from_bits(good).take(3).tolist() == [1, 0, 1]
    # The source keeps its own copy: writing into the caller's array changes nothing.
    bits = np.array([0, 1, 0, 1], np.uint8)
    src = BitSource.from_bits(bits)
    bits[:] = 1
    assert src.take(4).tolist() == [0, 1, 0, 1]


def test_key_files_serve_their_bits_in_file_order(tmp_path):
    from fmqkd.keyfile import write_key_file

    paths = [str(tmp_path / "a.qkdr"), str(tmp_path / "b.qkdr")]
    write_key_file(paths[0], np.array([1, 0, 1], dtype=np.uint8))
    write_key_file(paths[1], np.array([0, 0], dtype=np.uint8))
    src = BitSource.from_key_files(paths)
    assert src.remaining() == 5
    assert np.array_equal(src.take(5), [1, 0, 1, 0, 0])
    with pytest.raises(BitSourceExhausted):
        src.take_bit()


def test_uniform_sampler_tracks_generator_stream():
    sampler = UniformSampler(np.random.default_rng(12))
    reference = np.random.default_rng(12).random(UniformSampler._BLOCK + 5)
    got = np.array([sampler.next() for _ in range(UniformSampler._BLOCK + 5)])
    assert np.array_equal(got, reference)


ORACLE_SEEDS = [0, 1, 2, 3, 7, 42, 255, 256, 65535, 10 ** 9, 2 ** 32 - 1, 2 ** 32,
                2 ** 63, 2 ** 64 - 1, 123456789, 987654321, 31337, 271828, 314159, 8675309]


def integers_oracle(seed, stream, served):
    """The first ``served`` bits of ``integers(0, 2)``, and the generator state
    after them, rounded up to a whole PCG64 word."""
    oracle = derive_rng(seed, stream)
    bits = oracle.integers(0, 2, size=served + served % 2, dtype=np.int64)
    return bits[:served].astype(np.uint8), oracle.bit_generator.state


def assert_same_state(src, state):
    got = src._rng.bit_generator.state
    # ``uinteger`` keeps a spent half that is never read while has_uint32 is 0.
    assert got["state"] == state["state"]
    assert got["has_uint32"] == state["has_uint32"] == 0


@pytest.mark.parametrize("stream", [0, 1])
def test_prng_bits_are_the_generators_integers(stream):
    # Bits come from the raw PCG64 words; they must be exactly integers(0, 2),
    # and a take draws only the words its bits need.
    n = 3 * BitSource._BLOCK + 5
    for seed in ORACLE_SEEDS:
        src = BitSource.from_seed(seed, stream)
        bits, state = integers_oracle(seed, stream, n)
        assert np.array_equal(src.take(n), bits)
        assert_same_state(src, state)


# Odd requests and a carried spare bit. A scalar draw refills a whole block,
# which the takes after it use up, so each chunking ends with no value drawn
# ahead.
ODD_CHUNKINGS = [
    (5, 3, "bit", BitSource._BLOCK + 1),
    (1, 1, 7, 2 * BitSource._BLOCK + 1),
    ("bit", BitSource._BLOCK - 1, 3),
]


@pytest.mark.parametrize("chunking", ODD_CHUNKINGS)
def test_odd_chunkings_draw_only_what_they_serve(chunking):
    for seed in ORACLE_SEEDS:
        src = BitSource.from_seed(seed, 1)
        served = np.concatenate([
            np.array([src.take_bit()], np.uint8) if n == "bit" else src.take(n)
            for n in chunking
        ])
        bits, state = integers_oracle(seed, 1, served.size)
        assert np.array_equal(served, bits)
        assert_same_state(src, state)


@pytest.fixture
def two_cpus(monkeypatch):
    """Any runner counts as two CPUs, so a large prefetch goes to the helper thread."""
    monkeypatch.setattr(randomness, "_cpus", lambda: 2)


def key_file_bits(n):
    return BitSource.from_bits(np.random.default_rng(5).integers(0, 2, n, dtype=np.uint8))


@pytest.mark.parametrize("make, n, prefetch", [
    (lambda n: BitSource.from_seed(3), 2 ** 22, False),
    # An odd count holds its spare bit on its own, not in a copy of the draw.
    (lambda n: BitSource.from_seed(3), 2 ** 22 + 1, False),
    (key_file_bits, 2 ** 22, False),
    (lambda n: UniformSampler(derive_rng(3, 0)), 2 ** 22, False),
    # Drawn on the helper thread, into the array the take returns.
    (lambda n: BitSource.from_seed(3), 2 ** 22 + 1, True),
    (lambda n: UniformSampler(derive_rng(3, 0)), 2 ** 22, True),
], ids=["prng_bits", "prng_bits_odd", "key_file_bits", "uniforms", "prng_bits_odd_prefetched",
        "uniforms_prefetched"])
def test_large_take_needs_little_more_than_its_output(two_cpus, make, n, prefetch):
    src = make(n)
    with traced_peak() as traced:
        if prefetch:
            src.prefetch(n)
            assert src._job is not None
        out = src.take(n)
    assert out.size == n
    assert traced.peak <= 1.1 * out.nbytes


class WideBits(BitSource):
    _BLOCK = 65536


class WideSampler(UniformSampler):
    _BLOCK = 65536


def mixed_serve(take, scalar, total, plan_seed):
    """``total`` values in a random mix of ``take`` calls and runs of scalars."""
    plan = np.random.default_rng(plan_seed)
    served = []
    while len(served) < total:
        count = min(int(plan.integers(0, 40_000)), total - len(served))
        if plan.random() < 0.3:
            count = min(count, 2_000)
            served.extend(scalar() for _ in range(count))
        else:
            served.extend(take(count).tolist())
    return served


def test_block_size_changes_no_served_value():
    total = 200_000
    for seed in (4, 2 ** 63):
        wide, default = WideBits.from_seed(seed, 1), BitSource.from_seed(seed, 1)
        assert (mixed_serve(wide.take, wide.take_bit, total, 1)
                == mixed_serve(default.take, default.take_bit, total, 2))
        wide, default = WideSampler(derive_rng(seed, 2)), UniformSampler(derive_rng(seed, 2))
        assert (mixed_serve(wide.take, wide.next, total, 3)
                == mixed_serve(default.take, default.next, total, 4))


PREFETCH_MIN = BitSource._PREFETCH_MIN
STREAMS = {
    "bits": lambda seed: BitSource.from_seed(seed, 1),
    "uniforms": lambda seed: UniformSampler(derive_rng(seed, 2)),
}


def assert_same_stream(a, b):
    """``a`` and ``b`` hold the same values and their generators the same state."""
    assert a._rng.bit_generator.state == b._rng.bit_generator.state
    assert np.array_equal(a._held[a._pos:], b._held[b._pos:])
    assert a._job is None


@pytest.mark.parametrize("kind", STREAMS)
# Both sides of the size rule; odd counts leave a spare bit, which the next
# prefetch of a bit source counts as held.
@pytest.mark.parametrize("n", [1, PREFETCH_MIN - 1, PREFETCH_MIN, PREFETCH_MIN + 1,
                               3 * PREFETCH_MIN + 7])
def test_prefetch_then_take_serves_what_take_would(two_cpus, kind, n):
    for seed in ORACLE_SEEDS[:6]:
        plain, fetched = STREAMS[kind](seed), STREAMS[kind](seed)
        for count in (n, n + 1, 5):
            want = plain.take(count)
            fetched.prefetch(count)
            assert (fetched._job is not None) == (count >= PREFETCH_MIN)
            got = fetched.take(count)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert_same_stream(fetched, plain)


def test_prefetch_on_one_cpu_draws_nothing_ahead(monkeypatch):
    monkeypatch.setattr(randomness, "_cpus", lambda: 1)
    src = UniformSampler(derive_rng(3, 0))
    state = src._rng.bit_generator.state
    src.prefetch(4 * PREFETCH_MIN)
    assert src._job is None and src._rng.bit_generator.state == state


class EagerBits(BitSource):
    _PREFETCH_MIN = 8


class EagerSampler(UniformSampler):
    _PREFETCH_MIN = 8


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # one patch for all
@given(runs=st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=20),
       seed=st.integers(0, 2 ** 64 - 1))
def test_prefetched_takes_any_chunking_same_stream(two_cpus, runs, seed):
    # A low size rule, so short takes go to the helper too.
    for eager, plain in ((EagerBits.from_seed(seed, 1), BitSource.from_seed(seed, 1)),
                         (EagerSampler(derive_rng(seed, 2)), UniformSampler(derive_rng(seed, 2)))):
        for prefetch, count in runs:
            if prefetch:
                eager.prefetch(count)
            assert np.array_equal(eager.take(count), plain.take(count))
        assert_same_stream(eager, plain)


def test_take_of_another_count_after_prefetch_raises(two_cpus):
    src, plain = UniformSampler(derive_rng(4, 0)), UniformSampler(derive_rng(4, 0))
    src.prefetch(PREFETCH_MIN)
    for other in (0, 1, PREFETCH_MIN - 1, PREFETCH_MIN + 1):
        with pytest.raises(ValueError, match="after prefetch"):
            src.take(other)
    # The prefetched take is still served, in order.
    assert np.array_equal(src.take(PREFETCH_MIN), plain.take(PREFETCH_MIN))
    assert_same_stream(src, plain)


def test_failed_draw_surfaces_in_take_and_the_helper_keeps_serving(two_cpus, monkeypatch):
    calls = []
    real_draw = UniformSampler._draw

    def draw_failing_once(self, out):
        calls.append(threading.current_thread().name)
        if len(calls) == 1:
            raise RuntimeError("draw failed")
        return real_draw(self, out)

    monkeypatch.setattr(UniformSampler, "_draw", draw_failing_once)
    src = UniformSampler(derive_rng(5, 0))
    src.prefetch(PREFETCH_MIN)
    deadline = time.monotonic() + 30
    while src._drawn is None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert calls == ["fmqkd-draws"]  # the failure happened on the helper thread
    with pytest.raises(RuntimeError, match="draw failed"):
        src.take(PREFETCH_MIN)
    assert src._job is None
    # The helper is still there: a job handed to it runs, and the next prefetch completes.
    ran = threading.Event()
    randomness._helper().put(ran.set)
    assert ran.wait(30)
    after = UniformSampler(derive_rng(5, 0))
    after.prefetch(PREFETCH_MIN)
    assert np.array_equal(after.take(PREFETCH_MIN), derive_rng(5, 0).random(PREFETCH_MIN))


def test_take_draws_a_prefetch_itself_while_the_helper_is_busy(two_cpus):
    # The helper is held up by an earlier job; the take must not wait for it.
    release = threading.Event()
    randomness._helper().put(lambda: release.wait(30))
    try:
        src = UniformSampler(derive_rng(6, 0))
        src.prefetch(PREFETCH_MIN)
        started = time.monotonic()
        got = src.take(PREFETCH_MIN)
        assert time.monotonic() - started < 10 and not release.is_set()
    finally:
        release.set()
    assert np.array_equal(got, derive_rng(6, 0).random(PREFETCH_MIN))


def test_prefetches_from_many_threads_serve_what_take_would(two_cpus):
    # Four threads (more than the two cores) share the one helper, and a short
    # switch interval lets the helper and each take meet at any point of a draw.
    counts = np.random.default_rng(8).integers(8, 3000, 300).tolist()
    results = []

    def serve(seed):
        for eager, plain in ((EagerBits.from_seed(seed, 1), BitSource.from_seed(seed, 1)),
                             (EagerSampler(derive_rng(seed, 2)), UniformSampler(derive_rng(seed, 2)))):
            for count in counts:
                eager.prefetch(count)
                results.append(np.array_equal(eager.take(count), plain.take(count)))
            assert_same_stream(eager, plain)
            results.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 * 2 * (len(counts) + 1) and all(results)
