import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from field_inputs import ONE_PATH, PATH_FORMS, REFUSED, TAKEN
from fmqkd import keyfile
from fmqkd.errors import BitSourceExhausted, ConfigError
from fmqkd.keyfile import NATIVE_BLOCK_BITS, write_key_file
from fmqkd.randomness import BitSource, UniformSampler, derive_rng
from sessions import child_env, traced_peak


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


@pytest.mark.parametrize("form", list(PATH_FORMS.values()), ids=list(PATH_FORMS))
def test_key_files_are_opened_from_str_and_pathlike_paths(tmp_path, form):
    rng = np.random.default_rng(6)
    files = [tmp_path / f"{k}.qkdr" for k in range(2)]
    bits = [rng.integers(0, 2, n, dtype=np.uint8) for n in (13, 70)]
    for path, b in zip(files, bits):
        write_key_file(path, b)
    src = BitSource.from_key_files([form(path) for path in files])
    assert np.array_equal(src.take(83), np.concatenate(bits))


@pytest.mark.parametrize("one_path", list(ONE_PATH.values()), ids=list(ONE_PATH))
def test_one_key_file_path_is_refused_before_any_file_is_opened(monkeypatch, one_path):
    def refuse(*args, **kwargs):
        raise AssertionError("no file may be opened")

    monkeypatch.setattr(keyfile, "open", refuse, raising=False)
    with pytest.raises(ConfigError, match="paths"):
        BitSource.from_key_files(one_path)


# Builds 10,000 two-file sources from the str paths in argv, after one to warm
# up, and prints the most bytes tracemalloc saw held at once.
_BUILDS = """
import sys, tracemalloc
from fmqkd.randomness import BitSource
paths = sys.argv[1:]
BitSource.from_key_files(paths)
tracemalloc.start()
for _ in range(10_000):
    BitSource.from_key_files(paths)
print(tracemalloc.get_traced_memory()[1])
"""


def test_building_key_file_sources_does_not_grow_the_interned_string_table(tmp_path):
    # A pathlib.Path interns each part of its path on CPython 3.10, 3.11 and
    # 3.13. A file name interned per build and freed with its Path leaves a
    # deleted slot in the interned-string table; when they run out the table
    # regrows, a fresh 940 KiB. A child starts the table in a fixed state; in
    # the test process, when the first regrowth comes depends on what is imported.
    paths = [str(tmp_path / f"alice-{k}.qkdr") for k in range(2)]
    for path in paths:
        write_key_file(path, np.ones(100, np.uint8))
    out = subprocess.run([sys.executable, "-c", _BUILDS, *paths], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert int(out) < 64 * 1024


def test_key_files_are_held_packed(tmp_path):
    # 256 native blocks, 16.8M bits: a source holds the files' payloads, 0.125 B
    # per bit, and unpacks none of them to open it (1 B per bit held, 2 at the peak).
    rng = np.random.default_rng(9)
    paths = [str(tmp_path / f"{k}.qkdr") for k in range(256)]
    for path in paths:
        write_key_file(path, rng.integers(0, 2, NATIVE_BLOCK_BITS, dtype=np.uint8))
    bits = len(paths) * NATIVE_BLOCK_BITS
    tracemalloc.start()
    try:
        src = BitSource.from_key_files(paths)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert src.remaining() == bits
    assert held <= 0.15 * bits and peak <= 0.2 * bits


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


def key_file_bits(n):
    return BitSource.from_bits(np.random.default_rng(5).integers(0, 2, n, dtype=np.uint8))


@pytest.mark.parametrize("make, n", [
    (lambda n: BitSource.from_seed(3), 2 ** 22),
    # An odd count holds its spare bit on its own, not in a copy of the draw.
    (lambda n: BitSource.from_seed(3), 2 ** 22 + 1),
    (key_file_bits, 2 ** 22),
    (lambda n: UniformSampler(derive_rng(3, 0)), 2 ** 22),
], ids=["prng_bits", "prng_bits_odd", "key_file_bits", "uniforms"])
def test_large_take_needs_little_more_than_its_output(make, n):
    src = make(n)
    with traced_peak() as traced:
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
