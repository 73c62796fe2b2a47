import numpy as np
import pytest

from fmqkd.errors import BitSourceExhausted
from fmqkd.randomness import BitSource, UniformSampler, derive_rng


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
    assert a.cursor == n


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
    assert src.cursor == 5


def test_prng_source_is_unbounded():
    assert BitSource.from_seed(0).remaining() is None


def test_from_bits_validates_values():
    # Checked as given, before any cast: uint8 would wrap 256 to 0 and cut 0.5 to 0.
    for bad in ([0, 2], np.array([256, 257, -255]), np.array([0.5, 1.0])):
        with pytest.raises(ValueError):
            BitSource.from_bits(bad)
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
