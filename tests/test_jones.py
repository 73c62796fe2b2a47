import math

import numpy as np
import pytest

from fmqkd.jones import (
    HORIZONTAL,
    faraday_mirror,
    haar_random_unitaries,
    half_wave_plate,
    interference_overlap,
    is_unitary,
    ordinary_mirror_round_trip,
    phase_aligned_distance,
    quarter_wave_plate,
    round_trip,
    rotator,
    wave_plate,
)


def random_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def haar_unitary(rng):
    return haar_random_unitaries(rng, 1)[0]


def test_faraday_mirror_matches_hand_product():
    # Oracle: multiply rotator, mirror, rotator entry by entry with raw numpy.
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    expected = rot @ np.eye(2) @ rot
    assert np.abs(faraday_mirror() - expected).max() < 1e-15
    # The product is the quarter-turn rotation [[0, -1], [1, 0]].
    assert np.abs(expected - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-15


def test_faraday_mirror_swaps_linear_states():
    out_h = faraday_mirror() @ np.array([1.0, 0.0])
    assert abs(out_h[0]) < 1e-15 and abs(abs(out_h[1]) - 1.0) < 1e-15
    out_v = faraday_mirror() @ np.array([0.0, 1.0])
    assert abs(abs(out_v[0]) - 1.0) < 1e-15 and abs(out_v[1]) < 1e-15


def test_horizontal_is_read_only():
    with pytest.raises(ValueError):
        HORIZONTAL[0] = 0.0


def test_faraday_mirror_output_orthogonal_for_random_states():
    rng = np.random.default_rng(11)
    fm = faraday_mirror()
    for _ in range(100):
        v = random_state(rng)
        assert abs(interference_overlap(v, fm @ v)) < 1e-12


def test_round_trip_of_identity_is_faraday_mirror():
    assert phase_aligned_distance(round_trip(np.eye(2)), faraday_mirror()) < 1e-15


def test_round_trip_quarter_wave_matches_direct_product():
    u = quarter_wave_plate(math.radians(30))
    # Oracle: the transpose-mirror-forward product assembled with raw numpy.
    direct = u.T @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ u
    assert np.abs(round_trip(u) - direct).max() < 1e-15
    assert phase_aligned_distance(round_trip(u), faraday_mirror()) < 1e-10


def test_round_trip_rejects_non_unitary():
    with pytest.raises(ValueError):
        round_trip(np.diag([1.0, 2.0]))


def test_compensation_theorem_over_haar_samples():
    rng = np.random.default_rng(42)
    fm = faraday_mirror()
    for _ in range(1000):
        u = haar_unitary(rng)
        rt = round_trip(u)
        assert phase_aligned_distance(rt, fm) < 1e-10
        v = random_state(rng)
        assert abs(interference_overlap(v, rt @ v)) < 1e-10


def test_proportionality_scalar_is_unit_modulus():
    rng = np.random.default_rng(9)
    fm = faraday_mirror()
    for _ in range(200):
        u = haar_unitary(rng)
        rt = round_trip(u)
        k = np.unravel_index(np.argmax(np.abs(fm)), fm.shape)
        scalar = rt[k] / fm[k]
        assert abs(abs(scalar) - 1.0) < 1e-10


def test_products_of_unitaries_stay_unitary():
    rng = np.random.default_rng(3)
    m = np.eye(2)
    for _ in range(50):
        m = m @ haar_unitary(rng)
    assert is_unitary(m, 1e-9)


def test_haar_unitary_construction_checks():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = haar_unitary(rng)
        assert is_unitary(u, 1e-10)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10


def test_haar_first_entry_moment():
    # E|m00|^2 = 1/2 for the uniform distribution on U(2).
    stack = haar_random_unitaries(np.random.default_rng(123), 100_000)
    moment = float((np.abs(stack[:, 0, 0]) ** 2).mean())
    assert abs(moment - 0.5) < 0.01


def test_haar_sequence_is_deterministic():
    a = haar_random_unitaries(np.random.default_rng(77), 10)
    b = haar_random_unitaries(np.random.default_rng(77), 10)
    assert np.array_equal(a, b)


def test_ordinary_mirror_round_trip_identity_is_mirror():
    # The ideal mirror is the identity in the package convention.
    rt = ordinary_mirror_round_trip(np.eye(2))
    assert phase_aligned_distance(rt, np.eye(2)) < 1e-15


def test_ordinary_mirror_half_wave_fails_orthogonality():
    u = half_wave_plate(math.radians(22.5))
    out = ordinary_mirror_round_trip(u) @ HORIZONTAL
    # The ordinary mirror returns the input state, not the orthogonal one.
    assert abs(interference_overlap(HORIZONTAL, out)) > 0.99
    # Against a reference Faraday-mirror path the two returns no longer match.
    ref = faraday_mirror() @ HORIZONTAL
    out_n = out / np.linalg.norm(out)
    assert abs(np.vdot(ref, out_n)) < 1e-10


def test_wave_plate_is_unitary_with_unit_determinant():
    for ret, ang in ((math.pi / 2, 0.3), (math.pi, 1.1), (0.7, -0.4)):
        w = wave_plate(ret, ang)
        assert is_unitary(w, 1e-12)
        assert abs(np.linalg.det(w) - 1.0) < 1e-12


def test_is_proportional_accepts_global_phase():
    rng = np.random.default_rng(6)
    u = haar_unitary(rng)
    assert phase_aligned_distance(np.exp(0.7j) * u, u) <= 1e-12
    assert phase_aligned_distance(u, rotator(0.3) @ u) > 1e-3
