import math

import numpy as np
import pytest

from fmqkd import jones
from fmqkd.jones import (
    JonesMatrix,
    JonesVector,
    apply,
    backward,
    faraday_mirror,
    haar_random_unitaries,
    haar_random_unitary,
    half_wave_plate,
    identity,
    interference_overlap,
    is_proportional,
    mirror,
    ordinary_mirror_round_trip,
    phase_aligned_distance,
    quarter_wave_plate,
    round_trip,
    rotator,
    wave_plate,
)


def random_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return JonesVector(complex(v[0]), complex(v[1]))


def test_apply_identity_returns_input():
    v = JonesVector(0.3 + 0.1j, -0.7 + 0.2j)
    w = apply(identity(), v)
    assert w.c0 == v.c0 and w.c1 == v.c1


def test_faraday_mirror_matches_hand_product():
    # Oracle: multiply rotator, mirror, rotator entry by entry with raw numpy.
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot = np.array([[c, -s], [s, c]])
    expected = rot @ np.eye(2) @ rot
    assert np.abs(faraday_mirror().as_array() - expected).max() < 1e-15
    # The product is the quarter-turn rotation [[0, -1], [1, 0]].
    assert np.abs(expected - np.array([[0.0, -1.0], [1.0, 0.0]])).max() < 1e-15


def test_faraday_mirror_swaps_linear_states():
    out_h = apply(faraday_mirror(), JonesVector(1.0, 0.0))
    assert abs(out_h.c0) < 1e-15 and abs(abs(out_h.c1) - 1.0) < 1e-15
    out_v = apply(faraday_mirror(), JonesVector(0.0, 1.0))
    assert abs(abs(out_v.c0) - 1.0) < 1e-15 and abs(out_v.c1) < 1e-15


def test_faraday_mirror_output_orthogonal_for_random_states():
    rng = np.random.default_rng(11)
    fm = faraday_mirror()
    for _ in range(100):
        v = random_state(rng)
        assert abs(interference_overlap(v, apply(fm, v))) < 1e-12


def test_apply_is_associative_with_composition():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = haar_random_unitary(rng)
        b = haar_random_unitary(rng)
        v = random_state(rng)
        left = apply(a @ b, v)
        right = apply(a, apply(b, v))
        assert abs(left.c0 - right.c0) < 1e-12
        assert abs(left.c1 - right.c1) < 1e-12


def test_apply_rejects_non_finite_entries():
    with pytest.raises(ValueError):
        JonesVector(float("nan"), 0.0)
    with pytest.raises(ValueError):
        JonesMatrix(float("inf"), 0.0, 0.0, 1.0)


def test_round_trip_of_identity_is_faraday_mirror():
    assert phase_aligned_distance(round_trip(identity()), faraday_mirror()) < 1e-15


def test_round_trip_quarter_wave_matches_direct_product():
    u = quarter_wave_plate(math.radians(30))
    # Oracle: the transpose-mirror-forward product assembled with raw numpy.
    ua = u.as_array()
    direct = ua.T @ np.array([[0.0, -1.0], [1.0, 0.0]]) @ ua
    assert np.abs(round_trip(u).as_array() - direct).max() < 1e-15
    assert phase_aligned_distance(round_trip(u), faraday_mirror()) < 1e-10


def test_round_trip_rejects_non_unitary():
    with pytest.raises(ValueError):
        round_trip(JonesMatrix(1.0, 0.0, 0.0, 2.0))


def test_compensation_theorem_over_haar_samples():
    rng = np.random.default_rng(42)
    fm = faraday_mirror()
    for _ in range(1000):
        u = haar_random_unitary(rng)
        rt = round_trip(u)
        assert phase_aligned_distance(rt, fm) < 1e-10
        v = random_state(rng)
        assert abs(interference_overlap(v, apply(rt, v))) < 1e-10


def test_proportionality_scalar_is_unit_modulus():
    rng = np.random.default_rng(9)
    fm = faraday_mirror().as_array()
    for _ in range(200):
        u = haar_random_unitary(rng)
        rt = round_trip(u).as_array()
        k = np.unravel_index(np.argmax(np.abs(fm)), fm.shape)
        scalar = rt[k] / fm[k]
        assert abs(abs(scalar) - 1.0) < 1e-10


def test_products_of_unitaries_stay_unitary():
    rng = np.random.default_rng(3)
    m = identity()
    for _ in range(50):
        m = m @ haar_random_unitary(rng)
    assert m.is_unitary(1e-9)


def test_haar_unitary_construction_checks():
    rng = np.random.default_rng(1)
    for _ in range(100):
        u = haar_random_unitary(rng)
        assert u.is_unitary(1e-10)
        assert abs(abs(u.det()) - 1.0) < 1e-10


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
    rt = ordinary_mirror_round_trip(identity())
    assert phase_aligned_distance(rt, mirror()) < 1e-15


def test_ordinary_mirror_half_wave_fails_orthogonality():
    u = half_wave_plate(math.radians(22.5))
    out = apply(ordinary_mirror_round_trip(u), JonesVector(1.0, 0.0))
    # The ordinary mirror returns the input state, not the orthogonal one.
    assert abs(interference_overlap(JonesVector(1.0, 0.0), out)) > 0.99
    # Against a reference Faraday-mirror path the two returns no longer match.
    ref = apply(faraday_mirror(), JonesVector(1.0, 0.0))
    out_n = out.normalized()
    assert abs(np.vdot(ref.as_array(), out_n.as_array())) < 1e-10


def test_backward_is_transpose():
    rng = np.random.default_rng(8)
    u = haar_random_unitary(rng)
    assert np.array_equal(backward(u).as_array(), u.as_array().T)


def test_wave_plate_is_unitary_with_unit_determinant():
    for ret, ang in ((math.pi / 2, 0.3), (math.pi, 1.1), (0.7, -0.4)):
        w = wave_plate(ret, ang)
        assert w.is_unitary(1e-12)
        assert abs(w.det() - 1.0) < 1e-12


def test_vector_norm_helpers():
    v = JonesVector(3.0, 4.0)
    assert v.norm_sq == 25.0
    n = v.normalized()
    assert n.is_normalized()
    with pytest.raises(ValueError):
        JonesVector(0.0, 0.0).normalized()


def test_is_proportional_accepts_global_phase():
    rng = np.random.default_rng(6)
    u = haar_random_unitary(rng)
    phased = JonesMatrix.from_array(np.exp(0.7j) * u.as_array())
    assert is_proportional(phased, u, tol=1e-12)
    assert not is_proportional(u, rotator(0.3) @ u, tol=1e-3)
