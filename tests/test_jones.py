import math

import numpy as np
import pytest

from fmqkd.jones import (
    HORIZONTAL,
    apply,
    faraday_mirror,
    haar_random_unitaries,
    half_wave_plate,
    interference_overlap,
    is_unitary,
    mul,
    ordinary_mirror_round_trip,
    phase_aligned_distance,
    quarter_wave_plate,
    round_trip,
    rotator,
    wave_plate,
)


EPS = np.finfo(float).eps
ROUND_TRIPS = (round_trip, ordinary_mirror_round_trip)


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


def test_faraday_mirror_is_read_only():
    with pytest.raises(ValueError):
        faraday_mirror()[0, 1] = 0.0


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


def test_round_trips_act_on_each_matrix_of_a_stack():
    stack = haar_random_unitaries(np.random.default_rng(6), 5)
    assert is_unitary(stack)
    for trip in (round_trip, ordinary_mirror_round_trip):
        assert np.array_equal(trip(stack), [trip(u) for u in stack])
    stack[3, 1, 1] *= 1.0 + 1e-6
    assert not is_unitary(stack)
    with pytest.raises(ValueError):
        round_trip(stack)


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


def lapack_haar(rng, n):
    """The Haar draw as a QR factorisation: Q times the phases of R's diagonal."""
    z = (rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :], z


@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("seed", [0, 5, 77, 2 ** 63])
def test_closed_form_haar_matches_lapack_qr(seed, n):
    want, _ = lapack_haar(np.random.default_rng(seed), n)
    got = haar_random_unitaries(np.random.default_rng(seed), n)
    assert got.shape == (n, 2, 2)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 1000])
def test_haar_draw_is_the_q_factor_of_its_gaussian_matrix(n):
    # R = U^H z is upper triangular with a real positive diagonal.
    _, z = lapack_haar(np.random.default_rng(n), n)
    u = haar_random_unitaries(np.random.default_rng(n), n)
    r = np.swapaxes(u, -1, -2).conj() @ z
    assert np.abs(r[:, 1, 0]).max() <= 1e-12
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    assert np.abs(diagonal.imag).max() <= 1e-12
    assert diagonal.real.min() > 0.0


def matmul_is_unitary(u, tol=1e-10):
    return bool(np.abs(u @ np.swapaxes(u, -1, -2).conj() - np.eye(2)).max() <= tol)


def test_is_unitary_agrees_with_the_matmul_check():
    rng = np.random.default_rng(8)
    haar = haar_random_unitaries(rng, 200)
    gaussian = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    plates = [rotator(0.4), quarter_wave_plate(0.2), half_wave_plate(1.3), np.eye(2),
              np.diag([1.0, 2.0]), np.zeros((2, 2))]
    for stack in (haar, gaussian, haar * (1.0 + 1e-6), haar[:1]):
        assert is_unitary(stack) == matmul_is_unitary(stack)
        for u in stack[:20]:
            assert is_unitary(u) == matmul_is_unitary(u)
    for u in plates:
        assert is_unitary(u) == matmul_is_unitary(u)
    assert is_unitary(haar) and not is_unitary(gaussian)


@pytest.mark.parametrize("position", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_is_unitary_finds_one_perturbed_link(position):
    for k in (0, 3, 7):
        stack = haar_random_unitaries(np.random.default_rng(k), 8)
        stack[(k, *position)] += 1e-6
        assert not is_unitary(stack)
        assert is_unitary(stack) == matmul_is_unitary(stack)
        assert is_unitary(np.delete(stack, k, axis=0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                                 complex(math.inf, 0.0)])
@pytest.mark.parametrize("position", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_is_unitary_refuses_a_non_finite_entry(bad, position):
    single = np.eye(2, dtype=complex)
    single[position] = bad
    assert not is_unitary(single)
    stack = haar_random_unitaries(np.random.default_rng(2), 5)
    stack[(2, *position)] = bad
    assert not is_unitary(stack)


def test_kernels_match_matmul_within_a_few_ulp():
    rng = np.random.default_rng(12)
    a, b = haar_random_unitaries(rng, 1000), haar_random_unitaries(rng, 1000)
    v = haar_random_unitaries(rng, 1000)[..., 0]
    cases = [(a, b), (a[0], b[0]), (a, b[0]), (a[0], b), (np.swapaxes(a, -1, -2), b),
             (a, faraday_mirror()), (faraday_mirror(), np.eye(2))]
    for x, y in cases:
        got = mul(x, y)
        assert got.shape == np.broadcast_shapes(x.shape, y.shape)
        assert np.abs(got - x @ y).max() <= 4 * EPS
    for m, w in ((a, v), (a[0], v[0]), (a, v[0]), (a[0], v), (faraday_mirror(), HORIZONTAL)):
        got = apply(m, w)
        assert got.shape == np.broadcast_shapes(m.shape[:-1], w.shape)
        assert np.abs(got - (m @ w[..., None])[..., 0]).max() <= 4 * EPS


def test_round_trip_of_a_large_stack_is_det_times_faraday_mirror():
    stack = haar_random_unitaries(np.random.default_rng(13), 10_000)
    want = np.linalg.det(stack)[:, None, None] * faraday_mirror()
    assert np.abs(round_trip(stack) - want).max() <= 1e-12


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4), (2,), (5, 2, 3)])
def test_round_trips_refuse_operands_that_are_not_2x2(shape):
    # Each holds the 2x2 identity as a block, or a unit state for shape (2,).
    u = np.eye(*shape[-2:], dtype=complex) if len(shape) > 1 else HORIZONTAL
    u = np.broadcast_to(u, shape)
    assert not is_unitary(u)
    for trip in ROUND_TRIPS:
        with pytest.raises(ValueError, match="2x2"):
            trip(u)


def test_empty_stack_is_unitary_and_round_trips_to_an_empty_stack():
    empty = haar_random_unitaries(np.random.default_rng(0), 0)
    assert empty.shape == (0, 2, 2)
    assert is_unitary(empty)
    for trip in ROUND_TRIPS:
        assert trip(empty).shape == (0, 2, 2)
