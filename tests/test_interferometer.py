import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmqkd.errors import ConfigError
from fmqkd.interferometer import (
    SetupConfig,
    attenuator_setting,
    detection_mean,
    effective_visibility,
    er_opt_from_visibility,
    er_opt_prediction,
    pulse_pair_overlap,
    schedule,
    visibility_from_extinction_db,
    visibility_samples,
)
from fmqkd.jones import (
    HORIZONTAL,
    faraday_mirror,
    haar_random_unitaries,
    ordinary_mirror_round_trip,
    round_trip,
)
from sessions import ideal_setup, traced_peak

INF = float("inf")
MIRRORS = ("faraday", "ordinary")


def test_visibility_reference_points():
    assert visibility_from_extinction_db(0.0) == 0.0
    # Hand evaluation: r = 10^2.7, V = (r - 1) / (r + 1).
    r = 10.0 ** 2.7
    assert visibility_from_extinction_db(27.0) == pytest.approx((r - 1) / (r + 1), abs=1e-15)
    assert abs(visibility_from_extinction_db(27.0) - 0.99602) < 5e-6
    assert visibility_from_extinction_db(INF) == 1.0
    with pytest.raises(ValueError):
        visibility_from_extinction_db(-0.1)


def test_er_opt_reference_points():
    v30 = visibility_from_extinction_db(30.0)
    v27 = visibility_from_extinction_db(27.0)
    assert er_opt_from_visibility(v30) == pytest.approx(0.001, abs=2e-6)
    assert er_opt_from_visibility(v27) == pytest.approx(0.002, abs=1e-5)
    assert er_opt_from_visibility(1.0) == 0.0
    mean = (er_opt_from_visibility(v30) + er_opt_from_visibility(v27)) / 2.0
    assert er_opt_prediction(SetupConfig()) == pytest.approx(mean, abs=1e-15)
    with pytest.raises(ValueError):
        er_opt_from_visibility(1.1)


def test_detection_mean_lossless_fringe_extremes():
    setup = ideal_setup(0.1)
    assert detection_mean(0.0, setup) == pytest.approx(0.1, abs=1e-15)
    assert detection_mean(math.pi, setup) == 0.0


def test_detection_mean_extinction_ratio():
    setup = SetupConfig(alice_extinction_db=30.0, bob_extinction_db=30.0)
    ratio = detection_mean(0.0, setup) / detection_mean(math.pi, setup)
    assert abs(ratio - 1000.0) < 10.0


def test_energy_bound_under_any_phase_and_loss():
    rng = np.random.default_rng(2)
    for _ in range(200):
        setup = SetupConfig(
            mu_pair=float(rng.uniform(0.01, 2.0)),
            line_loss_db=float(rng.uniform(0.0, 20.0)),
            c1_tap_db=float(rng.uniform(0.0, 10.0)),
        )
        phi = float(rng.uniform(-10.0, 10.0))
        assert detection_mean(phi, setup) <= setup.mu_pair + 1e-15


def test_fringe_symmetry():
    setup = SetupConfig()
    for phi in np.linspace(0.0, math.pi, 17):
        assert detection_mean(phi, setup) == detection_mean(-phi, setup)


def test_fringe_monotone_on_first_half_turn():
    setup = SetupConfig()
    values = detection_mean(np.linspace(0.0, math.pi, 64), setup)
    assert np.all(np.diff(values) < 0.0)


def test_visibility_recovery_from_fringe():
    setup = SetupConfig()
    phis = np.linspace(0.0, 2.0 * math.pi, 4097)
    values = detection_mean(phis, setup)
    vis = (values.max() - values.min()) / (values.max() + values.min())
    assert abs(vis - effective_visibility(setup)) < 1e-9


def test_detection_mean_of_an_array_is_its_scalar_calls():
    setup = SetupConfig()
    phis = np.random.default_rng(6).uniform(-4.0 * math.pi, 4.0 * math.pi, 1000)
    values = detection_mean(phis, setup)
    assert values.shape == phis.shape
    assert values.tolist() == [detection_mean(phi, setup) for phi in phis.tolist()]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_detection_mean_refuses_a_non_finite_entry_anywhere(bad, at):
    phis = np.linspace(0.0, math.pi, 10)
    phis[at] = bad
    with pytest.raises(ValueError):
        detection_mean(phis, SetupConfig())
    with pytest.raises(ValueError):
        detection_mean(bad, SetupConfig())


def test_quarter_phase_is_fringe_midpoint():
    setup = SetupConfig()
    mid = detection_mean(math.pi / 2.0, setup)
    mean = (detection_mean(0.0, setup) + detection_mean(math.pi, setup)) / 2.0
    assert abs(mid - mean) < 1e-9


def test_schedule_equal_arrival_and_windows():
    setup = SetupConfig()
    for index in (0, 1, 12345):
        sch = schedule(index, setup)
        assert sch.p1_arrive_d0_s == sch.p2_arrive_d0_s
        window = sch.modulation_window_close_s - sch.modulation_window_open_s
        assert abs(window - setup.pulse_separation_s) < 1e-12
        assert abs(sch.p1_arrive_d0_s - (sch.emit_s + setup.round_trip_delay_s)) < 1e-12
        assert sch.p1_arrive_alice_s < sch.p2_arrive_alice_s
    with pytest.raises(ValueError):
        schedule(-1, setup)


def test_attenuator_reaches_pair_intensity():
    setup = SetupConfig(mu_pair=0.1)
    att = attenuator_setting(setup, 1.0e6)
    assert 1.0e6 * 10.0 ** (-att / 10.0) == pytest.approx(0.05, rel=1e-12)
    att2 = attenuator_setting(SetupConfig(mu_pair=0.2), 1.0e6)
    assert 1.0e6 * 10.0 ** (-att2 / 10.0) == pytest.approx(0.1, rel=1e-12)


def test_attenuator_doubles_with_input_power():
    setup = SetupConfig(mu_pair=0.1)
    delta = attenuator_setting(setup, 2.0) - attenuator_setting(setup, 1.0)
    assert abs(delta - 3.0103) < 1e-4


def test_attenuator_unreachable_target():
    with pytest.raises(ConfigError):
        attenuator_setting(SetupConfig(mu_pair=0.1), 0.01)


def test_pulse_pair_overlap_faraday_is_unity():
    stack = haar_random_unitaries(np.random.default_rng(4), 100)
    for u in stack:
        assert abs(pulse_pair_overlap(u, "faraday") - 1.0) < 1e-12


def test_pulse_pair_overlap_ordinary_fluctuates():
    stack = haar_random_unitaries(np.random.default_rng(4), 1000)
    overlaps = [pulse_pair_overlap(u, "ordinary") for u in stack]
    assert min(overlaps) < 0.9
    assert max(overlaps) > 0.99


def test_visibility_samples_modes():
    fm = visibility_samples(1000, 30.0, np.random.default_rng(7), mirror="faraday")
    assert np.all(fm >= 0.998 - 1e-9)
    assert fm.max() - fm.min() < 1e-12
    ordinary = visibility_samples(1000, 30.0, np.random.default_rng(7), mirror="ordinary")
    assert ordinary.min() < 0.9
    # With no birefringence both mirrors give the configured maximum.
    v_max = visibility_from_extinction_db(30.0)
    for mirror in ("faraday", "ordinary"):
        eye = pulse_pair_overlap(np.eye(2), mirror)
        assert abs(v_max * eye - v_max) < 1e-12


# The oracle composes with ``@``, norms with ``np.linalg.norm`` and pairs with
# ``np.vdot``, which round otherwise than the entry-by-entry kernels: the
# Faraday overlap still matches exactly, the ordinary one within a few ulp
# (at most 2.5 eps seen over 50k links).
ORACLE_TOL = {"faraday": 0.0, "ordinary": 8 * np.finfo(float).eps}


def oracle_overlap(u, mirror):
    """One link's overlap, computed the plain per-link way."""
    trip = round_trip(u) if mirror == "faraday" else ordinary_mirror_round_trip(u)
    leading = faraday_mirror() @ trip @ HORIZONTAL
    trailing = trip @ faraday_mirror() @ HORIZONTAL
    leading = leading / np.linalg.norm(leading)
    trailing = trailing / np.linalg.norm(trailing)
    return float(abs(np.vdot(leading, trailing)))


@pytest.mark.parametrize("mirror", MIRRORS)
def test_visibility_samples_match_per_link_oracle(mirror):
    v_max = visibility_from_extinction_db(30.0)
    for seed in range(20):
        got = visibility_samples(1000, 30.0, np.random.default_rng(seed), mirror)
        stack = haar_random_unitaries(np.random.default_rng(seed), 1000)
        want = np.array([v_max * oracle_overlap(u, mirror) for u in stack])
        assert np.abs(got - want).max() <= ORACLE_TOL[mirror]


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 64 - 1), mirror=st.sampled_from(MIRRORS))
def test_stacked_overlap_equals_per_link_calls(n, seed, mirror):
    stack = haar_random_unitaries(np.random.default_rng(seed), n)
    got = pulse_pair_overlap(stack, mirror)
    assert got.shape == (n,)
    assert np.array_equal(got, [pulse_pair_overlap(u, mirror) for u in stack])
    want = np.array([oracle_overlap(u, mirror) for u in stack])
    assert np.abs(got - want).max() <= ORACLE_TOL[mirror]


@pytest.mark.parametrize("mirror", MIRRORS)
def test_stack_with_one_non_unitary_link_is_rejected(mirror):
    n = 8
    for k in range(n):
        stack = haar_random_unitaries(np.random.default_rng(k), n)
        stack[k] = np.diag([1.0, 1.0 + 1e-6])
        with pytest.raises(ValueError):
            pulse_pair_overlap(stack, mirror)


@pytest.mark.parametrize("mirror", MIRRORS)
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 0), (1, 1)])
@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(INF, 0.0), complex(-INF, 0.0),
                                 complex(0.0, math.nan)])
def test_stack_with_one_non_finite_entry_is_rejected(bad, at, mirror):
    stack = haar_random_unitaries(np.random.default_rng(3), 8)
    stack[5][at] = bad
    with pytest.raises(ValueError):
        pulse_pair_overlap(stack, mirror)


# sha256 of the samples' and the draws' bytes: a faster kernel must round
# every sample exactly as these did.
SAMPLE_DIGESTS = {
    "faraday": ("fe332724513a91b679eab6450d7020aa3339e7d6867825ce15dd3678316099de",
                "ecf3c4211c901d552d7649ce11d38cf8bffbbaee66edd1642ea14bc6d9fb1f33",
                "60e19006ad55027caacbcd964bed76602e83dc3dbdb8c85e123972ba3965e481"),
    "ordinary": ("6671ac0f04f8973adab9974861c62d47178bb95c2c6fc7dbaf3b7ff1a5bb9265",
                 "f5a76cd954cb5c92da3e2ef9fe76a65aa1f2b0ce0e2479aff954595bd46f3413",
                 "e20a43a4c7be46612806bd96480b1894eb9b3de95a8504d1c351f102606fc394"),
    "haar": ("fb911f53047816254f4ae3ee41e22ed41b2e7f6a83c508f9afe03023726da151",
             "7cdf6554a563a6ab027b4a1ed58fbeb66fcc1e664d03d47ce1024d716dc46e1a",
             "9cf5b478c03875c960a21195ddc91c3719f3976fa13399e734aa1ca320b2cf35"),
}


@pytest.mark.parametrize("seed", range(3))
def test_samples_and_draws_are_pinned_bit_for_bit(seed):
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    for mirror in MIRRORS:
        got = visibility_samples(1000, 30.0, np.random.default_rng(seed), mirror)
        assert digest(got) == SAMPLE_DIGESTS[mirror][seed], mirror
    assert digest(haar_random_unitaries(np.random.default_rng(seed), 1000)) == SAMPLE_DIGESTS["haar"][seed]


@pytest.mark.parametrize("mirror", MIRRORS)
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4, 4), (2,)])
def test_overlap_refuses_operands_that_are_not_2x2(shape, mirror):
    u = np.eye(*shape, dtype=complex) if len(shape) > 1 else HORIZONTAL
    with pytest.raises(ValueError, match="2x2"):
        pulse_pair_overlap(u, mirror)


@pytest.mark.parametrize("mirror", MIRRORS)
def test_overlap_of_an_empty_stack_is_empty(mirror):
    empty = haar_random_unitaries(np.random.default_rng(0), 0)
    assert pulse_pair_overlap(empty, mirror).shape == (0,)
    with pytest.raises(ValueError):
        visibility_samples(0, 30.0, np.random.default_rng(0), mirror)


@pytest.mark.parametrize("mirror", MIRRORS)
def test_visibility_samples_peak_memory_per_link(mirror):
    # The draw and the overlap drop their temporaries as they go: a warm call
    # peaked at 224.1 B per link, a cold one at 239.4 (Faraday) and 224.1
    # (ordinary); the cold extra is a fixed 0.77 MB.
    n = 50_000
    with traced_peak() as traced:
        visibility_samples(n, 30.0, np.random.default_rng(1), mirror)
    assert traced.peak / n <= 250


def test_effective_visibility_geometric_pairing():
    setup = SetupConfig()
    va = visibility_from_extinction_db(setup.alice_extinction_db)
    vb = visibility_from_extinction_db(setup.bob_extinction_db)
    assert effective_visibility(setup) == pytest.approx(math.sqrt(va * vb), abs=1e-15)
    # The paired destructive leakage is the per-setting average to first order.
    leak = (1.0 - effective_visibility(setup)) / 2.0
    assert abs(leak - er_opt_prediction(setup)) < 1e-6


def test_setup_validation():
    with pytest.raises(ConfigError):
        SetupConfig(line_loss_db=-1.0)
    with pytest.raises(ConfigError):
        SetupConfig(pulse_separation_s=1.0, round_trip_delay_s=0.5)
    with pytest.raises(ConfigError):
        SetupConfig(mu_pair=0.0)
    assert SetupConfig().post_alice_loss_db == pytest.approx(10.0, abs=1e-12)
