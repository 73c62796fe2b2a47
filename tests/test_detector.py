import math

import numpy as np
import pytest

from fmqkd.detector import (
    GatedDetectorConfig,
    click_probability,
    er_det_analytic,
    gate_many,
)
from fmqkd.errors import ConfigError, UndefinedRateError


def closed_form(mu_eff, eta, dark):
    # Independent evaluation of the gate-fire probability.
    return 1.0 - (1.0 - dark) * math.exp(-eta * mu_eff)


def test_dark_counts_only_at_zero_intensity():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    assert click_probability(0.0, cfg) == pytest.approx(7e-6, abs=1e-18)


def test_no_noise_no_efficiency_never_clicks():
    cfg = GatedDetectorConfig(efficiency=0.0, dark_prob_per_gate=0.0)
    assert click_probability(5.0, cfg) == 0.0


def test_click_probability_hand_value():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    p = click_probability(0.01, cfg)
    assert abs(p - 1.00649e-3) < 1e-8
    assert p == pytest.approx(closed_form(0.01, 0.1, 7e-6), abs=1e-15)


def test_click_probability_rejects_negative_intensity():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=0.0)
    with pytest.raises(ValueError):
        click_probability(-1e-9, cfg)


def test_click_probability_monotone_and_bounded():
    mus = np.linspace(0.0, 50.0, 200)
    for eta in (0.0, 0.1, 0.5, 1.0):
        for dark in (0.0, 7e-6, 0.01, 1.0):
            cfg = GatedDetectorConfig(efficiency=eta, dark_prob_per_gate=dark)
            p = click_probability(mus, cfg)
            assert np.all(np.diff(p) >= -1e-15)
            assert np.all((p >= 0.0) & (p <= 1.0))
    # Monotone in eta and dark as well.
    base = click_probability(0.5, GatedDetectorConfig(0.1, 1e-5))
    assert click_probability(0.5, GatedDetectorConfig(0.2, 1e-5)) > base
    assert click_probability(0.5, GatedDetectorConfig(0.1, 1e-4)) > base


def test_click_probability_of_an_array_is_its_scalar_calls():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    mus = np.random.default_rng(5).uniform(0.0, 2.0, 1000)
    p = click_probability(mus, cfg)
    assert p.shape == mus.shape
    assert p.tolist() == [click_probability(mu, cfg) for mu in mus.tolist()]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-9])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_click_probability_refuses_a_bad_entry_anywhere(bad, at):
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    mus = np.full(10, 0.5)
    mus[at] = bad
    with pytest.raises(ValueError):
        click_probability(mus, cfg)
    with pytest.raises(ValueError):
        click_probability(bad, cfg)


def test_linear_regime_approximation():
    for eta, dark in ((0.1, 7e-6), (0.2, 22e-6), (1.0, 0.0)):
        cfg = GatedDetectorConfig(efficiency=eta, dark_prob_per_gate=dark)
        for mu in (1e-6, 1e-4, 9e-4 / eta if eta else 1e-4):
            if eta * mu >= 1e-3:
                continue
            exact = click_probability(mu, cfg)
            approx = dark + eta * mu
            if exact > 0.0:
                assert abs(approx - exact) / exact < 1e-3


def test_gate_frequency_matches_probability():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    mu = 0.05
    p = click_probability(mu, cfg)
    n = 1_000_000
    clicks = gate_many(np.full(n, mu), cfg, np.random.default_rng(31))
    freq = clicks.mean()
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(freq - p) < 3.0 * sigma


def test_er_det_reference_values():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    er_01 = er_det_analytic(0.1, 10.0, cfg)
    er_02 = er_det_analytic(0.2, 10.0, cfg)
    # Oracle: closed-form evaluation assembled independently here.
    p_sig = closed_form(0.1 * 0.1, 0.1, 7e-6)
    p_err = closed_form(0.0, 0.1, 7e-6)
    assert er_01 == pytest.approx(p_err / (p_sig + p_err), abs=1e-12)
    assert abs(er_01 - 0.0069068) < 1e-6
    assert abs(er_02 - 0.0034790) < 1e-6


def test_er_det_zero_without_noise():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=0.0)
    assert er_det_analytic(0.1, 10.0, cfg) == 0.0


def test_er_det_monotonicity():
    cfg = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=7e-6)
    ers = [er_det_analytic(mu, 10.0, cfg) for mu in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(ers, ers[1:]))
    darker = GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=2e-5)
    assert er_det_analytic(0.1, 10.0, darker) > er_det_analytic(0.1, 10.0, cfg)


def test_efficiency_tradeoff_favors_low_dark_counts():
    fast = GatedDetectorConfig(efficiency=0.20, dark_prob_per_gate=22e-6)
    quiet = GatedDetectorConfig(efficiency=0.10, dark_prob_per_gate=7e-6)
    ratio = er_det_analytic(0.1, 10.0, quiet) / er_det_analytic(0.1, 10.0, fast)
    assert ratio < 1.0


def test_er_det_undefined_when_both_ports_dark():
    cfg = GatedDetectorConfig(efficiency=0.0, dark_prob_per_gate=0.0)
    with pytest.raises(UndefinedRateError):
        er_det_analytic(0.1, 10.0, cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        GatedDetectorConfig(efficiency=1.5, dark_prob_per_gate=0.0)
    with pytest.raises(ConfigError):
        GatedDetectorConfig(efficiency=0.1, dark_prob_per_gate=-1e-9)
