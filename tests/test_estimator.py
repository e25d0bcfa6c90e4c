import math

import numpy as np
import pytest

from uamsim.estimator import (ContactDetector, EnvEstimate, RlseConfig,
                              rlse_update, _lambda_max_2x2)


def make_cfg(**kw):
    return RlseConfig(**kw)


def synthetic_contact_trace(k_true, b_true, duration, dt, x_fs=0.0):
    """Noise-free penetration trace with persistently exciting rate."""
    t = np.arange(0.0, duration, dt)
    pen = 0.03 + 0.01 * np.sin(2.0 * np.pi * 0.8 * t) + 0.005 * np.sin(2.0 * np.pi * 2.3 * t)
    rate = np.gradient(pen, dt)
    x_f = x_fs + pen
    f_f = -k_true * pen - b_true * rate
    return t, x_f, rate, f_f


def test_zero_innovation_keeps_estimate():
    cfg = make_cfg()
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=100.0 * np.eye(2))
    # measurement consistent with the current estimate: eps = 0
    pen, rate = 0.02, 0.1
    f = -200.0 * pen - 0.5 * rate
    out = rlse_update(est, pen, rate, f, 0.0, cfg, 2e-3)
    assert out.k_hat == pytest.approx(200.0)
    assert out.b_hat == pytest.approx(0.5)
    # P still evolves through the mu terms
    assert not np.allclose(out.P, est.P)


def test_convergence_on_synthetic_trace():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    dt = 2e-3
    _, x_f, rate, f_f = synthetic_contact_trace(200.0, 0.5, 10.0, dt)
    e0 = abs(est.k_hat - 200.0)
    for i in range(len(x_f)):
        est = rlse_update(est, float(x_f[i]), float(rate[i]), float(f_f[i]),
                          0.0, cfg, dt)
    assert abs(est.k_hat - 200.0) / 200.0 < 0.01
    assert abs(est.b_hat - 0.5) / 0.5 < 0.05
    assert abs(est.k_hat - 200.0) < e0          # monotone improvement overall


def test_clamping_to_lower_bound():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    dt = 2e-3
    _, x_f, rate, f_f = synthetic_contact_trace(40.0, 0.5, 8.0, dt)
    for i in range(len(x_f)):
        est = rlse_update(est, float(x_f[i]), float(rate[i]), float(f_f[i]),
                          0.0, cfg, dt)
    assert est.k_hat == pytest.approx(cfg.k_min)


def test_covariance_cap_over_random_sequences():
    cfg = make_cfg(rho_M=5000.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        est = cfg.initial_estimate()
        for _ in range(3000):
            pen = rng.uniform(0.0, 0.05)
            rate = rng.uniform(-0.3, 0.3)
            f = -rng.uniform(50, 500) * pen - rng.uniform(0.1, 1.0) * rate
            est = rlse_update(est, pen, rate, f, 0.0, cfg, 2e-3)
            assert _lambda_max_2x2(est.P) <= cfg.rho_M + 1e-9
            assert abs(est.P[0, 1] - est.P[1, 0]) < 1e-10


def test_zero_regressor_keeps_theta():
    cfg = make_cfg()
    est = EnvEstimate(k_hat=123.0, b_hat=0.7, P=50.0 * np.eye(2))
    for _ in range(100):
        est = rlse_update(est, 0.0, 0.0, 0.0, 0.0, cfg, 2e-3)
    assert est.k_hat == pytest.approx(123.0)
    assert est.b_hat == pytest.approx(0.7)


def test_rejects_nonfinite():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    with pytest.raises(ValueError):
        rlse_update(est, math.nan, 0.0, 0.0, 0.0, cfg, 2e-3)
    with pytest.raises(ValueError):
        rlse_update(est, 0.0, 0.0, 0.0, 0.0, cfg, 0.0)


def test_initial_estimate_midpoint():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    assert est.k_hat == pytest.approx(275.0)
    assert est.b_hat == pytest.approx(0.55)
    assert np.allclose(est.P, 100.0 * np.eye(2))


def test_config_rejects_invalid_bounds():
    for kw in (dict(k_min=0.0), dict(k_min=600.0), dict(b_min=-0.1),
               dict(b_min=2.0)):
        with pytest.raises(ValueError):
            make_cfg(**kw)
    make_cfg(k_min=200.0, k_max=200.0, b_min=0.5, b_max=0.5)   # point box


# ---------------------------------------------------------------------------
# contact detector
# ---------------------------------------------------------------------------

def test_detector_debounce_three_samples():
    det = ContactDetector()
    assert not det.update(-0.5)
    assert not det.update(-0.5)
    assert det.update(-0.5)          # third consecutive loaded sample
    assert det.update(-0.02)         # single quiet sample does not release
    assert det.update(-0.5)
    det2 = ContactDetector(in_contact=True)
    assert det2.update(0.0)
    assert det2.update(0.0)
    assert not det2.update(0.0)


def test_detector_threshold():
    det = ContactDetector()
    for _ in range(10):
        det.update(-0.09)
    assert not det.in_contact
