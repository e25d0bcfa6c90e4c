import math

import numpy as np
import pytest

from uamsim.estimator import (ContactDetector, EnvEstimate, RlseConfig,
                              rlse_update)
from uamsim.scheduler import (PATTERN_SEARCH, GainBox, lambda_pair, schedule,
                              switched_params)
import tick_oracle
from estimator_reference import lambda_max_2x2
from switched_oracle import cycle_contraction


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
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=(100.0, 0.0, 100.0))
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
            assert lambda_max_2x2(est.P) <= cfg.rho_M + 1e-9
            p00, p01, p11 = est.P
            assert p00 > 0.0 and p00 * p11 - p01 * p01 > 0.0


def test_zero_regressor_keeps_theta():
    cfg = make_cfg()
    est = EnvEstimate(k_hat=123.0, b_hat=0.7, P=(50.0, 0.0, 50.0))
    for _ in range(100):
        est = rlse_update(est, 0.0, 0.0, 0.0, 0.0, cfg, 2e-3)
    assert est.k_hat == pytest.approx(123.0)
    assert est.b_hat == pytest.approx(0.7)


def test_update_matches_matrix_form():
    # the scalar update on the three floats of P must reproduce the RLSE
    # step written with numpy arrays within 1e-12 relative, including the
    # freeze and the clamping
    cfg = make_cfg(rho_M=300.0)
    rng = np.random.default_rng(8)
    frozen = 0
    for _ in range(500):
        A = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-2.0, 2.0)
        S = A @ A.T
        p00, p01, p11 = float(S[0, 0]), float(S[0, 1]), float(S[1, 1])
        P = np.array([[p00, p01], [p01, p11]])
        est = EnvEstimate(k_hat=rng.uniform(50.0, 500.0),
                          b_hat=rng.uniform(0.1, 1.0), P=(p00, p01, p11))
        x_f, x_dot_f, x_fs = rng.normal(size=3) * 0.05
        f_f, dt = rng.normal() * 5.0, rng.uniform(1e-4, 1e-2)
        out = rlse_update(est, x_f, x_dot_f, f_f, x_fs, cfg, dt)

        Y = np.array([-(x_f - x_fs), -x_dot_f])
        theta = np.array([est.k_hat, est.b_hat])
        PY = P @ Y
        theta = theta + dt * PY * (f_f - float(Y @ theta))
        P_new = P + dt * (cfg.mu1 * P - cfg.mu2 * np.outer(PY, PY))
        if lambda_max_2x2((P_new[0, 0], P_new[0, 1], P_new[1, 1])) > cfg.rho_M:
            P_new = P
            frozen += 1
            assert out.P is est.P
        assert out.k_hat == pytest.approx(min(max(theta[0], cfg.k_min), cfg.k_max),
                                          rel=1e-12, abs=0.0)
        assert out.b_hat == pytest.approx(min(max(theta[1], cfg.b_min), cfg.b_max),
                                          rel=1e-12, abs=0.0)
        assert P_new[0, 1] == P_new[1, 0]
        assert np.allclose(out.P, (P_new[0, 0], P_new[0, 1], P_new[1, 1]),
                           rtol=1e-12, atol=0.0)
    assert 0 < frozen < 500


def test_estimate_reaches_scheduler_log_path_near_critical_damping():
    # the update returns Python floats. At this estimate the contact mode of
    # the corner seed (k_f 0.1, b_f 40) is near critical damping, where the
    # power form of its contraction factor raises OverflowError and the
    # scheduler takes the log form (numpy float64 scalars would give inf)
    k_e, b_e, m_t = 74.84128427624456, 0.42624656341812006, 4.973329405993329
    cfg = make_cfg()
    est = EnvEstimate(k_hat=k_e, b_hat=b_e, P=(cfg.P0, 0.0, cfg.P0))
    out = rlse_update(est, 0.01, 0.0, 0.0, 0.01, cfg, 0.002)   # Y = 0
    assert type(out.k_hat) is float and type(out.b_hat) is float
    assert (out.k_hat, out.b_hat) == (k_e, b_e)

    sp = switched_params(23.5, 19.5, 0.1, 40.0, out.k_hat, out.b_hat, m_t)
    K, B = sp.K2, sp.B2
    dK, dB = sp.K1 - sp.K2, sp.B1 - sp.B2
    L = math.hypot(dK, dB)
    r = math.sqrt(B * B - 4.0 * K)
    la, lb = 0.5 * (-B - r), 0.5 * (-B + r)
    x_b = abs((dK * lb + K * dB) / (K * L))
    x_a = abs((dK * la + K * dB) / (K * L))
    with pytest.raises(OverflowError):
        x_b ** (la / (lb - la))
    log_form = math.exp((la * math.log(x_b) - lb * math.log(x_a)) / (lb - la))
    _, l2, prod = lambda_pair(sp)
    assert l2 == log_form
    assert prod == pytest.approx(cycle_contraction(sp.K1, sp.B1, sp.K2, sp.B2),
                                 rel=1e-9)

    res = schedule(23.5, 19.5, out.k_hat, out.b_hat, m_t, GainBox())
    assert res == schedule(23.5, 19.5, k_e, b_e, m_t, GainBox())
    assert res.provenance == PATTERN_SEARCH and math.isfinite(res.J)


def test_rejects_nonfinite():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    with pytest.raises(ValueError):
        rlse_update(est, math.nan, 0.0, 0.0, 0.0, cfg, 2e-3)
    # dt = NaN returned NaN estimates, and dt = inf an unfrozen infinite P
    for dt in (0.0, -0.0, -2e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            rlse_update(est, 0.01, -0.1, -2.0, 0.0, cfg, dt)


def test_initial_estimate_midpoint():
    cfg = make_cfg()
    est = cfg.initial_estimate()
    assert est.k_hat == pytest.approx(275.0)
    assert est.b_hat == pytest.approx(0.55)
    assert est.P == (100.0, 0.0, 100.0)


def test_config_rejects_invalid_bounds():
    for kw in (dict(k_min=0.0), dict(k_min=600.0), dict(b_min=-0.1),
               dict(b_min=2.0),
               # a cap below the prior P0*I that rlse_update cannot keep, a
               # covariance that is not positive, or a gain of the wrong sign
               dict(P0=0.0), dict(P0=-1.0), dict(rho_M=50.0), dict(rho_M=0.0),
               dict(mu1=-0.1), dict(mu2=0.0), dict(mu2=-1.0)):
        with pytest.raises(ValueError):
            make_cfg(**kw)
    # NaN and +-inf in any field, with a message that names it
    for name in ("mu1", "mu2", "rho_M", "k_min", "k_max", "b_min", "b_max", "P0"):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=name):
                make_cfg(**{name: x})
    with pytest.raises(ValueError, match="rho_M"):               # no NaN in P
        make_cfg(rho_M=math.inf, P0=math.inf)
    make_cfg(k_min=200.0, k_max=200.0, b_min=0.5, b_max=0.5)   # point box
    make_cfg(rho_M=100.0, P0=100.0, mu1=0.0)                    # edge values


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


def test_detector_rejects_invalid_parameters():
    # Scenario's rules: 0 <= threshold < inf, debounce an integer >= 1
    for threshold in (math.nan, math.inf, -math.inf, -0.1):
        with pytest.raises(ValueError, match="threshold"):
            ContactDetector(threshold=threshold)
    for debounce in (0, -2, 2.5, math.nan, math.inf, "3"):
        with pytest.raises(ValueError, match="debounce"):
            ContactDetector(debounce=debounce)
    det = ContactDetector(threshold=0.0, debounce=1)            # edge values
    assert not det.update(0.0) and det.update(1e-300)


def test_rlse_update_rejects_exactly_the_nonfinite_inputs():
    # the check written as comparisons accepts what math.isfinite accepts:
    # every combination of finite, NaN and infinite inputs, as floats,
    # ints and numpy scalars
    cfg = RlseConfig()
    est = cfg.initial_estimate()
    values = (0.01, -0.0, 0, np.float64(0.02), math.nan, math.inf, -math.inf,
              np.float64(math.nan), np.float64(-math.inf))
    rejected = 0
    for x_f in values:
        for x_dot_f in values:
            for f_f in values:
                for x_fs in values:
                    args = (x_f, x_dot_f, f_f, x_fs)
                    if tick_oracle.rlse_inputs_finite(*args):
                        rlse_update(est, *args, cfg, 2e-3)
                    else:
                        rejected += 1
                        with pytest.raises(ValueError,
                                           match="non-finite estimator inputs"):
                            rlse_update(est, *args, cfg, 2e-3)
    assert 0 < rejected < len(values) ** 4
