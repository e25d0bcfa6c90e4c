import math

import numpy as np
import pytest

from uamsim.estimator import EnvEstimate
from uamsim.reference import (CONTACT, FREE, ReferenceState, contact_step,
                              free_step, switch_mode)

WN = 10.0
DT = 2e-3


def test_free_equilibrium_is_fixed_point():
    ref = ReferenceState(x_fr=0.3, x_mr=[0.1, -0.2])
    out = free_step(ref, 0.3, [0.1, -0.2], WN, DT)
    assert out.x_fr == pytest.approx(0.3, abs=1e-15)
    assert out.x_fr_dot == pytest.approx(0.0, abs=1e-15)


def test_free_step_critically_damped_closed_form():
    ref = ReferenceState()
    xs = []
    n = 1000
    for _ in range(n):
        ref = free_step(ref, 1.0, [0.0, 0.0], WN, DT)
        xs.append(ref.x_fr)
    ts = DT * np.arange(1, n + 1)
    expected = 1.0 - (1.0 + WN * ts) * np.exp(-WN * ts)
    assert np.allclose(xs, expected, atol=1e-7)
    # never overshoots a monotone setpoint
    assert max(xs) <= 1.0 + 1e-6


def test_free_step_axis_decoupling():
    ref = ReferenceState(x_mr=[0.0, 0.5])
    for _ in range(200):
        ref = free_step(ref, 0.0, [1.0, 0.5], WN, DT)
    assert ref.x_mr[1] == pytest.approx(0.5, abs=1e-12)
    assert ref.x_mr[0] > 0.1


def test_free_mode_forces_zero_force_reference():
    ref = ReferenceState(f_fr=0.0)
    out = free_step(ref, 1.0, [0.0, 0.0], WN, DT)
    assert out.f_fr == 0.0


def test_contact_equilibrium():
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    ref = ReferenceState(x_fr=1.0, f_fr=-6.0, mode=CONTACT)
    out = contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)
    assert out.f_fr == pytest.approx(-6.0, abs=1e-12)
    assert out.x_fr == pytest.approx(1.0, abs=1e-12)


def test_contact_force_step_settles():
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    ref = ReferenceState(x_fr=1.0, mode=CONTACT)
    t = 0.0
    while t < 1.5:
        ref = contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)
        t += DT
    assert abs(ref.f_fr - (-6.0)) < 1e-3


def test_contact_consistency_with_estimated_stiffness():
    # steady contact: the position reference drifts into the surface exactly
    # enough to sustain the force through the estimated stiffness
    est = EnvEstimate(k_hat=150.0, b_hat=0.4, P=np.eye(2))
    x_latch = 1.0
    ref = ReferenceState(x_fr=x_latch, mode=CONTACT)
    t = 0.0
    while t < 6.0:
        ref = contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)
        t += DT
    assert est.k_hat * (ref.x_fr - x_latch) == pytest.approx(6.0, rel=0.02)
    assert abs(ref.x_fr_dot) < 1e-4


def test_contact_step_derivative_consistency():
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    ref = ReferenceState(x_fr=1.0, mode=CONTACT)
    for _ in range(50):
        ref = contact_step(ref, -3.0, [0.1, 0.0], est, WN, DT)
    resid = ref.x_fr_ddot - (-(est.k_hat / est.b_hat) * ref.x_fr_dot
                             - ref.f_fr_dot / est.b_hat)
    assert abs(resid) < 1e-8


def test_contact_step_stable_at_extreme_estimates():
    # fastest admissible pole: k_hat/b_hat = 5000 1/s; the substepping must
    # keep the integration stable at the controller rate
    est = EnvEstimate(k_hat=500.0, b_hat=0.1, P=np.eye(2))
    ref = ReferenceState(x_fr=0.0, mode=CONTACT)
    for _ in range(2500):
        ref = contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)
    assert abs(ref.f_fr + 6.0) < 1e-6
    assert abs(ref.x_fr) < 1.0


def test_contact_step_rejects_nonpositive_damping_estimate():
    ref = ReferenceState(mode=CONTACT)
    for b_hat in (0.0, -0.5):
        est = EnvEstimate(k_hat=200.0, b_hat=b_hat, P=np.eye(2))
        with pytest.raises(ValueError):
            contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)


def test_switch_modes_continuous_and_round_trip():
    ref = ReferenceState(x_fr=0.7, x_fr_dot=-0.1, x_mr=[0.2, 0.3], mode=FREE)
    c = switch_mode(ref, CONTACT, f_f_measured=-0.5)
    assert c.mode == CONTACT
    assert c.f_fr == pytest.approx(-0.5)
    assert c.f_fr_dot == 0.0
    assert c.x_fr == pytest.approx(0.7, abs=1e-15)
    assert c.x_fr_dot == pytest.approx(-0.1, abs=1e-15)
    back = switch_mode(c, FREE)
    assert back.mode == FREE
    assert back.f_fr == 0.0
    assert back.x_fr == pytest.approx(0.7, abs=1e-15)


def test_switch_same_mode_rejected():
    ref = ReferenceState()
    with pytest.raises(ValueError):
        switch_mode(ref, FREE)


def test_bounded_setpoints_give_bounded_references():
    rng = np.random.default_rng(4)
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    ref = ReferenceState(mode=FREE)
    for i in range(4000):
        x_fd = float(rng.uniform(-1.0, 1.0))
        x_md = rng.uniform(-1.0, 1.0, 2)
        if i % 500 == 250:
            ref = switch_mode(ref, CONTACT if ref.mode == FREE else FREE,
                              f_f_measured=-1.0)
        if ref.mode == FREE:
            ref = free_step(ref, x_fd, x_md, WN, DT)
        else:
            ref = contact_step(ref, float(rng.uniform(-8.0, 0.0)), x_md, est,
                               WN, DT)
        vals = [ref.x_fr, ref.x_fr_dot, ref.x_fr_ddot, ref.f_fr, ref.f_fr_dot]
        assert all(math.isfinite(v) for v in vals)
        assert abs(ref.f_fr) < 20.0
        assert np.all(np.abs(ref.x_mr) < 5.0)
