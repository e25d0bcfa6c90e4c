import math

import numpy as np
import pytest
from scipy.linalg import expm

from uamsim.estimator import EnvEstimate
from uamsim.reference import (CONTACT, FREE, ReferenceState, _phi12,
                              contact_step, free_step, switch_mode)

import tick_oracle
from plant_reference import draw, rk4

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
    # fastest admissible pole: k_hat/b_hat = 5000 1/s, ten times the
    # controller rate; the exact step is stable at any pole
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


def test_steps_reject_wrong_mode_and_nonpositive_omega_n():
    free, contact = ReferenceState(mode=FREE), ReferenceState(mode=CONTACT)
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    with pytest.raises(ValueError, match="free mode"):
        free_step(contact, 0.5, [0.0, 0.0], WN, DT)
    with pytest.raises(ValueError, match="contact mode"):
        contact_step(free, -6.0, [0.0, 0.0], est, WN, DT)
    for wn in (0.0, -1.0):
        with pytest.raises(ValueError, match="omega_n"):
            free_step(free, 0.5, [0.0, 0.0], wn, DT)
        with pytest.raises(ValueError, match="omega_n"):
            contact_step(contact, -6.0, [0.0, 0.0], est, wn, DT)


def generic_track(x, v, target, wn, dt):
    # one generic rk4 step of x'' = -2 wn x' - wn^2 (x - target), all axes at once
    n = len(x)

    def f(t, y):
        return y[n:] + [-2.0 * wn * vv - wn * wn * (xx - c)
                        for xx, vv, c in zip(y, y[n:], target)]

    y = rk4(f, 0.0, list(x) + list(v), dt)
    acc = [-2.0 * wn * vv - wn ** 2 * (xx - c)
           for xx, vv, c in zip(y[:n], y[n:], target)]
    return y[:n], y[n:], acc


def expm_step(A, y0, dt):
    """expm(A dt) y0 and, per component, the sum of the magnitudes of the
    terms it adds up: the scale that a relative error is taken against."""
    M = expm(A * dt)
    return M @ y0, np.abs(M) @ np.abs(y0)


def tracker_system(wn):
    # y = [x, x', target]: the tracker with its setpoint as a constant state
    return np.array([[0.0, 1.0, 0.0], [-wn * wn, -2.0 * wn, wn * wn],
                     [0.0, 0.0, 0.0]])


def contact_system(kb, inv_b, wn):
    # y = [f, f', x, x', f_fd], the Van Loan form of the forced generator
    A = np.zeros((5, 5))
    A[0, 1] = A[2, 3] = 1.0
    A[1, :2], A[1, 4] = (-wn * wn, -2.0 * wn), wn * wn
    A[3, 1], A[3, 3] = -inv_b, -kb
    return A


def within_rk4_error(y_exact, y_n, y_2n, scale):
    # the step-doubling estimate of RK4's error, |y_n - y_2n| ~ 15/16 of
    # y_n's error, with a factor 2 to spare; the floor covers rounding
    for e, a, b, s in zip(y_exact, y_n, y_2n, scale):
        assert abs(e - a) <= 2.0 * abs(a - b) + 1e-12 * s


def test_free_step_matches_expm_and_rk4():
    # the closed-form tracker is the exact solution of the linear system:
    # expm of it within 1e-12 relative, and RK4 within RK4's own error
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, v, target = draw(rng, (3, 3)).tolist()
        wn = rng.uniform(1.0, 30.0)
        ref = ReferenceState(x_fr=x[0], x_fr_dot=v[0], x_mr=x[1:], x_mr_dot=v[1:])
        out = free_step(ref, target[0], target[1:], wn, DT)
        xs, vs = [out.x_fr, *out.x_mr], [out.x_fr_dot, *out.x_mr_dot]
        steps = [expm_step(tracker_system(wn), np.array(y0), DT)
                 for y0 in zip(x, v, target)]
        for a, (exact, scale) in zip(zip(xs, vs), steps):
            for a_i, e_i, s_i in zip(a, exact, scale):
                assert abs(a_i - e_i) <= 1e-12 * s_i
        assert [out.x_fr_ddot, *out.x_mr_ddot] == [
            -2.0 * wn * vv - wn * wn * (xx - c) for xx, vv, c in zip(xs, vs, target)]
        y_1 = generic_track(x, v, target, wn, DT)
        y_2 = generic_track(*generic_track(x, v, target, wn, DT / 2)[:2], target,
                            wn, DT / 2)
        within_rk4_error(xs + vs, y_1[0] + y_1[1], y_2[0] + y_2[1],
                         [s[0] for _, s in steps] + [s[1] for _, s in steps])


def test_contact_step_matches_expm_and_rk4():
    # the exact step of y' = [f', -2 wn f' - wn^2 (f - f_fd), x', -(k/b) x' - f'/b]
    # agrees with expm within 1e-12 relative, at the double pole k/b = wn
    # and next to it as well, and with the substepped RK4 it replaced within
    # RK4's own error
    rng = np.random.default_rng(6)
    draws = []
    for n_sub in range(1, 11):
        for _ in range(20):
            b_hat = rng.uniform(0.1, 1.0)
            # k_hat/b_hat from 2.5 to 2500, the range of n_sub = 1..10 RK4 substeps
            draws.append((b_hat * (n_sub - rng.uniform(0.0, 0.99)) * 0.5 / DT,
                          b_hat, rng.uniform(1.0, 30.0)))
    for _ in range(20):
        b_hat, wn = rng.uniform(0.1, 1.0), rng.uniform(1.0, 30.0)
        near = wn * (1.0 + rng.uniform(-1e-9, 1e-9))
        draws += [(b_hat * wn, b_hat, wn), (b_hat * near, b_hat, wn),
                  (b_hat * 5000.0, b_hat, wn)]
    for k_hat, b_hat, wn in draws:
        f_fd = rng.uniform(-10.0, 0.0)
        f, fd, x, v = draw(rng, 4).tolist()
        xm, vm, x_md = draw(rng, (3, 2)).tolist()
        ref = ReferenceState(x_fr=x, x_fr_dot=v, f_fr=f, f_fr_dot=fd,
                             x_mr=xm, x_mr_dot=vm, mode=CONTACT)
        out = contact_step(ref, f_fd, x_md,
                           EnvEstimate(k_hat=k_hat, b_hat=b_hat, P=np.eye(2)),
                           wn, DT)
        y = [out.f_fr, out.f_fr_dot, out.x_fr, out.x_fr_dot]

        kb, inv_b = k_hat / b_hat, 1.0 / b_hat
        exact, scale = expm_step(contact_system(kb, inv_b, wn),
                                 np.array([f, fd, x, v, f_fd]), DT)
        for a, e, s in zip(y, exact, scale):
            assert abs(a - e) <= 1e-12 * s
        assert out.x_fr_ddot == -kb * out.x_fr_dot - out.f_fr_dot / b_hat

        def deriv(t, y):
            ff, ffd, xx, vv = y
            fdd = -2.0 * wn * ffd - wn ** 2 * (ff - f_fd)
            return [ffd, fdd, vv, -kb * vv - inv_b * ffd]

        def substepped(m):
            y_rk = [f, fd, x, v]
            for _ in range(m):
                y_rk = rk4(deriv, 0.0, y_rk, DT / m)
            return y_rk

        m = max(1, math.ceil(kb * DT / 0.5))
        within_rk4_error(y, substepped(m), substepped(2 * m), scale)
        free = free_step(ReferenceState(x_mr=xm, x_mr_dot=vm), 0.0, x_md, wn, DT)
        assert (out.x_mr, out.x_mr_dot, out.x_mr_ddot) == (
            free.x_mr, free.x_mr_dot, free.x_mr_ddot)


def test_contact_step_rejects_nonpositive_stiffness_estimate():
    # a negative k_hat would make the position reference's pole unstable
    ref = ReferenceState(mode=CONTACT)
    for k_hat in (0.0, -200.0, math.nan):
        est = EnvEstimate(k_hat=k_hat, b_hat=0.5, P=np.eye(2))
        with pytest.raises(ValueError, match="k_hat"):
            contact_step(ref, -6.0, [0.0, 0.0], est, WN, DT)


def test_steps_give_float_tuples_and_check_setpoint_length():
    # the motion-plane references are tuples of two Python floats; the
    # constructor converts arrays, and every entry point rejects other sizes
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    ref = ReferenceState(x_fr=0.3, x_mr=np.array([0.1, -0.2]), x_mr_dot=[1, 2])
    assert ref.x_mr == (0.1, -0.2) and ref.x_mr_dot == (1.0, 2.0)
    assert ref.x_mr_ddot == (0.0, 0.0)
    contact = switch_mode(ref, CONTACT, -1.0)
    for out in (free_step(ref, 0.5, np.array([0.2, 0.1]), 10.0, DT),
                contact_step(contact, -2.0, [0.2, 0.1], est, 10.0, DT), contact):
        for v in (out.x_mr, out.x_mr_dot, out.x_mr_ddot):
            assert type(v) is tuple and len(v) == 2
            assert all(type(x) is float for x in v)
    with pytest.raises(ValueError):
        free_step(ref, 0.5, (0.2, 0.1, 0.0), 10.0, DT)
    with pytest.raises(ValueError):
        contact_step(contact, -2.0, np.zeros(3), est, 10.0, DT)
    for bad in (dict(x_mr=(1.0,)), dict(x_mr_dot=np.zeros(3)),
                dict(x_mr_ddot=[1.0, 2.0, 3.0])):
        with pytest.raises(ValueError):
            ReferenceState(**bad)
    with pytest.raises(ValueError):
        ReferenceState(x_fr=0.0, x_mr=(0.0, 0.0, 0.0))


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
    with pytest.raises(ValueError, match="unknown mode"):
        switch_mode(ref, "hover")


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


def bits(fields) -> list:
    """The nine fields of a reference, in order, with each float as a hex
    string, which tells -0.0 from +0.0."""
    x, xd, xdd, f, fd, xm, xmd, xmdd, mode = fields
    return [float(v).hex() for v in (x, xd, xdd, f, fd, *xm, *xmd, *xmdd)] + [mode]


def fields(r: ReferenceState) -> tuple:
    return (r.x_fr, r.x_fr_dot, r.x_fr_ddot, r.f_fr, r.f_fr_dot, r.x_mr,
            r.x_mr_dot, r.x_mr_ddot, r.mode)


def test_phi12_equals_the_generator_sum_bit_for_bit():
    # the Taylor sum written out term by term adds the same terms in the
    # same order as the generator: at zero of either sign, at subnormals,
    # on both sides of the |z| = 0.2 switch and on seeded draws
    tiny, normal = 5e-324, 2.2250738585072014e-308
    zs = [0.0, -0.0, tiny, -tiny, 3 * tiny, 1e-310, -1e-310, normal, -normal,
          1e-160, -1e-160, 1e-16, 0.2, -0.2, math.nextafter(0.2, 0.0),
          math.nextafter(-0.2, 0.0), math.nextafter(0.2, 1.0),
          math.nextafter(-0.2, -1.0), math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(25)
    zs += rng.uniform(-0.3, 0.3, 2000).tolist()
    zs += (rng.choice((-1.0, 1.0), 2000)
           * 10.0 ** rng.uniform(-323.0, 0.0, 2000)).tolist()
    assert sum(z != 0.0 and abs(z) < normal for z in zs) > 100   # subnormals
    for z in zs:
        got, want = _phi12(z), tick_oracle.phi12(z)
        assert [v.hex() for v in got] == [v.hex() for v in want], z


def test_steps_equal_the_looped_tracker_bit_for_bit():
    # free_step and contact_step step each axis with straight-line code;
    # on seeded draws, zeros of either sign among them, they must give the
    # fields of the looped tracker exactly, for a setpoint given as a tuple,
    # a list, an ndarray or numpy scalars, and in contact on both of
    # _phi12's branches
    rng = np.random.default_rng(26)

    def value():
        return (rng.normal() * 10.0 ** rng.uniform(-6.0, 1.0), 0.0,
                -0.0)[rng.choice(3, p=(0.8, 0.1, 0.1))]

    def pair():
        return (value(), value())

    containers = (tuple, list, np.array, lambda v: tuple(map(np.float64, v)))
    taylor = 0
    for i in range(2000):
        wn = rng.uniform(1.0, 60.0)
        dt = (2e-3, 1e-3, rng.uniform(1e-4, 1e-2))[i % 3]
        x_md = containers[i % 4](pair())
        ref = ReferenceState(x_fr=value(), x_fr_dot=value(), x_fr_ddot=value(),
                             x_mr=pair(), x_mr_dot=pair(), x_mr_ddot=pair())
        x_fd = value()
        assert (bits(fields(free_step(ref, x_fd, x_md, wn, dt)))
                == bits(tick_oracle.free_step(ref, x_fd, x_md, wn, dt)))

        ref = ReferenceState(x_fr=value(), x_fr_dot=value(), f_fr=value(),
                             f_fr_dot=value(), x_mr=pair(), x_mr_dot=pair(),
                             mode=CONTACT)
        k_hat = rng.uniform(50.0, 500.0)
        if i % 2:           # k/b within 0.25/dt of omega_n: the Taylor sum
            z = rng.uniform(-0.25, min(0.25, 0.9 * wn * dt))
            b_hat = k_hat / (wn - z / dt)
        else:
            b_hat = rng.uniform(0.1, 1.0)
        taylor += abs((wn - k_hat / b_hat) * dt) < 0.2
        est = EnvEstimate(k_hat=k_hat, b_hat=b_hat, P=np.eye(2))
        f_fd = value()
        assert (bits(fields(contact_step(ref, f_fd, x_md, est, wn, dt)))
                == bits(tick_oracle.contact_step(ref, f_fd, x_md, est, wn, dt)))
    assert taylor > 600


def test_steps_reject_what_the_looped_tracker_rejects():
    # the same ValueError, with the same message, for a setpoint of another
    # size, a wrong mode and a nonpositive omega_n
    est = EnvEstimate(k_hat=200.0, b_hat=0.5, P=np.eye(2))
    free, contact = ReferenceState(), ReferenceState(mode=CONTACT)
    cases = [(free_step, tick_oracle.free_step, free, 0.5),
             (contact_step, tick_oracle.contact_step, contact, -2.0)]
    for new, old, ref, target in cases:
        other = contact if ref is free else free
        for r, x_md, wn in ((ref, (0.1,), WN), (ref, np.zeros(3), WN),
                            (ref, [], WN), (other, (0.1, 0.2), WN),
                            (ref, (0.1, 0.2), 0.0), (ref, (0.1, 0.2), -1.0)):
            args = (r, target, x_md) + ((est,) if new is contact_step else ())
            with pytest.raises(ValueError) as want:
                old(*args, wn, DT)
            with pytest.raises(ValueError, match=str(want.value)):
                new(*args, wn, DT)
