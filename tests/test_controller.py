import dataclasses
import math

import numpy as np
import pytest

from uamsim import controller as ctl
from uamsim import estimator as estm
from uamsim.controller import (DOBState, GainSet, InfeasibleInput, compose_u,
                               control_force, control_motion, dob_estimates,
                               dob_update, extract_inputs, invert_inputs)
from uamsim.estimator import RlseConfig, rlse_update
from uamsim.plant import Measurement, PlantConfig, PlantState, SurfaceModel, measure
from uamsim.reference import ReferenceState

from plant_reference import E3, draw, rotation


def vertical_surface():
    return SurfaceModel.from_tilt(0.0, p_s=(1.0, 0.0, 1.5))


def tilted_surface():
    return SurfaceModel.from_tilt(30.0, p_s=(1.0, 0.0, 1.5))


def meas_at(x_f=0.0, x_dot_f=0.0, x_m=(0.0, 0.0), x_dot_m=(0.0, 0.0), f_f=0.0):
    return Measurement(x_f=x_f, x_dot_f=x_dot_f, x_m=np.asarray(x_m, float),
                       x_dot_m=np.asarray(x_dot_m, float), f_f=f_f)


# ---------------------------------------------------------------------------
# disturbance observers
# ---------------------------------------------------------------------------

def test_dob_constant_disturbance_matches_closed_form():
    # constant-velocity drift under a constant disturbance with the
    # balancing input held: every observer input is constant, so the
    # estimation error must follow e(t) = e(0) exp(-L_f t) exactly
    s = vertical_surface()
    g = GainSet(m_bar=4.2, L_f=10.0)
    D = 2.0
    v0 = 0.3
    u_f = g.m_bar * g.g_bar * float(s.B_f @ E3) - D
    dt = 2e-3
    dob = DOBState()
    m = meas_at(x_dot_f=v0)
    e0 = (dob.z_f + g.m_bar * g.L_f * v0) - D
    errs = []
    for k in range(300):
        d_f, _ = dob_estimates(dob, m, g)
        dob = dob_update(dob, m, u_f, np.zeros(2), g, s, False, dt)
        errs.append(d_f - D)
    ts = dt * np.arange(300)
    expected = e0 * np.exp(-g.L_f * ts)
    assert np.allclose(errs, expected, atol=1e-6)
    # below 1% of e(0) by t = 0.461 s
    k461 = math.ceil(0.461 / dt)
    assert abs(errs[k461]) < 0.01 * abs(e0)


def test_dob_zero_disturbance_hover_stays_zero():
    s = vertical_surface()
    g = GainSet(m_bar=4.2)
    u_f = g.m_bar * g.g_bar * float(s.B_f @ E3)
    dob = DOBState()
    m = meas_at()
    for _ in range(100):
        d_f, d_m = dob_estimates(dob, m, g)
        dob = dob_update(dob, m, u_f, g.m_bar * g.g_bar * (s.B_m.T @ E3),
                         g, s, False, 2e-3)
    assert d_f == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(d_m, 0.0, atol=1e-12)


def test_dob_ramp_disturbance_steady_error():
    # ramp disturbance slope c: steady estimation error magnitude c / L_f
    s = vertical_surface()
    g = GainSet(m_bar=4.2, L_f=10.0)
    c = 1.5
    dt = 5e-5
    u_f = g.m_bar * g.g_bar * float(s.B_f @ E3)
    dob = DOBState()
    err = None
    for k in range(30000):                     # 1.5 s, transient long gone
        t = k * dt
        m = meas_at(x_dot_f=c * t * t / (2.0 * g.m_bar))
        d_f, _ = dob_estimates(dob, m, g)
        dob = dob_update(dob, m, u_f, np.zeros(2), g, s, False, dt)
        err = d_f - c * t
    assert abs(abs(err) - c / g.L_f) < 0.01 * (c / g.L_f)


def test_dob_motion_space_decay_matches_matrix_closed_form():
    # constant motion-space disturbance with balancing input: the error
    # vector follows exp(-L_m t) e(0) on both tangent axes
    s = vertical_surface()
    L_m = 8.0
    g = GainSet(m_bar=4.2, L_m=L_m)
    D = np.array([1.5, -0.8])
    v0 = np.array([0.1, 0.2])
    u_m = g.m_bar * g.g_bar * (s.B_m.T @ E3) - D
    dt = 2e-3
    dob = DOBState()
    m = meas_at(x_dot_m=v0)
    e0 = g.m_bar * L_m * v0 - D
    for k in range(250):
        _, d_m = dob_estimates(dob, m, g)
        dob = dob_update(dob, m, 0.0, u_m, g, s, False, dt)
        expected = np.exp(-L_m * k * dt) * e0
        assert np.allclose(d_m - D, expected, atol=1e-9)


def test_dob_force_term_only_in_contact():
    s = vertical_surface()
    g = GainSet(m_bar=4.2)
    m = meas_at(f_f=-5.0)
    d1 = dob_update(DOBState(), m, 0.0, np.zeros(2), g, s, True, 2e-3)
    d2 = dob_update(DOBState(), m, 0.0, np.zeros(2), g, s, False, 2e-3)
    assert d1.z_f != d2.z_f


def test_dob_and_motion_law_equal_numpy_forms_bit_for_bit():
    # the float arithmetic of the observers and the motion law must give
    # exactly what their numpy vector forms give, and the extraction within
    # 1e-12 relative of its form with the matrix Psi
    rng = np.random.default_rng(21)
    for i in range(500):
        s = SurfaceModel.from_tilt(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        g = GainSet(k_p=rng.uniform(1.0, 50.0), k_d=rng.uniform(1.0, 50.0),
                    K_mp=rng.uniform(1.0, 50.0), K_md=rng.uniform(1.0, 50.0),
                    L_f=rng.uniform(1.0, 30.0), L_m=rng.uniform(1.0, 30.0),
                    m_bar=rng.uniform(2.0, 6.0), g_bar=rng.uniform(9.7, 9.9))
        x_f, x_dot_f, f_f, z_f, u_f = draw(rng, 5).tolist()
        x_m, x_dot_m, z_m, u_m, d_m = draw(rng, (5, 2))
        m = Measurement(x_f=x_f, x_dot_f=x_dot_f, x_m=x_m, x_dot_m=x_dot_m, f_f=f_f)
        dob = DOBState(z_f=z_f, z_m=tuple(z_m.tolist()))
        in_contact, dt = i % 2 == 0, rng.uniform(1e-4, 1e-2)

        d_f, d_m_hat = dob_estimates(dob, m, g)
        assert d_f == z_f + g.m_bar * g.L_f * x_dot_f
        assert list(d_m_hat) == (z_m + g.m_bar * (g.L_m * x_dot_m)).tolist()

        new = dob_update(dob, m, u_f, u_m, g, s, in_contact, dt)
        s_f = (g.m_bar * g.g_bar * float(s.B_f[2]) - (f_f if in_contact else 0.0)
               - u_f - g.m_bar * g.L_f * x_dot_f)
        a = math.exp(-g.L_f * dt)
        assert new.z_f == a * z_f + (1.0 - a) * s_f
        s_m = g.m_bar * g.g_bar * s.B_m[2] - u_m - g.m_bar * (g.L_m * x_dot_m)
        b = math.exp(-g.L_m * dt)
        assert list(new.z_m) == (b * z_m + (1.0 - b) * s_m).tolist()

        ref = ReferenceState(x_mr=draw(rng, 2), x_mr_dot=draw(rng, 2),
                             x_mr_ddot=draw(rng, 2))
        u = (g.m_bar * np.asarray(ref.x_mr_ddot)
             + g.K_md * (np.asarray(ref.x_mr_dot) - x_dot_m)
             + g.K_mp * (np.asarray(ref.x_mr) - x_m)
             + g.m_bar * g.g_bar * s.B_m[2] - d_m)
        assert list(control_motion(ref, m, d_m, g, s)) == u.tolist()

        phi = rng.uniform(-1.2, 1.2, 3)
        u_e = np.array([*draw(rng, 2), rng.uniform(1.0, 80.0)])
        c, sn = math.cos(phi[2]), math.sin(phi[2])
        a = np.array([[c, sn, 0.0], [sn, -c, 0.0], [0.0, 0.0, 1.0]]) @ u_e
        T = a[2] / (math.cos(phi[0]) * math.cos(phi[1]))
        try:
            out = extract_inputs(u_e, phi)
        except InfeasibleInput:
            assert abs(a[1] / T) > 1.0 or abs(a[0] / (T * math.cos(phi[0]))) > 1.0
            continue
        assert out == pytest.approx(
            (T, math.asin(a[1] / T), math.asin(a[0] / (T * math.cos(phi[0])))),
            rel=1e-12, abs=0.0)


def test_tick_calls_return_python_floats():
    # measure, compose_u, extract_inputs, invert_inputs and rlse_update work
    # on floats and hand on floats or tuples of them; EnvEstimate.P is the
    # three floats (P00, P01, P11). The projections agree with their matrix forms within 1e-12 m
    # (noise-free)
    rng = np.random.default_rng(41)
    cfg, rcfg = PlantConfig(), RlseConfig()
    est = rcfg.initial_estimate()
    for _ in range(200):
        s = SurfaceModel.from_tilt(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0))
        p, v = rng.uniform(-3.0, 3.0, 3), rng.normal(size=3)
        m = measure(PlantState(p_e=p, v_e=v, phi=(0.0, 0.0, 0.0)), s, cfg)
        assert all(type(x) is float for x in (m.x_f, m.x_dot_f, m.f_f))
        assert all(type(x) is float for x in (*m.x_m, *m.x_dot_m))
        assert abs(m.x_f - s.B_f @ p) <= 1e-12
        assert abs(m.x_dot_f - s.B_f @ v) <= 1e-12
        assert np.abs(np.array(m.x_m) - s.B_m.T @ p).max() <= 1e-12
        assert np.abs(np.array(m.x_dot_m) - s.B_m.T @ v).max() <= 1e-12

        u_f, u_m = rng.uniform(-50.0, 50.0), tuple(rng.uniform(-20.0, 20.0, 2).tolist())
        u_e = compose_u(u_f, u_m, s)
        assert type(u_e) is tuple and len(u_e) == 3
        assert all(type(x) is float for x in u_e)
        assert np.allclose(u_e, u_f * s.B_f + s.B_m @ u_m, rtol=0.0, atol=1e-12)
        # a vertical component well above the horizontal ones: feasible
        u_up = (u_e[0], u_e[1], abs(u_e[2]) + 200.0)
        out = extract_inputs(u_up, tuple(rng.uniform(-0.3, 0.3, 3).tolist()))
        assert type(out) is tuple and all(type(x) is float for x in out)
        out = invert_inputs(u_up, float(rng.uniform(-math.pi, math.pi)))
        assert type(out) is tuple and len(out) == 3
        assert all(type(x) is float for x in out)

        est = rlse_update(est, m.x_f, m.x_dot_f, m.f_f, m.x_f - 0.01, rcfg, 2e-3)
        assert type(est.k_hat) is float and type(est.b_hat) is float
        assert type(est.P) is tuple and len(est.P) == 3
        assert all(type(p) is float for p in est.P)


def test_estimator_and_controller_hold_no_numpy():
    # the 500 Hz layers work on floats: neither module imports numpy, nor
    # holds a numpy function, class, array or scalar
    def from_numpy(v):
        if isinstance(v, type(np)):
            name = v.__name__
        else:
            name = getattr(v, "__module__", None) or type(v).__module__
        return name == "numpy" or name.startswith("numpy.")

    for mod in (estm, ctl):
        assert [k for k, v in vars(mod).items() if from_numpy(v)] == []
    assert from_numpy(np) and from_numpy(np.linalg) and from_numpy(np.sqrt)
    assert from_numpy(np.ndarray) and from_numpy(np.eye(2))
    assert from_numpy(np.float64(1.0)) and not from_numpy(math.sqrt)


# ---------------------------------------------------------------------------
# control laws
# ---------------------------------------------------------------------------

def test_control_force_free_gravity_feedforward_only():
    s = tilted_surface()
    g = GainSet(m_bar=4.2)
    ref = ReferenceState()
    u = control_force(ref, meas_at(), 0.0, g, s, in_contact=False)
    assert u == pytest.approx(g.m_bar * g.g_bar * float(s.B_f @ E3))


def test_control_force_contact_zero_errors():
    s = tilted_surface()
    g = GainSet(m_bar=4.2)
    ref = ReferenceState(x_fr_ddot=0.5, f_fr=-6.0)
    m = meas_at(f_f=-6.0)
    u = control_force(ref, m, 0.0, g, s, in_contact=True)
    expected = g.m_bar * 0.5 - (-6.0) + g.m_bar * g.g_bar * float(s.B_f @ E3)
    assert u == pytest.approx(expected)


def test_control_force_contact_single_term():
    # e_ff = 1 N with k_f = 0.5 and everything else zeroed contributes -0.5
    s = SurfaceModel(B_f=[1.0, 0.0, 0.0],
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     p_s=[1.0, 0.0, 0.0])          # B_f ^T e3 = 0
    g = GainSet(m_bar=4.2, k_f=0.5, b_f=20.0)
    ref = ReferenceState(f_fr=1.0)
    u = control_force(ref, meas_at(f_f=0.0), 0.0, g, s, in_contact=True)
    assert u == pytest.approx(-1.0 - 0.5)      # -f_fr - k_f * e_ff


def test_control_motion_level_surface():
    s = vertical_surface()                      # B_m columns: e3 and e2
    g = GainSet(m_bar=4.2)
    ref = ReferenceState(x_mr_ddot=[0.2, -0.1])
    u = control_motion(ref, meas_at(), np.zeros(2), g, s)
    grav = g.m_bar * g.g_bar * (s.B_m.T @ E3)
    assert np.allclose(u, g.m_bar * np.array([0.2, -0.1]) + grav)


def test_control_motion_proportional_contribution():
    s = SurfaceModel(B_f=[1.0, 0.0, 0.0],
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     p_s=[1.0, 0.0, 0.0])
    g = GainSet(m_bar=4.2)
    ref = ReferenceState(x_mr=[0.1, 0.0])
    u = control_motion(ref, meas_at(x_m=(0.0, 0.0)), np.zeros(2), g, s)
    grav = g.m_bar * g.g_bar * (s.B_m.T @ E3)
    assert np.allclose(u - grav, [2.35, 0.0])


def test_gravity_compensation_recomposes_across_tilt():
    # force + motion gravity terms recompose to full 3-vector compensation
    s = tilted_surface()
    g = GainSet(m_bar=4.2)
    ref = ReferenceState()
    u_f = control_force(ref, meas_at(), 0.0, g, s, in_contact=False)
    u_m = control_motion(ref, meas_at(), np.zeros(2), g, s)
    u_e = compose_u(u_f, u_m, s)
    assert np.allclose(u_e, g.m_bar * g.g_bar * E3, atol=1e-12)


def test_intermode_jump_bounded():
    s = vertical_surface()
    g = GainSet(m_bar=4.2, k_f=0.5, b_f=20.0)
    m = meas_at(x_f=0.99, x_dot_f=0.05, f_f=-2.0)
    free_ref = ReferenceState(x_fr=1.02, x_fr_dot=0.0)
    u_free = control_force(free_ref, m, 0.0, g, s, in_contact=False)
    contact_ref = ReferenceState(x_fr=1.02, x_fr_dot=0.0, f_fr=-2.0)
    u_contact = control_force(contact_ref, m, 0.0, g, s, in_contact=True)
    assert math.isfinite(u_free - u_contact)
    assert abs(u_free - u_contact) < 50.0


# ---------------------------------------------------------------------------
# composition and extraction
# ---------------------------------------------------------------------------

def test_compose_unit_basis():
    s = SurfaceModel(B_f=[1.0, 0.0, 0.0],
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     p_s=[1.0, 0.0, 0.0])
    assert np.allclose(compose_u(1.0, [0.0, 0.0], s), [1.0, 0.0, 0.0])


def test_compose_decompose_round_trip():
    rng = np.random.default_rng(8)
    for tilt in (0.0, 30.0, -55.0):
        s = SurfaceModel.from_tilt(tilt, yaw_deg=40.0)
        for _ in range(20):
            a = rng.normal(size=1)[0]
            b = rng.normal(size=2)
            u = compose_u(a, b, s)
            assert abs(float(s.B_f @ u) - a) < 1e-14
            assert np.allclose(s.B_m.T @ u, b, atol=1e-14)


def test_extract_hover():
    g = GainSet(m_bar=4.2)
    u = np.array([0.0, 0.0, g.m_bar * g.g_bar])
    T, rx, ry = extract_inputs(u, np.zeros(3))
    assert T == pytest.approx(g.m_bar * g.g_bar)
    assert rx == pytest.approx(0.0)
    assert ry == pytest.approx(0.0)


def test_extract_known_pitch_inversion():
    mg = 4.2 * 9.81
    u = np.array([mg * math.tan(0.1), 0.0, mg])
    T, rx, ry = invert_inputs(u, 0.0)
    assert rx == pytest.approx(0.0, abs=1e-12)
    assert ry == pytest.approx(0.1, abs=1e-12)
    # extraction evaluated at the fixed point reproduces it
    T2, rx2, ry2 = extract_inputs(u, [rx, ry, 0.0])
    assert (T2, rx2, ry2) == pytest.approx((T, rx, ry), abs=1e-12)
    assert np.linalg.norm(T2 * rotation([rx2, ry2, 0.0]) @ E3 - u) < 1e-10
    # T = |a| without overflow or underflow of the squares at extreme scales
    assert invert_inputs((0.0, 1e200, 1e200), 0.0) == pytest.approx(
        (math.sqrt(2.0) * 1e200, -math.pi / 4.0, 0.0), rel=1e-15, abs=0.0)
    assert invert_inputs((0.0, 3e-162, 1e-170), 0.0) == pytest.approx(
        (3e-162, -math.pi / 2.0, 0.0), rel=1e-15, abs=0.0)


def test_extract_round_trip_property():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        T = rng.uniform(5.0, 120.0)
        roll = rng.uniform(-1.2, 1.2)
        pitch = rng.uniform(-1.2, 1.2)
        yaw = rng.uniform(-math.pi, math.pi)
        u = T * rotation([roll, pitch, yaw]) @ E3
        T2, r2, p2 = invert_inputs(u, yaw)
        assert np.linalg.norm(T2 * rotation([r2, p2, yaw]) @ E3 - u) < 1e-10
        T3, r3, p3 = extract_inputs(u, [r2, p2, yaw])
        assert np.linalg.norm(T3 * rotation([r3, p3, yaw]) @ E3 - u) < 1e-10


def test_extract_iteration_converges_to_fixed_point():
    u = np.array([8.0, -5.0, 45.0])
    yaw = 0.3
    phi = np.array([0.0, 0.0, yaw])
    for _ in range(60):
        T, rx, ry = extract_inputs(u, phi)
        phi = np.array([rx, ry, yaw])
    assert np.linalg.norm(T * rotation(phi) @ E3 - u) < 1e-10


def test_extract_infeasible_inputs():
    with pytest.raises(InfeasibleInput):
        extract_inputs([0.0, 0.0, -5.0], np.zeros(3))     # downward
    with pytest.raises(InfeasibleInput):
        extract_inputs([0.0, 0.0, 10.0], [1.6, 0.0, 0.0])  # roll singular
    with pytest.raises(InfeasibleInput):
        extract_inputs([50.0, 0.0, 1.0], np.zeros(3))      # asin domain


def test_gainset_rejects_nonpositive_motion_gains():
    for name in ("K_mp", "K_md", "L_m", "g_bar"):     # and the gravity
        with pytest.raises(ValueError, match="positive"):
            GainSet(**{name: 0.0})
    # NaN and +-inf in any gain
    for f in dataclasses.fields(GainSet):
        for v in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"gain {f.name} must be positive and finite"):
                GainSet(**{f.name: v})
