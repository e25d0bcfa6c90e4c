import math

import numpy as np
import pytest

from uamsim.plant import (DisturbanceConfig, MeasurementNoise, PlantConfig,
                          PlantState, SurfaceModel, contact_force, measure,
                          rotation, step, thrust_direction)


def vertical_surface(k_e=200.0, b_e=0.5):
    return SurfaceModel.from_tilt(0.0, p_s=(1.0, 0.0, 1.5), k_e=k_e, b_e=b_e)


# ---------------------------------------------------------------------------
# contact force
# ---------------------------------------------------------------------------

def test_contact_force_simple_penetration():
    s = vertical_surface(k_e=200.0, b_e=0.5)
    x = s.x_fs + 0.01
    assert contact_force(x, 0.0, s) == pytest.approx(-2.0)


def test_contact_force_free_space_is_zero():
    s = vertical_surface()
    for xd in (-1.0, 0.0, 2.5):
        assert contact_force(s.x_fs - 0.05, xd, s) == 0.0


def test_contact_force_with_damping_term():
    s = vertical_surface(k_e=50.0, b_e=0.1)
    assert contact_force(s.x_fs + 0.02, 0.1, s) == pytest.approx(-1.01)


def test_contact_force_stiffness_part_continuous_at_boundary():
    s = vertical_surface()
    eps = 1e-9
    f_in = contact_force(s.x_fs + eps, 0.0, s)
    f_out = contact_force(s.x_fs - eps, 0.0, s)
    assert abs(f_in - f_out) < 1e-6


# ---------------------------------------------------------------------------
# attitude lag
# ---------------------------------------------------------------------------

def free_space_state():
    return PlantState(p_e=[-10.0, 0.0, 1.5], v_e=np.zeros(3), phi=np.zeros(3))


def test_attitude_track_zero_lag_identity():
    # tau_att = 0: one step of the plant snaps the attitude to the reference
    cfg = PlantConfig(tau_att=0.0, dt=1e-3)
    phi_r = np.array([0.1, -0.05, 0.0])
    out = step(free_space_state(), cfg.m_t * cfg.g, phi_r, vertical_surface(), cfg)
    assert np.array_equal(out.phi, phi_r)


def test_attitude_track_first_order_response():
    # far from the surface the lag phi' = (phi_r - phi)/tau_att integrated by
    # the plant step must follow its closed form
    tau, dt = 0.1, 1e-3
    cfg = PlantConfig(tau_att=tau, dt=dt)
    s = vertical_surface()
    st = free_space_state()
    phi_r = np.array([0.2, -0.1, 0.3])
    n = 500
    for _ in range(n):
        st = step(st, cfg.m_t * cfg.g, phi_r, s, cfg)
        assert not st.in_contact
    expected = phi_r * (1.0 - math.exp(-n * dt / tau))
    assert np.allclose(st.phi, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def hover_setup(tau_att=0.0, **kw):
    cfg = PlantConfig(m_t=4.2, tau_att=tau_att, **kw)
    s = vertical_surface()
    st = PlantState(p_e=[0.0, 0.0, 1.5], v_e=np.zeros(3), phi=np.zeros(3))
    return cfg, s, st


def test_step_hover_balance():
    cfg, s, st = hover_setup()
    T = cfg.m_t * cfg.g
    for _ in range(100):
        st = step(st, T, np.zeros(3), s, cfg)
    assert np.all(np.abs(st.v_e) < 1e-9)


def test_step_free_fall():
    cfg, s, st = hover_setup()
    st = step(st, 0.0, np.zeros(3), s, cfg)
    assert st.v_e[2] == pytest.approx(-cfg.g * cfg.dt, abs=1e-9)
    assert st.v_e[0] == pytest.approx(0.0, abs=1e-15)


def test_step_horizontal_velocity_conserved_without_forces():
    cfg, s, st = hover_setup()
    st.v_e = np.array([0.3, -0.2, 0.0])
    st.p_e = np.array([-5.0, 0.0, 50.0])   # far from the surface
    for _ in range(200):
        st = step(st, 0.0, np.zeros(3), s, cfg)
    assert st.v_e[0] == pytest.approx(0.3, abs=1e-12)
    assert st.v_e[1] == pytest.approx(-0.2, abs=1e-12)


def test_step_contact_bounce_matches_fine_reference():
    # drive the end-effector into the wall and compare the penetration peak
    # against a dt/100 reference integration
    def simulate(dt):
        cfg = PlantConfig(m_t=4.2, dt=dt)
        s = vertical_surface(k_e=500.0, b_e=0.5)
        st = PlantState(p_e=[0.9, 0.0, 1.5], v_e=[0.4, 0.0, 0.0],
                        phi=np.zeros(3))
        T = cfg.m_t * cfg.g
        peak = 0.0
        for _ in range(round(1.0 / dt)):
            st = step(st, T, np.zeros(3), s, cfg)
            peak = max(peak, float(s.B_f @ st.p_e) - s.x_fs)
        return peak

    coarse = simulate(1e-3)
    fine = simulate(1e-5)
    assert fine > 0.005
    assert abs(coarse - fine) / fine < 0.01


def test_step_rejects_nonfinite():
    cfg, s, st = hover_setup()
    with pytest.raises(ValueError):
        step(st, math.nan, np.zeros(3), s, cfg)
    with pytest.raises(ValueError):
        step(st, 10.0, [math.inf, 0.0, 0.0], s, cfg)


def test_step_acceleration_identity_at_evaluation_point():
    # with tau_att = 0 and no disturbance the evaluated acceleration equals
    # -g e3 + (T R e3 + f_e)/m_t exactly
    from uamsim.plant import _deriv

    cfg = PlantConfig(m_t=4.2)
    s = vertical_surface()
    phi_r = np.array([0.05, -0.03, 0.2])
    st = PlantState(p_e=[0.95, 0.0, 1.5], v_e=[0.2, 0.0, 0.0], phi=phi_r)
    T = 45.0
    y = np.concatenate([st.p_e, st.v_e, st.phi])
    d = _deriv(y, 0.0, T, phi_r, s, cfg, s.B_f, s.x_fs, 0.0)
    f_c = contact_force(float(s.B_f @ st.p_e), float(s.B_f @ st.v_e), s)
    a_exp = (-cfg.g * np.array([0, 0, 1.0])
             + (T * np.array(thrust_direction(phi_r)) + f_c * s.B_f) / cfg.m_t)
    assert np.allclose(d[0:3], st.v_e, atol=0.0)
    assert np.allclose(d[3:6], a_exp, atol=1e-14)


def test_step_halving_dt_first_order_endpoint():
    # 5-second trajectory with contact events: endpoint change from halving
    # dt is O(dt) or better
    def endpoint(dt):
        cfg = PlantConfig(m_t=4.2, dt=dt)
        s = vertical_surface(k_e=317.0, b_e=0.8)
        st = PlantState(p_e=[0.9, 0.0, 1.5], v_e=[0.237, 0.0, 0.0],
                        phi=np.zeros(3))
        T = cfg.m_t * cfg.g
        for _ in range(round(5.0 / dt)):
            st = step(st, T, np.zeros(3), s, cfg)
        return st.p_e.copy()

    e1 = endpoint(2e-3)
    e2 = endpoint(1e-3)
    e3 = endpoint(5e-4)
    d12 = np.linalg.norm(e1 - e2)
    d23 = np.linalg.norm(e2 - e3)
    assert d23 < 0.75 * d12 + 1e-12


# ---------------------------------------------------------------------------
# surface basis
# ---------------------------------------------------------------------------

def test_surface_orthonormal_for_any_tilt():
    for tilt in np.linspace(-80, 80, 17):
        for yaw in (0.0, 30.0, 111.0):
            s = SurfaceModel.from_tilt(float(tilt), float(yaw))
            M = np.column_stack([s.B_f, s.B_m])
            assert np.abs(M.T @ M - np.eye(3)).max() < 1e-12


def test_surface_rejects_bad_basis():
    with pytest.raises(ValueError):
        SurfaceModel(B_f=[1.0, 0.0, 0.0],
                     B_m=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                     p_s=[0.0, 0.0, 0.0])


def test_rotation_thrust_direction_consistent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        phi = rng.uniform(-1.0, 1.0, 3)
        assert np.allclose(rotation(phi)[:, 2], thrust_direction(phi))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measure_exact_without_noise():
    cfg = PlantConfig()
    s = SurfaceModel.from_tilt(30.0)
    st = PlantState(p_e=[0.4, 0.2, 1.1], v_e=[0.1, -0.2, 0.05], phi=np.zeros(3))
    m = measure(st, s, cfg)
    assert m.x_f == pytest.approx(float(s.B_f @ st.p_e))
    assert np.allclose(m.x_m, s.B_m.T @ st.p_e)
    assert np.allclose(m.x_dot_m, s.B_m.T @ st.v_e)


def test_measure_zero_force_at_contact_point_at_rest():
    cfg = PlantConfig()
    s = vertical_surface()
    st = PlantState(p_e=s.p_s.copy(), v_e=np.zeros(3), phi=np.zeros(3))
    m = measure(st, s, cfg)
    assert m.f_f == 0.0


def test_measure_axis_projection():
    cfg = PlantConfig()
    s = SurfaceModel(B_f=[1.0, 0.0, 0.0],
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     p_s=[5.0, 0.0, 0.0])
    st = PlantState(p_e=[1.0, 2.0, 3.0], v_e=np.zeros(3), phi=np.zeros(3))
    assert measure(st, s, cfg).x_f == pytest.approx(1.0)


def test_measure_noise_statistics():
    cfg = PlantConfig(noise=MeasurementNoise(f_f=0.05))
    s = vertical_surface()
    st = PlantState(p_e=s.p_s + 0.01 * s.B_f, v_e=np.zeros(3), phi=np.zeros(3))
    rng = np.random.default_rng(1)
    vals = np.array([measure(st, s, cfg, rng).f_f for _ in range(4000)])
    assert vals.std() == pytest.approx(0.05, rel=0.1)
    assert vals.mean() == pytest.approx(-2.0, abs=0.01)


def test_disturbance_signal_shape():
    d = DisturbanceConfig(const=[0.5, 0.0, 0.0], amp=[0.0, 1.0, 0.0],
                          freq_hz=[0.0, 2.0, 0.0])
    f0 = d.force(0.0)
    assert np.allclose(f0, [0.5, 0.0, 0.0])
    f = d.force(1.0 / 8.0)       # quarter period of 2 Hz
    assert f[1] == pytest.approx(1.0)
