import dataclasses
import math

import numpy as np
import pytest

from uamsim.plant import (DisturbanceConfig, Measurement, MeasurementNoise,
                          PlantConfig, PlantState, SurfaceModel, contact_force,
                          _MAX_SPLITS, _step_with_events, measure, step)

from plant_reference import (draw, dynamics, reference_step, rk4, rotation,
                             thrust_direction)


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
    st = dataclasses.replace(st, v_e=np.array([0.3, -0.2, 0.0]),
                             p_e=np.array([-5.0, 0.0, 50.0]))   # far from the surface
    for _ in range(200):
        st = step(st, 0.0, np.zeros(3), s, cfg)
        assert all(is_float_tuple(v, 3) for v in (st.p_e, st.v_e, st.phi))
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


def _recorded_event_split(end, y0, y1, contact):
    """Run _step_with_events on the x = 0 plane with a recording rk whose
    step ends at x = end(h, contact)."""
    s = SurfaceModel(B_f=(1.0, 0.0, 0.0),
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                     p_s=(0.0, 0.0, 0.0))
    steps = []

    def rk(t, y, h, contact):
        steps.append((h, contact))
        return (end(h, contact), *y[1:])

    return _step_with_events(rk, s, y0, y1, 0.0, 1e-3, contact), steps


def test_step_with_events_stops_after_max_splits():
    # every rk step ends on the other side from its mode, at -/+ h: each
    # split holds the mode up to the crossing and flips it for the rest,
    # two calls, and the rest crosses again
    y0 = (1e-4,) + (0.0,) * 8
    y, steps = _recorded_event_split(lambda h, c: -h if c else h,
                                     y0, (-1e-3,) + y0[1:], True)
    assert len(steps) == 2 * _MAX_SPLITS
    held, rest = steps[0::2], steps[1::2]
    assert [c for _, c in held] == [i % 2 == 0 for i in range(_MAX_SPLITS)]
    assert all(c0 != c1 for (_, c0), (_, c1) in zip(held, rest))
    assert held[0][0] == 1e-3 * 1e-4 / (1e-4 + 1e-3)
    for (s, _), (h, _), (h_prev, _) in zip(held, rest, [(1e-3, None)] + rest):
        assert 0.0 < s < h_prev and h == h_prev - s
    assert y[0] == -rest[-1][0]


def test_step_with_events_returns_full_step_when_no_substep_crosses():
    # a step that ends on its mode's side, the surface itself counting as
    # free, comes back as it is, without an rk call
    y0 = (1e-4,) + (0.0,) * 8
    for contact, x1 in ((True, 1e-3), (False, -1e-3), (False, 0.0)):
        y1 = (x1,) + y0[1:]
        y, steps = _recorded_event_split(lambda h, c: 0.0, y0, y1, contact)
        assert steps == [] and y is y1


def test_step_with_events_keeps_y1_at_a_degenerate_split_point():
    # a free step from the surface itself (pen0 = 0) splits at 0, and a
    # contact step ending on it (pen1 = 0) at h: either keeps y1
    for contact, x0, x1 in ((False, 0.0, 1e-3), (False, -0.0, 1e-3),
                            (True, 1e-4, 0.0)):
        y0 = (x0,) + (0.0,) * 8
        y1 = (x1,) + y0[1:]
        y, steps = _recorded_event_split(lambda h, c: 0.0, y0, y1, contact)
        assert steps == [] and y is y1


def test_step_rejects_nonfinite():
    cfg, s, st = hover_setup()
    with pytest.raises(ValueError):
        step(st, math.nan, np.zeros(3), s, cfg)
    with pytest.raises(ValueError):
        step(st, 10.0, [math.inf, 0.0, 0.0], s, cfg)
    bad = "plant inputs must be finite, with three angles"
    for phi_r in ([0.0, 0.0], (0.0, 0.0, 0.0, 0.0), np.zeros(2), np.zeros(4)):
        with pytest.raises(ValueError, match=bad):
            step(st, 10.0, phi_r, s, cfg)
    for T in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=bad):
            step(st, T, np.zeros(3), s, cfg)
    for k in range(3):
        for v in (math.inf, -math.inf, math.nan):
            phi_r = [0.0, 0.0, 0.0]
            phi_r[k] = v
            with pytest.raises(ValueError, match=bad):
                step(st, 10.0, phi_r, s, cfg)
    with pytest.raises(ValueError, match="nonnegative"):
        step(st, -1.0, np.zeros(3), s, cfg)

    # a list, an ndarray, numpy scalars, an iterator and ints as phi_r are
    # accepted and give a state of Python floats, equal to the one from a
    # tuple of floats, with and without attitude lag
    phi = (0.01, -0.02, 0.3)
    for tau in (0.0, 0.02):
        cfg, s, st = hover_setup(tau_att=tau)
        want = step(st, 41.0, phi, s, cfg)
        for phi_r in (list(phi), np.array(phi), tuple(map(np.float64, phi)),
                      iter(phi)):
            out = step(st, 41.0, phi_r, s, cfg)
            for v, w in ((out.p_e, want.p_e), (out.v_e, want.v_e),
                         (out.phi, want.phi)):
                assert is_float_tuple(v, 3) and v == w
        out = step(st, 41.0, [0, 0, 1], s, cfg)
        assert is_float_tuple(out.phi, 3)


def test_plant_config_rejects_nonpositive_gravity():
    for g in (0.0, -9.81, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="g must be positive"):
            PlantConfig(g=g)


def test_plant_config_rejects_nonpositive_dt():
    for dt in (0.0, -1e-3, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt"):
            PlantConfig(dt=dt)


def test_plant_config_rejects_bad_mass_and_lag():
    # a NaN tau_att would fail every comparison in step and freeze the
    # attitude; an infinite one would do the same through its decay
    for m_t in (0.0, -4.2, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="m_t must be positive and finite"):
            PlantConfig(m_t=m_t)
    for tau in (-0.02, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tau_att must be nonnegative and finite"):
            PlantConfig(tau_att=tau)


def test_step_acceleration_identity_at_evaluation_point():
    # the evaluated derivative equals the closed form
    # a = -g e3 + (T R(phi) e3 + f_e + delta(t) - c_t B_m B_m^T v_e)/m_t,
    # phi' = (phi_r - phi)/tau_att, with friction only while penetrated;
    # the reference derivative that plant.step is checked against bit for
    # bit gives it
    s = vertical_surface()
    sine = DisturbanceConfig(const=[0.3, -0.2, 0.1], amp=[0.5, 1.0, 0.0],
                             freq_hz=[2.0, 2.0, 0.0])
    fric = DisturbanceConfig(const=[0.1, 0.0, -0.4], tangential_friction=0.7)
    free, pressed = [0.95, 0.0, 1.5], [1.01, 0.0, 1.5]
    cases = [  # (disturbance, tau_att, p_e, v_e, t)
        (DisturbanceConfig(), 0.0, free, [0.2, 0.0, 0.0], 0.0),
        (sine, 0.0, free, [0.2, 0.1, 0.0], 0.0),
        (sine, 0.0, free, [0.2, 0.1, 0.0], 1.0 / 8.0),
        (fric, 0.0, pressed, [0.2, 0.3, -0.1], 0.0),
        (fric, 0.05, pressed, [0.2, 0.3, -0.1], 0.0),
    ]
    phi_r = np.array([0.05, -0.03, 0.2])
    T = 45.0
    for dist, tau, p_e, v_e, t in cases:
        cfg = PlantConfig(m_t=4.2, tau_att=tau, disturbance=dist)
        phi = phi_r if tau == 0.0 else np.array([0.01, 0.02, 0.1])
        st = PlantState(p_e=p_e, v_e=v_e, phi=phi)
        y = np.concatenate([st.p_e, st.v_e, st.phi])
        d = np.array(dynamics(T, phi_r.tolist(), s, cfg)(t, y.tolist(),
                                                         p_e is pressed))
        x_dot_f = float(s.B_f @ st.v_e)
        f_c = contact_force(float(s.B_f @ st.p_e), x_dot_f, s)
        delta = dist.const + dist.amp * np.sin(2.0 * math.pi * np.asarray(dist.freq_hz) * t)
        if f_c != 0.0:
            delta = delta - dist.tangential_friction * (st.v_e - x_dot_f * s.B_f)
        a_exp = (-cfg.g * np.array([0, 0, 1.0])
                 + (T * np.array(thrust_direction(st.phi)) + f_c * s.B_f
                    + delta) / cfg.m_t)
        assert (f_c != 0.0) == (p_e is pressed)
        assert np.allclose(d[0:3], st.v_e, atol=0.0)
        assert np.allclose(d[3:6], a_exp, rtol=0.0, atol=1e-14)
        dphi = (phi_r - st.phi) / tau if tau > 0.0 else np.zeros(3)
        assert np.allclose(d[6:9], dphi, rtol=0.0, atol=1e-14)


def generic_draws():
    """(where, state, T, phi_r, surface, cfg): 600 seeded steps in free
    flight, pressed into the surface, and crossing it (split); with no
    disturbance, a constant one, a sinusoidal one and tangential friction;
    with and without attitude lag."""
    rng = np.random.default_rng(17)
    dt = 1e-3
    for i in range(600):
        where = ("free", "pressed", "crossing")[i % 3]
        dist = [DisturbanceConfig(),
                DisturbanceConfig(const=draw(rng, 3)),
                DisturbanceConfig(const=draw(rng, 3), amp=draw(rng, 3),
                                  freq_hz=rng.uniform(0.1, 50.0, 3)),
                DisturbanceConfig(const=draw(rng, 3),
                                  tangential_friction=rng.uniform(0.1, 5.0)),
                ][(i // 3) % 4]
        tau = 0.0 if (i // 12) % 2 == 0 else rng.uniform(0.005, 0.1)
        cfg = PlantConfig(m_t=rng.uniform(2.0, 6.0), tau_att=tau,
                          disturbance=dist, dt=dt)
        s = SurfaceModel.from_tilt(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0),
                                   p_s=draw(rng, 3), k_e=rng.uniform(50.0, 500.0),
                                   b_e=rng.uniform(0.1, 1.0))
        # penetration at the start of the step and normal speed into the
        # surface: a crossing one reaches the surface 20-70% into the step
        if where == "crossing":
            v_n = 10.0 ** rng.uniform(-0.3, 1.0)
            pen0 = -rng.uniform(0.2, 0.7) * v_n * dt
        else:
            v_n = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6.0, 0.0)
            pen0 = rng.uniform(0.1, 1.0) * (-1.0 if where == "free" else 0.05)
        st = PlantState(p_e=s.p_s + pen0 * s.B_f + s.B_m @ draw(rng, 2),
                        v_e=v_n * s.B_f + s.B_m @ draw(rng, 2),
                        phi=draw(rng, 3), t=rng.uniform(0.0, 10.0))
        T = rng.uniform(0.0, 80.0)
        phi_r = draw(rng, 3)
        yield where, st, T, phi_r, s, cfg


def test_step_equals_generic_rk4_bit_for_bit():
    # plant.step's unrolled RK4 must reproduce the reference step exactly:
    # rk4 on p_e + v_e with the attitude lag in closed form. Its attitude
    # is the closed form's after dt, also when the step is split.
    dt = 1e-3
    for where, st, T, phi_r, s, cfg in generic_draws():
        out = step(st, T, phi_r, s, cfg)
        y1, n_rk4 = reference_step(st, T, phi_r, s, cfg)
        assert list(out.p_e) + list(out.v_e) + list(out.phi) == y1
        pen1 = float(s.B_f @ out.p_e) - s.x_fs
        assert out.in_contact == (pen1 > 0.0)
        assert out.t == st.t + dt
        assert (n_rk4 > 1) == (where == "crossing")
        assert out.in_contact == (where != "free")
        if cfg.tau_att > 0.0:
            closed = phi_r + (np.array(st.phi) - phi_r) * math.exp(-dt / cfg.tau_att)
            assert np.abs(np.array(out.phi) - closed).max() <= 1e-14


def bits(values) -> list:
    """The floats as hex strings, which tell -0.0 from +0.0."""
    return [float(v).hex() for v in values]


# state and commanded yaws that compare equal: a nonzero yaw, +0.0, -0.0
# and the mixed-sign zeros
EQUAL_YAWS = ("nonzero", (0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0))


def equal_yaw_draws():
    """(kind, state, T, phi_r, surface, cfg): 1000 seeded steps whose
    commanded yaw equals the state's, with and without lag, and zero
    angles, velocities, disturbances and thrusts of either sign, which let
    the sign of a zero sine reach the state."""
    rng = np.random.default_rng(24)
    dt = 1e-3

    def value(scale=1.0):
        return (rng.normal() * scale, 0.0, -0.0)[rng.integers(3)]

    for i in range(1000):
        kind = EQUAL_YAWS[i % len(EQUAL_YAWS)]
        if kind == "nonzero":
            yaw = yaw_r = rng.uniform(-math.pi, math.pi)
        else:
            yaw, yaw_r = kind
        tau = 0.0 if (i // len(EQUAL_YAWS)) % 2 == 0 else rng.uniform(0.005, 0.1)
        dist = DisturbanceConfig(const=[value() for _ in range(3)],
                                 tangential_friction=rng.uniform(0.0, 2.0))
        cfg = PlantConfig(m_t=rng.uniform(2.0, 6.0), tau_att=tau,
                          disturbance=dist, dt=dt)
        s = SurfaceModel.from_tilt(rng.choice((0.0, rng.uniform(-60.0, 60.0))),
                                   rng.choice((0.0, rng.uniform(-180.0, 180.0))),
                                   p_s=(1.0, 0.0, 1.5))
        pen0 = rng.uniform(-0.02, 0.01)
        p_e = s.p_s + pen0 * s.B_f
        st = PlantState(p_e=[p if rng.random() < 0.7 else value() for p in p_e],
                        v_e=[value(0.1) for _ in range(3)],
                        phi=(value(0.1), value(0.1), yaw),
                        t=rng.choice((0.0, rng.uniform(0.0, 10.0))))
        T = rng.choice((0.0, rng.uniform(0.0, 80.0)))
        phi_r = (value(0.1), value(0.1), yaw_r)
        yield kind, st, T, phi_r, s, cfg


def test_step_with_equal_yaws_equals_generic_rk4_bit_for_bit():
    # a commanded yaw equal to the state's, zeros of either sign included,
    # must match the reference step bit for bit, signed zeros included:
    # without lag the stages after the first see phi_r + 0.0, so a -0.0
    # angle turns +0.0 there, as in rk4 on the nine-state derivative
    for kind, st, T, phi_r, s, cfg in equal_yaw_draws():
        out = step(st, T, phi_r, s, cfg)
        y1, _ = reference_step(st, T, phi_r, s, cfg)
        got = list(out.p_e) + list(out.v_e) + list(out.phi)
        assert got == y1 and bits(got) == bits(y1), (kind, cfg.tau_att)


def alternating_steps():
    """(k, state, T, phi_r, surface, cfg, out): 300 rounds of one step of
    each pairing of two tilted surfaces with two configurations (lag,
    sinusoidal disturbance and friction, against none of them), each
    pairing stepping on from its own last state out = step(...)."""
    surfaces = [SurfaceModel.from_tilt(30.0, 40.0, p_s=(1.0, 0.5, 1.5),
                                       k_e=300.0, b_e=0.8),
                SurfaceModel.from_tilt(-15.0, 0.0, p_s=(0.8, 0.0, 1.2),
                                       k_e=80.0, b_e=0.2)]
    cfgs = [PlantConfig(m_t=3.5, tau_att=0.03, disturbance=DisturbanceConfig(
                const=[0.4, -0.2, 0.3], amp=[0.5, 0.2, 0.1],
                freq_hz=[1.0, 3.0, 7.0], tangential_friction=1.5)),
            PlantConfig(m_t=5.0, tau_att=0.0)]
    pairs = [(s, c) for s in surfaces for c in cfgs]
    states = [PlantState(p_e=s.p_s - 0.002 * s.B_f, v_e=0.3 * s.B_f,
                         phi=(0.02, -0.01, 0.1)) for s, _ in pairs]
    rng = np.random.default_rng(23)
    for _ in range(300):
        for k, (s, cfg) in enumerate(pairs):
            T = cfg.m_t * cfg.g * rng.uniform(0.9, 1.1)
            phi_r = rng.normal(scale=0.05, size=3)
            out = step(states[k], T, phi_r, s, cfg)
            yield k, states[k], T, phi_r, s, cfg, out
            states[k] = out


def test_step_alternating_plants_match_reference_bit_for_bit():
    # step reads constants that SurfaceModel and PlantConfig derive when they
    # are built; stepping the pairings in turn must match the reference
    # exactly, so that no constant of one pair leaks into a step of another
    split, pressed = [0] * 4, [0] * 4
    for k, st, T, phi_r, s, cfg, out in alternating_steps():
        y1, n_rk4 = reference_step(st, T, phi_r, s, cfg)
        assert list(out.p_e) + list(out.v_e) + list(out.phi) == y1
        assert out.in_contact == (float(s.B_f @ out.p_e) - s.x_fs > 0.0)
        split[k] += n_rk4 > 1
        pressed[k] += out.in_contact
    assert min(split) > 0 and min(pressed) > 0


def test_step_without_lag_equals_nine_state_rk4_bit_for_bit():
    # without lag the attitude is phi_r at every stage, so the closed form
    # changes nothing: every tau_att = 0 step of the three draws above
    # equals rk4 on the nine-state derivative bit for bit, signed zeros and
    # split steps included
    draws = ([d[1:] for d in generic_draws()] + [d[1:] for d in equal_yaw_draws()]
             + [d[1:6] for d in alternating_steps()])
    n = 0
    for args in draws:
        if args[4].tau_att == 0.0:
            out = step(*args)
            y1, _ = reference_step(*args, nine_state=True)
            got = list(out.p_e) + list(out.v_e) + list(out.phi)
            assert bits(got) == bits(y1), args
            n += 1
    assert n == 300 + 500 + 600


def test_step_lag_is_more_accurate_than_nine_state_rk4():
    # against 256 nine-state RK4 substeps, the closed-form lag's attitude is
    # exact to rounding, where RK4 on the lag errs by up to ~5e-7 rad, and
    # its worst position and velocity errors are no larger. Angles are
    # within 0.5 rad: with draw's angles (up to ~20 rad from phi_r, tau_att
    # down to 5 ms, so the thrust turns ~1.5 rad within one step) neither
    # integrator resolves the step. No step crosses the surface: crossing
    # steps are checked against finer plant steps in the next test.
    rng = np.random.default_rng(26)
    dt, n_sub = 1e-3, 256
    worst = np.zeros((2, 2))
    for i in range(200):
        dist = [DisturbanceConfig(),
                DisturbanceConfig(const=draw(rng, 3)),
                DisturbanceConfig(const=draw(rng, 3), amp=draw(rng, 3),
                                  freq_hz=rng.uniform(0.1, 50.0, 3)),
                DisturbanceConfig(const=draw(rng, 3),
                                  tangential_friction=rng.uniform(0.1, 5.0)),
                ][(i // 2) % 4]
        cfg = PlantConfig(m_t=rng.uniform(2.0, 6.0), tau_att=rng.uniform(0.005, 0.1),
                          disturbance=dist, dt=dt)
        s = SurfaceModel.from_tilt(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0),
                                   p_s=draw(rng, 3), k_e=rng.uniform(50.0, 500.0),
                                   b_e=rng.uniform(0.1, 1.0))
        v_n = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-6.0, 0.0)
        pen0 = rng.uniform(0.1, 1.0) * (-1.0 if i % 2 == 0 else 0.05)
        st = PlantState(p_e=s.p_s + pen0 * s.B_f + s.B_m @ draw(rng, 2),
                        v_e=v_n * s.B_f + s.B_m @ draw(rng, 2),
                        phi=rng.uniform(-0.5, 0.5, 3), t=rng.uniform(0.0, 10.0))
        T = rng.uniform(0.0, 80.0)
        phi_r = rng.uniform(-0.5, 0.5, 3)
        fine_cfg, fine = dataclasses.replace(cfg, dt=dt / n_sub), st
        for _ in range(n_sub):
            y, _ = reference_step(fine, T, phi_r, s, fine_cfg, nine_state=True)
            fine = PlantState(y[0:3], y[3:6], y[6:9], t=fine.t + fine_cfg.dt)
        want = np.array(fine.p_e + fine.v_e + fine.phi)
        out = step(st, T, phi_r, s, cfg)
        assert out.in_contact == (i % 2 == 1)
        got = np.array(out.p_e + out.v_e + out.phi)
        nine = np.array(reference_step(st, T, phi_r, s, cfg, nine_state=True)[0])
        for row, y in enumerate((got, nine)):
            worst[row] = np.maximum(worst[row], [np.abs(y[0:3] - want[0:3]).max(),
                                                 np.abs(y[3:6] - want[3:6]).max()])
        assert np.abs(got[6:9] - want[6:9]).max() <= 1e-14
    assert np.all(worst[0] <= worst[1]), worst


def test_step_crossing_the_surface_matches_finer_steps():
    # a step that crosses the surface holds each mode up to the crossing, so
    # neither RK4 substep sees the jump of the damping force -b_e x_dot_f at
    # the surface, and it is about as accurate as a step that does not
    # cross. The reference is 64 plant steps of dt/64, within 4e-12 m/s of
    # 4096 steps on every tenth of these draws.
    rng = np.random.default_rng(5)
    dt, n_sub = 1e-3, 64
    worst_p = worst_v = 0.0
    for i in range(300):
        s = SurfaceModel.from_tilt(rng.uniform(-30.0, 60.0),
                                   k_e=rng.uniform(50.0, 500.0),
                                   b_e=rng.uniform(0.1, 1.0))
        cfg = PlantConfig(tau_att=0.02, dt=dt)
        inward = i % 2 == 0
        v_n = rng.uniform(0.05, 2.0) * (1.0 if inward else -1.0)
        pen0 = -rng.uniform(0.02, 0.98) * v_n * dt
        st = PlantState(p_e=s.p_s + pen0 * s.B_f,
                        v_e=v_n * s.B_f + s.B_m @ rng.uniform(-0.5, 0.5, 2),
                        phi=rng.uniform(-0.1, 0.1, 3))
        T = cfg.m_t * cfg.g * rng.uniform(0.8, 1.2)
        phi_r = rng.uniform(-0.1, 0.1, 3)
        out = step(st, T, phi_r, s, cfg)
        assert out.in_contact == inward
        fine_cfg, fine = dataclasses.replace(cfg, dt=dt / n_sub), st
        for _ in range(n_sub):
            fine = step(fine, T, phi_r, s, fine_cfg)
        worst_p = max(worst_p, np.abs(np.subtract(out.p_e, fine.p_e)).max())
        worst_v = max(worst_v, np.abs(np.subtract(out.v_e, fine.v_e)).max())
    assert worst_v <= 1e-7 and worst_p <= 1e-10, (worst_p, worst_v)


def test_rk4_exponential_decay_matches_taylor_polynomial():
    # one step of y' = -y from 1 is the 4th-order Taylor polynomial of e^-h
    for h in (0.1, 0.5, 1e-3):
        (y,) = rk4(lambda t, y: [-y[0]], 0.0, [1.0], h)
        assert abs(y - (1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24)) <= 1e-15


def test_rk4_exact_on_cubic_in_time():
    for h in (0.1, 0.7, 1e-3):
        (y,) = rk4(lambda t, y: [3.0 * t**2], 0.0, [0.0], h)
        assert abs(y - h**3) <= 1e-15


def test_rk4_coupled_oscillator_matches_matrix_polynomial():
    # x' = v, v' = -x: one step multiplies the state by
    # sum_{j<=4} (h A)^j / j! with A = [[0, 1], [-1, 0]]
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y0 = np.array([0.3, -1.2])
    for h in (0.1, 0.5):
        P = sum(np.linalg.matrix_power(h * A, j) / math.factorial(j)
                for j in range(5))
        y = rk4(lambda t, y: [y[1], -y[0]], 0.0, y0.tolist(), h)
        assert np.allclose(y, P @ y0, rtol=0.0, atol=1e-15)


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
        return np.array(st.p_e)

    e1 = endpoint(2e-3)
    e2 = endpoint(1e-3)
    e3 = endpoint(5e-4)
    d12 = np.linalg.norm(e1 - e2)
    d23 = np.linalg.norm(e2 - e3)
    assert d23 < 0.75 * d12 + 1e-12


def is_float_tuple(v, n):
    return type(v) is tuple and len(v) == n and all(type(x) is float for x in v)


def test_step_and_measure_give_float_tuples():
    # the state and measurement vectors stay tuples of Python floats through
    # free flight, contact and sensor noise, with and without attitude lag
    s = vertical_surface()
    for tau in (0.0, 0.02):
        cfg = PlantConfig(tau_att=tau, noise=MeasurementNoise(pos=1e-3, vel=1e-2,
                                                              f_f=0.1))
        st = PlantState(p_e=np.array([0.9, 0.0, 1.5]), v_e=[0.5, 0.0, 0.0],
                        phi=np.zeros(3))
        rng = np.random.default_rng(3)
        contact = []
        for _ in range(300):
            st = step(st, cfg.m_t * cfg.g, np.array([0.01, -0.02, 0.0]), s, cfg)
            assert all(is_float_tuple(v, 3) for v in (st.p_e, st.v_e, st.phi))
            contact.append(st.in_contact)
            for m in (measure(st, s, cfg), measure(st, s, cfg, rng)):
                assert is_float_tuple(m.x_m, 2) and is_float_tuple(m.x_dot_m, 2)
                assert all(type(v) is float for v in (m.x_f, m.x_dot_f, m.f_f))
        assert any(contact) and not all(contact)


def test_state_and_measurement_constructors_convert_and_check_length():
    st = PlantState(p_e=np.array([1.0, 2.0, 3.0]), v_e=[0, 1, 2],
                    phi=np.zeros((3, 1)))
    assert st.p_e == (1.0, 2.0, 3.0) and is_float_tuple(st.p_e, 3)
    assert is_float_tuple(st.v_e, 3) and is_float_tuple(st.phi, 3)
    m = Measurement(x_f=0.0, x_dot_f=0.0, x_m=np.array([1.0, 2.0]),
                    x_dot_m=[3, 4], f_f=0.0)
    assert m.x_m == (1.0, 2.0) and is_float_tuple(m.x_dot_m, 2)
    for bad in (dict(p_e=(1.0, 2.0)), dict(v_e=np.zeros(4)), dict(phi=[])):
        with pytest.raises(ValueError):
            PlantState(**(dict(p_e=np.zeros(3), v_e=np.zeros(3),
                               phi=np.zeros(3)) | bad))
    for bad in (dict(x_m=np.zeros(3)), dict(x_dot_m=(1.0,))):
        with pytest.raises(ValueError):
            Measurement(**(dict(x_f=0.0, x_dot_f=0.0, x_m=(0.0, 0.0),
                                x_dot_m=(0.0, 0.0), f_f=0.0) | bad))


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


def test_surface_rejects_nan_parameters_and_basis():
    # NaN fails every comparison, so the checks are written to fail on it;
    # an infinite stiffness or damping is rejected too
    for name in ("k_e", "b_e"):
        for v in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"surface {name} must be positive"):
                SurfaceModel.from_tilt(0.0, **{name: v})
    with pytest.raises(ValueError):
        SurfaceModel(B_f=[math.nan, 0.0, 0.0],
                     B_m=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
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


def test_measure_noise_draws_in_field_order():
    # one standard-normal draw of 7 per call gives the stream of one scalar
    # draw per component, in the order x_f, x_dot_f, x_m, x_dot_m, f_f
    noise = MeasurementNoise(pos=0.01, vel=0.02, f_f=0.05)
    cfg = PlantConfig(noise=noise)
    s = SurfaceModel.from_tilt(30.0, 40.0)
    st = PlantState(p_e=s.p_s + 0.01 * s.B_f, v_e=(0.1, -0.2, 0.05),
                    phi=(0.0, 0.0, 0.0))
    exact = measure(st, s, cfg)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(200):
        m = measure(st, s, cfg, rng)
        e = [ref.standard_normal() for _ in range(7)]
        assert m.x_f == exact.x_f + noise.pos * e[0]
        assert m.x_dot_f == exact.x_dot_f + noise.vel * e[1]
        assert m.x_m == (exact.x_m[0] + noise.pos * e[2],
                         exact.x_m[1] + noise.pos * e[3])
        assert m.x_dot_m == (exact.x_dot_m[0] + noise.vel * e[4],
                             exact.x_dot_m[1] + noise.vel * e[5])
        assert m.f_f == exact.f_f + noise.f_f * e[6]


def test_disturbance_signal_shape():
    d = DisturbanceConfig(const=[0.5, 0.0, 0.0], amp=[0.0, 1.0, 0.0],
                          freq_hz=[0.0, 2.0, 0.0])
    f0 = d.force(0.0)
    assert np.allclose(f0, [0.5, 0.0, 0.0])
    f = d.force(1.0 / 8.0)       # quarter period of 2 Hz
    assert f[1] == pytest.approx(1.0)


def test_disturbance_force_is_three_floats_equal_to_the_numpy_formula():
    # force(t) runs in floats, in the operation order of the array formula
    # const + amp * sin(2 pi freq t), so the two agree bit for bit wherever
    # numpy's float64 sine is the platform's libm sine
    rng = np.random.default_rng(31)
    for _ in range(500):
        const, amp = draw(rng, 3), draw(rng, 3)
        freq, t = rng.uniform(0.0, 60.0, 3), rng.uniform(0.0, 200.0)
        d = DisturbanceConfig(const=const, amp=amp, freq_hz=freq)
        out = d.force(t)
        assert type(out) is tuple and len(out) == 3
        assert all(type(v) is float for v in out)
        assert list(out) == (const + amp * np.sin(2.0 * math.pi * freq * t)).tolist()
    steady = DisturbanceConfig(const=[0.3, -0.2, 0.1])
    assert steady.const == (0.3, -0.2, 0.1) and steady._steady is steady.const
