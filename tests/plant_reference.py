"""Reference integration and kinematics of the plant: a generic RK4 step on
lists of floats, the plant's derivative as a function of the whole 9-float
state, the same with the attitude lag in closed form, and the full-matrix
kinematics.

plant.step integrates p_e and v_e with an RK4 step unrolled by hand and
takes the attitude from the lag's closed form; the tests check it bit for
bit against rk4 on the six floats p_e + v_e (reference_step), against rk4
on the nine-state derivative without lag, where the two agree, and for
accuracy against finer nine-state steps. They also check the reference
generator's exact steps against rk4 within its error, and the float paths
of the plant and the controller against their numpy forms, on values from
draw. rotation and thrust_direction are the kinematics that the plant's
inlined expressions are checked against; the controller's extraction tests
build their desired inputs as T * rotation(phi) @ E3.
"""

from __future__ import annotations

import math

import numpy as np

from uamsim import plant

E3 = np.array([0.0, 0.0, 1.0])


def rotation(phi) -> np.ndarray:
    """Body-to-inertial rotation for ZYX Euler angles (roll, pitch, yaw)."""
    rx, ry, rz = float(phi[0]), float(phi[1]), float(phi[2])
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    return np.array([
        [cz * cy, cz * sy * sx - sz * cx, cz * sy * cx + sz * sx],
        [sz * cy, sz * sy * sx + cz * cx, sz * sy * cx - cz * sx],
        [-sy, cy * sx, cy * cx],
    ])


def thrust_direction(phi) -> tuple[float, float, float]:
    """R(phi) e3 without building the full matrix."""
    rx, ry, rz = float(phi[0]), float(phi[1]), float(phi[2])
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    return (cz * sy * cx + sz * sx, sz * sy * cx - cz * sx, cx * cy)


def draw(rng, shape):
    """Normal values with magnitudes from 1e-6 to 10, so that rounding in
    any regrouped sum shows."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6.0, 1.0, size=shape)


def rk4(f, t: float, y: list, h: float) -> list:
    """One classical 4th-order Runge-Kutta step of y' = f(t, y), y a list."""
    h2 = 0.5 * h
    k1 = f(t, y)
    k2 = f(t + h2, [a + h2 * k for a, k in zip(y, k1)])
    k3 = f(t + h2, [a + h2 * k for a, k in zip(y, k2)])
    k4 = f(t + h, [a + h * k for a, k in zip(y, k3)])
    h6 = h / 6.0
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def translational(T: float, surface, cfg):
    """(p_e + v_e)' = f(t, y, phi, contact) of the plant at attitude phi, a
    list, with the contact law applied if contact is set, on either side of
    the surface."""
    m, mg = cfg.m_t, cfg.m_t * cfg.g
    k_e, b_e, x_fs = surface.k_e, surface.b_e, surface.x_fs
    bx, by, bz = surface.B_f.tolist()
    dist = cfg.disturbance
    fric = dist.tangential_friction
    const = None if any(dist.amp) else dist.const

    def f(t, y, phi, contact):
        px, py, pz, vx, vy, vz = y
        dx, dy, dz = dist.force(t) if const is None else const
        tx, ty, tz = thrust_direction(phi)
        fx = T * tx + dx
        fy = T * ty + dy
        fz = T * tz + dz - mg

        if contact:
            pen = bx * px + by * py + bz * pz - x_fs
            x_dot_f = bx * vx + by * vy + bz * vz
            fn = -k_e * pen - b_e * x_dot_f
            fx += fn * bx
            fy += fn * by
            fz += fn * bz
            if fric > 0.0:
                # viscous tangential friction: -c * B_m B_m^T v_e
                fx -= fric * (vx - x_dot_f * bx)
                fy -= fric * (vy - x_dot_f * by)
                fz -= fric * (vz - x_dot_f * bz)
        return [vx, vy, vz, fx / m, fy / m, fz / m]

    return f


def dynamics(T: float, phi_r, surface, cfg):
    """The plant's y' = f(t, y, contact), y = p_e + v_e + phi, under fixed
    commands, in the contact mode given."""
    tau = cfg.tau_att
    rx_r, ry_r, rz_r = phi_r
    f6 = translational(T, surface, cfg)

    def f(t, y, contact):
        rx, ry, rz = y[6:9]
        dphi = ([(rx_r - rx) / tau, (ry_r - ry) / tau, (rz_r - rz) / tau]
                if tau > 0.0 else [0.0, 0.0, 0.0])
        return f6(t, y[0:6], (rx, ry, rz), contact) + dphi

    return f


def lag(phi0, phi_r, s: float, tau: float) -> list:
    """The attitude s after phi0 under phi' = (phi_r - phi)/tau, phi_r
    held: phi_r + (phi0 - phi_r) e^(-s/tau); phi0 at s = 0, phi_r without
    lag (phi_r + 0.0, which turns -0.0 into +0.0, as RK4 on a zero
    derivative does)."""
    if s == 0.0:
        return list(phi0)
    e = math.exp(-s / tau) if tau > 0.0 else 0.0
    return [r + (p - r) * e for p, r in zip(phi0, phi_r)]


def reference_step(state, T: float, phi_r, surface, cfg, nine_state=False):
    """The nine floats p_e + v_e + phi that plant.step should reach.

    Integrates inside the plant's own contact-event splitting, each RK4
    step of which is rk4 on the six floats p_e + v_e in the contact mode it
    holds, its stages at the attitude lag's closed form at the offsets 0,
    h/2 and h from the step's start (rk4 runs from time 0, so the offsets
    are exact and the stage times add the start). The first step holds the
    mode of the start's side of the surface. With nine_state, each step is
    rk4 on dynamics, the lag integrated with the rest. Returns the state and
    the number of RK4 steps taken, which is more than one when a crossing of
    the surface was split.
    """
    phi_r = [float(v) for v in phi_r]
    tau = cfg.tau_att
    f9 = dynamics(T, phi_r, surface, cfg)
    f6 = translational(T, surface, cfg)
    steps = []

    def rk(t, y, h, contact):
        steps.append(h)
        if nine_state:
            return rk4(lambda t, y: f9(t, y, contact), t, y, h)
        phi0 = y[6:9]
        return rk4(lambda s, y: f6(t + s, y, lag(phi0, phi_r, s, tau), contact),
                   0.0, y[0:6], h) + lag(phi0, phi_r, h, tau)

    phi = phi_r if tau == 0.0 else list(state.phi)
    y = list(state.p_e) + list(state.v_e) + phi
    (bx, by, bz), (px, py, pz) = surface.B_f.tolist(), state.p_e
    contact = bx * px + by * py + bz * pz - surface.x_fs > 0.0
    y1 = plant._step_with_events(rk, surface, y, rk(state.t, y, cfg.dt, contact),
                                 state.t, cfg.dt, contact)
    if tau == 0.0:
        y1[6:9] = phi_r
    return y1, len(steps)
