"""Ground-truth translational dynamics of the aerial manipulator.

The simulated plant integrates the end-effector translational dynamics

    m_t * p_e'' = -m_t * g * e3 + T * R(phi) * e3 + f_e + delta(t)

where the surface reaction f_e follows a unilateral Kelvin-Voigt law along
the surface normal, the attitude follows its reference through a first-order
lag, and delta(t) is a configurable disturbance (constant + per-axis
sinusoid, plus an optional viscous tangential friction term active during
contact).

All quantities are SI (m, s, kg, N, rad). The inertial frame is z-up.
The state and measurement vectors are tuples of Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import cos, inf, sin

import numpy as np


def as_floats(v, n: int) -> tuple:
    """v as a tuple of n Python floats; ValueError if it has another size."""
    return tuple(np.asarray(v, dtype=float).reshape(n).tolist())


# ---------------------------------------------------------------------------
# surface
# ---------------------------------------------------------------------------

@dataclass
class SurfaceModel:
    """Contact surface: orthonormal force/motion basis plus Kelvin-Voigt params.

    B_f points into the surface (the direction along which force is exerted),
    the two columns of B_m span the surface tangent plane. p_s is a point on
    the surface, k_e / b_e the environment stiffness and damping.
    """

    B_f: np.ndarray
    B_m: np.ndarray
    p_s: np.ndarray
    k_e: float = 200.0
    b_e: float = 0.5
    x_fs: float = field(init=False)   # coordinate of p_s along B_f
    B_f_floats: tuple = field(init=False, repr=False)   # B_f as three floats
    B_m_rows: tuple = field(init=False, repr=False)     # B_m as three 2-tuples

    def __post_init__(self):
        self.B_f = np.asarray(self.B_f, dtype=float).reshape(3)
        self.B_m = np.asarray(self.B_m, dtype=float).reshape(3, 2)
        self.p_s = np.asarray(self.p_s, dtype=float).reshape(3)
        for name in ("k_e", "b_e"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"surface {name} must be positive and finite")
        M = np.column_stack([self.B_f, self.B_m])
        err = np.abs(M.T @ M - np.eye(3)).max()
        if not err <= 1e-12:
            raise ValueError(f"[B_f B_m] not orthonormal (max deviation {err:.3e})")
        self.B_f_floats = bx, by, bz = tuple(self.B_f.tolist())
        px, py, pz = self.p_s.tolist()
        self.x_fs = bx * px + by * py + bz * pz     # in floats, left to right
        self.B_m_rows = tuple(map(tuple, self.B_m.tolist()))
        # the plant step's surface constants: k_e, b_e, x_fs, B_f
        self._consts = (self.k_e, self.b_e, self.x_fs, *self.B_f_floats)

    @classmethod
    def from_tilt(cls, tilt_deg: float, yaw_deg: float = 0.0,
                  p_s=(1.0, 0.0, 1.5), k_e: float = 200.0,
                  b_e: float = 0.5) -> "SurfaceModel":
        """Surface tilted from vertical by tilt_deg about the horizontal y axis.

        tilt_deg = 0 is a vertical wall with inward normal +x. Positive tilt
        pitches the inward normal below the horizon. yaw_deg rotates the whole
        frame about e3.
        """
        a = math.radians(tilt_deg)
        psi = math.radians(yaw_deg)
        B_f = np.array([math.cos(a), 0.0, -math.sin(a)])
        m1 = np.array([math.sin(a), 0.0, math.cos(a)])   # up-slope tangent
        m2 = np.array([0.0, 1.0, 0.0])                   # horizontal tangent
        Rz = np.array([[math.cos(psi), -math.sin(psi), 0.0],
                       [math.sin(psi), math.cos(psi), 0.0],
                       [0.0, 0.0, 1.0]])
        return cls(B_f=Rz @ B_f, B_m=np.column_stack([Rz @ m1, Rz @ m2]),
                   p_s=np.asarray(p_s, dtype=float), k_e=k_e, b_e=b_e)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class DisturbanceConfig:
    """Exogenous force on the end-effector dynamics, N.

    delta(t) = const + amp * sin(2*pi*freq_hz*t), per axis, plus an
    optional viscous tangential friction -c_t * B_m B_m^T v_e while in
    contact.
    """

    const: tuple = (0.0, 0.0, 0.0)
    amp: tuple = (0.0, 0.0, 0.0)
    freq_hz: tuple = (0.0, 0.0, 0.0)
    tangential_friction: float = 0.0

    def __post_init__(self):
        for name in ("const", "amp", "freq_hz"):
            setattr(self, name, as_floats(getattr(self, name), 3))
        if not (all(map(math.isfinite, (*self.const, *self.amp, *self.freq_hz)))
                and 0.0 <= self.tangential_friction < math.inf):
            raise ValueError("disturbance must be finite, friction nonnegative")
        # the force when it does not vary, else None
        self._steady = None if any(self.amp) else self.const

    def force(self, t: float) -> tuple:
        """delta(t) as three floats, in numpy's operation order."""
        (c0, c1, c2), (a0, a1, a2), (f0, f1, f2) = self.const, self.amp, self.freq_hz
        w = 2.0 * math.pi
        return (c0 + a0 * sin(w * f0 * t), c1 + a1 * sin(w * f1 * t),
                c2 + a2 * sin(w * f2 * t))


@dataclass
class MeasurementNoise:
    """Additive Gaussian noise std-devs: pos on x_f, x_m; vel on their rates."""

    pos: float = 0.0
    vel: float = 0.0
    f_f: float = 0.0

    def __post_init__(self):
        if not all(0.0 <= v < math.inf for v in (self.pos, self.vel, self.f_f)):
            raise ValueError("noise std-devs must be finite and nonnegative")
        self._any = any(v > 0.0 for v in (self.pos, self.vel, self.f_f))


@dataclass
class PlantConfig:
    m_t: float = 4.2            # true total mass incl. arm, kg
    g: float = 9.81
    tau_att: float = 0.0        # attitude lag time constant, s
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    noise: MeasurementNoise = field(default_factory=MeasurementNoise)
    dt: float = 1e-3

    def __post_init__(self):
        for name in ("m_t", "g", "dt"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.tau_att < math.inf:
            raise ValueError("tau_att must be nonnegative and finite")
        # the plant step's constants: m_t, m_t g, the disturbance terms, when
        # it does not vary its force at the three stage times, and the lag's
        # decay over dt/2 and dt
        d = self.disturbance
        self._consts = (self.m_t, self.m_t * self.g, d, d.tangential_friction,
                        d._steady and (d._steady,) * 3,
                        *_decay(self.dt, self.tau_att))


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class PlantState:
    """The plant's state. The vectors are converted to tuples of floats when
    the state is built, not when a field is assigned later."""

    p_e: tuple[float, float, float]
    v_e: tuple[float, float, float]
    phi: tuple[float, float, float]      # roll, pitch, yaw actually achieved
    in_contact: bool = False
    t: float = 0.0

    def __post_init__(self):
        self.p_e = as_floats(self.p_e, 3)
        self.v_e = as_floats(self.v_e, 3)
        self.phi = as_floats(self.phi, 3)


@dataclass
class Measurement:
    x_f: float
    x_dot_f: float
    x_m: tuple[float, float]
    x_dot_m: tuple[float, float]
    f_f: float

    def __post_init__(self):
        self.x_m = as_floats(self.x_m, 2)
        self.x_dot_m = as_floats(self.x_dot_m, 2)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def contact_force(x_f: float, x_dot_f: float, surface: SurfaceModel) -> float:
    """Normal contact force from the unilateral Kelvin-Voigt law, N.

    Returns -k_e*(x_f - x_fs) - b_e*x_dot_f while penetrated, 0 in free
    space (the surface cannot pull).
    """
    pen = x_f - surface.x_fs
    if pen <= 0.0:
        return 0.0
    return -surface.k_e * pen - surface.b_e * x_dot_f


def _decay(h: float, tau: float) -> tuple:
    """The lag's decay over h/2 and h: e^(-h/2tau), e^(-h/tau); (0, 0) if tau = 0."""
    return (math.exp(-0.5 * h / tau), math.exp(-h / tau)) if tau > 0.0 else (0.0, 0.0)


def _rk4(t, y, h, T, phi_r, surface: SurfaceModel, cfg: PlantConfig, contact):
    """One step y(t) -> y(t + h) of the plant, y = p_e + v_e + phi, in the
    contact mode given: every stage applies the contact law if contact is
    set and none does otherwise, whatever side of the surface it is on.

    phi_r is held over the step, so the lag phi' = (phi_r - phi)/tau_att has
    the closed form phi(s) = phi_r + (phi - phi_r) e^(-s/tau_att), and is
    phi_r without lag. A classical RK4 step integrates p_e and v_e, its
    stages at the attitudes of the offsets 0, h/2 and h; stages 2 and 3
    share one T R(phi) e3 + delta - m g. It is unrolled per state and stage
    with the acceleration written out, in the operation order of rk4 on a
    list (stage k_i of every element, then y + h/6 (k1 + 2 k2 + 2 k3 + k4)),
    so the result is the same to the last bit. The attitude returned is the
    closed form's at h.
    """
    k_e, b_e, x_fs, bx, by, bz = surface._consts
    m, mg, dist, fric, steady, e2, e4 = cfg._consts
    if h != cfg.dt:
        e2, e4 = _decay(h, cfg.tau_att)
    h2 = 0.5 * h
    (rx_r, ry_r, rz_r), (px, py, pz, vx, vy, vz, rx, ry, rz) = phi_r, y
    (dx1, dy1, dz1), (dx2, dy2, dz2), (dx4, dy4, dz4) = steady or (
        dist.force(t), dist.force(t + h2), dist.force(t + h))

    cx, sx, cy, sy, cz, sz = cos(rx), sin(rx), cos(ry), sin(ry), cos(rz), sin(rz)
    fx = T * (cz * sy * cx + sz * sx) + dx1     # T * R(phi) e3, inlined
    fy = T * (sz * sy * cx - cz * sx) + dy1
    fz = T * (cx * cy) + dz1 - mg
    if contact:
        pen = bx * px + by * py + bz * pz - x_fs
        xd = bx * vx + by * vy + bz * vz
        fn = -k_e * pen - b_e * xd
        fx, fy, fz = fx + fn * bx, fy + fn * by, fz + fn * bz
        if fric > 0.0:      # viscous tangential friction: -c B_m B_m^T v_e
            fx, fy, fz = (fx - fric * (vx - xd * bx), fy - fric * (vy - xd * by),
                          fz - fric * (vz - xd * bz))
    ax1, ay1, az1 = fx / m, fy / m, fz / m

    ex, ey, ez = rx - rx_r, ry - ry_r, rz - rz_r
    rx, ry, rz = rx_r + ex * e2, ry_r + ey * e2, rz_r + ez * e2
    cx, sx, cy, sy, cz, sz = cos(rx), sin(rx), cos(ry), sin(ry), cos(rz), sin(rz)
    gx = T * (cz * sy * cx + sz * sx) + dx2     # stages 2 and 3
    gy = T * (sz * sy * cx - cz * sx) + dy2
    gz = T * (cx * cy) + dz2 - mg

    px2, py2, pz2 = px + h2 * vx, py + h2 * vy, pz + h2 * vz
    vx2, vy2, vz2 = vx + h2 * ax1, vy + h2 * ay1, vz + h2 * az1
    fx, fy, fz = gx, gy, gz
    if contact:
        pen = bx * px2 + by * py2 + bz * pz2 - x_fs
        xd = bx * vx2 + by * vy2 + bz * vz2
        fn = -k_e * pen - b_e * xd
        fx, fy, fz = fx + fn * bx, fy + fn * by, fz + fn * bz
        if fric > 0.0:
            fx, fy, fz = (fx - fric * (vx2 - xd * bx), fy - fric * (vy2 - xd * by),
                          fz - fric * (vz2 - xd * bz))
    ax2, ay2, az2 = fx / m, fy / m, fz / m

    px3, py3, pz3 = px + h2 * vx2, py + h2 * vy2, pz + h2 * vz2
    vx3, vy3, vz3 = vx + h2 * ax2, vy + h2 * ay2, vz + h2 * az2
    fx, fy, fz = gx, gy, gz
    if contact:
        pen = bx * px3 + by * py3 + bz * pz3 - x_fs
        xd = bx * vx3 + by * vy3 + bz * vz3
        fn = -k_e * pen - b_e * xd
        fx, fy, fz = fx + fn * bx, fy + fn * by, fz + fn * bz
        if fric > 0.0:
            fx, fy, fz = (fx - fric * (vx3 - xd * bx), fy - fric * (vy3 - xd * by),
                          fz - fric * (vz3 - xd * bz))
    ax3, ay3, az3 = fx / m, fy / m, fz / m

    rx, ry, rz = rx_r + ex * e4, ry_r + ey * e4, rz_r + ez * e4
    cx, sx, cy, sy, cz, sz = cos(rx), sin(rx), cos(ry), sin(ry), cos(rz), sin(rz)
    px4, py4, pz4 = px + h * vx3, py + h * vy3, pz + h * vz3
    vx4, vy4, vz4 = vx + h * ax3, vy + h * ay3, vz + h * az3
    fx = T * (cz * sy * cx + sz * sx) + dx4
    fy = T * (sz * sy * cx - cz * sx) + dy4
    fz = T * (cx * cy) + dz4 - mg
    if contact:
        pen = bx * px4 + by * py4 + bz * pz4 - x_fs
        xd = bx * vx4 + by * vy4 + bz * vz4
        fn = -k_e * pen - b_e * xd
        fx, fy, fz = fx + fn * bx, fy + fn * by, fz + fn * bz
        if fric > 0.0:
            fx, fy, fz = (fx - fric * (vx4 - xd * bx), fy - fric * (vy4 - xd * by),
                          fz - fric * (vz4 - xd * bz))
    ax4, ay4, az4 = fx / m, fy / m, fz / m

    h6 = h / 6.0
    return (px + h6 * (vx + 2.0 * vx2 + 2.0 * vx3 + vx4),
            py + h6 * (vy + 2.0 * vy2 + 2.0 * vy3 + vy4),
            pz + h6 * (vz + 2.0 * vz2 + 2.0 * vz3 + vz4),
            vx + h6 * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
            vy + h6 * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
            vz + h6 * (az1 + 2.0 * az2 + 2.0 * az3 + az4), rx, ry, rz)


_MAX_SPLITS = 8


def _step_with_events(rk, surface, y, y1, t, h, contact):
    """Step y -> y1 = rk(t, y, h, contact), splitting where the surface is
    crossed.

    While a substep ends on the other side of the surface from its mode, it
    is split once where its penetration, interpolated linearly between its
    ends, crosses zero: the mode is held up to there and flipped for the
    rest. A split point at either end of the substep keeps y1.
    """
    _, _, x_fs, bx, by, bz = surface._consts
    for _ in range(_MAX_SPLITS):
        pen1 = bx * y1[0] + by * y1[1] + bz * y1[2] - x_fs
        if (pen1 > 0.0) == contact:
            return y1
        pen0 = bx * y[0] + by * y[1] + bz * y[2] - x_fs
        s = h * pen0 / (pen0 - pen1)
        if not 0.0 < s < h:
            return y1
        y = rk(t, y, s, contact)
        t, h, contact = t + s, h - s, not contact
        y1 = rk(t, y, h, contact)
    return y1


def step(state: PlantState, T: float, phi_r, surface: SurfaceModel,
         cfg: PlantConfig) -> PlantState:
    """Integrate the plant one dt under constant thrust/attitude commands."""
    try:
        rx_r, ry_r, rz_r = phi_r
    except ValueError:          # not three angles: fail the check below
        rx_r = ry_r = rz_r = inf
    phi_r = rx_r, ry_r, rz_r = float(rx_r), float(ry_r), float(rz_r)
    if not (-inf < T < inf and -inf < rx_r < inf and -inf < ry_r < inf
            and -inf < rz_r < inf):
        raise ValueError("plant inputs must be finite, with three angles")
    if T < 0.0:
        raise ValueError("thrust must be nonnegative")

    no_lag = cfg.tau_att == 0.0
    y = (*state.p_e, *state.v_e, *(phi_r if no_lag else state.phi))
    t, h = state.t, cfg.dt
    _, _, x_fs, bx, by, bz = surface._consts
    contact = bx * y[0] + by * y[1] + bz * y[2] - x_fs > 0.0
    y1 = _rk4(t, y, h, T, phi_r, surface, cfg, contact)
    px, py, pz, vx, vy, vz, rx, ry, rz = y1
    in_contact = bx * px + by * py + bz * pz - x_fs > 0.0
    if in_contact != contact:
        px, py, pz, vx, vy, vz, rx, ry, rz = _step_with_events(
            lambda t, y, h, c: _rk4(t, y, h, T, phi_r, surface, cfg, c),
            surface, y, y1, t, h, contact)
        in_contact = bx * px + by * py + bz * pz - x_fs > 0.0
    # the fields already have their types: skip __post_init__'s conversion
    s = object.__new__(PlantState)
    s.p_e, s.v_e, s.phi, s.in_contact, s.t = (px, py, pz), (vx, vy, vz), (
        phi_r if no_lag else (rx, ry, rz)), in_contact, t + h
    return s


def measure(state: PlantState, surface: SurfaceModel, cfg: PlantConfig,
            rng: np.random.Generator | None = None) -> Measurement:
    """Project the true state onto force/motion coordinates, with sensor noise."""
    (px, py, pz), (vx, vy, vz) = state.p_e, state.v_e
    bx, by, bz = surface.B_f_floats
    (m00, m01), (m10, m11), (m20, m21) = surface.B_m_rows
    x_f = bx * px + by * py + bz * pz
    x_dot_f = bx * vx + by * vy + bz * vz
    x_m = (m00 * px + m10 * py + m20 * pz, m01 * px + m11 * py + m21 * pz)
    x_dot_m = (m00 * vx + m10 * vy + m20 * vz, m01 * vx + m11 * vy + m21 * vz)
    f_f = contact_force(x_f, x_dot_f, surface)
    n = cfg.noise
    if rng is not None and n._any:
        # one draw, in the order x_f, x_dot_f, x_m, x_dot_m, f_f
        e0, e1, e2, e3, e4, e5, e6 = rng.standard_normal(7).tolist()
        pos, vel, (x0, x1), (v0, v1) = n.pos, n.vel, x_m, x_dot_m
        x_f += pos * e0
        x_dot_f += vel * e1
        x_m = (x0 + pos * e2, x1 + pos * e3)
        x_dot_m = (v0 + vel * e4, v1 + vel * e5)
        f_f += n.f_f * e6
    # the fields already have their types: skip __post_init__'s conversion
    m = object.__new__(Measurement)
    m.x_f, m.x_dot_f, m.x_m, m.x_dot_m, m.f_f = x_f, x_dot_f, x_m, x_dot_m, f_f
    return m
