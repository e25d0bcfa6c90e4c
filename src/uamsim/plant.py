"""Ground-truth translational dynamics of the aerial manipulator.

The simulated plant integrates the end-effector translational dynamics

    m_t * p_e'' = -m_t * g * e3 + T * R(phi) * e3 + f_e + delta(t)

where the surface reaction f_e follows a unilateral Kelvin-Voigt law along
the surface normal, the attitude follows its reference through a first-order
lag, and delta(t) is a configurable disturbance (constant + per-axis
sinusoid, plus an optional viscous tangential friction term active during
contact).

All quantities are SI (m, s, kg, N, rad). The inertial frame is z-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])


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

    def __post_init__(self):
        self.B_f = np.asarray(self.B_f, dtype=float).reshape(3)
        self.B_m = np.asarray(self.B_m, dtype=float).reshape(3, 2)
        self.p_s = np.asarray(self.p_s, dtype=float).reshape(3)
        if self.k_e <= 0.0 or self.b_e <= 0.0:
            raise ValueError("surface stiffness/damping must be positive")
        self.validate_basis()

    def validate_basis(self, tol: float = 1e-12) -> None:
        """Check [B_f B_m] is orthonormal to within tol."""
        M = np.column_stack([self.B_f, self.B_m])
        err = np.abs(M.T @ M - np.eye(3)).max()
        if err > tol:
            raise ValueError(f"[B_f B_m] not orthonormal (max deviation {err:.3e})")

    @property
    def x_fs(self) -> float:
        """Surface coordinate of the contact point along B_f."""
        return float(self.B_f @ self.p_s)

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

    const: np.ndarray = field(default_factory=lambda: np.zeros(3))
    amp: np.ndarray = field(default_factory=lambda: np.zeros(3))
    freq_hz: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tangential_friction: float = 0.0

    def __post_init__(self):
        for name in ("const", "amp", "freq_hz"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))

    def force(self, t: float) -> np.ndarray:
        if not self.amp.any():
            return self.const
        return self.const + self.amp * np.sin(2.0 * math.pi * self.freq_hz * t)


@dataclass
class MeasurementNoise:
    """Additive Gaussian noise std-devs: pos on x_f, x_m; vel on their rates."""

    pos: float = 0.0
    vel: float = 0.0
    f_f: float = 0.0

    def any(self) -> bool:
        return any(v > 0.0 for v in (self.pos, self.vel, self.f_f))


@dataclass
class PlantConfig:
    m_t: float = 4.2            # true total mass incl. arm, kg
    g: float = 9.81
    tau_att: float = 0.0        # attitude lag time constant, s
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    noise: MeasurementNoise = field(default_factory=MeasurementNoise)
    dt: float = 1e-3

    def __post_init__(self):
        if self.m_t <= 0.0:
            raise ValueError("m_t must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.tau_att < 0.0:
            raise ValueError("tau_att must be nonnegative")


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

@dataclass
class PlantState:
    p_e: np.ndarray
    v_e: np.ndarray
    phi: np.ndarray                      # roll, pitch, yaw actually achieved
    in_contact: bool = False
    t: float = 0.0

    def __post_init__(self):
        self.p_e = np.asarray(self.p_e, dtype=float).reshape(3)
        self.v_e = np.asarray(self.v_e, dtype=float).reshape(3)
        self.phi = np.asarray(self.phi, dtype=float).reshape(3)


@dataclass
class Measurement:
    x_f: float
    x_dot_f: float
    x_m: np.ndarray
    x_dot_m: np.ndarray
    f_f: float


# ---------------------------------------------------------------------------
# kinematics helpers
# ---------------------------------------------------------------------------

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
    """R(phi) e3 without building the full matrix (hot path)."""
    rx, ry, rz = float(phi[0]), float(phi[1]), float(phi[2])
    cx, sx = math.cos(rx), math.sin(rx)
    cy, sy = math.cos(ry), math.sin(ry)
    cz, sz = math.cos(rz), math.sin(rz)
    return (cz * sy * cx + sz * sx, sz * sy * cx - cz * sx, cx * cy)


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


def _deriv(y, t, T, phi_r, surface, cfg, bf, bfx_fs, fric):
    """Time derivative of y = (p_e, v_e, phi); scalar math on the hot path."""
    px, py, pz, vx, vy, vz = y[0], y[1], y[2], y[3], y[4], y[5]
    m = cfg.m_t

    tx, ty, tz = thrust_direction(y[6:9])

    dist = cfg.disturbance.force(t)
    fx = T * tx + dist[0]
    fy = T * ty + dist[1]
    fz = T * tz + dist[2] - m * cfg.g

    x_f = bf[0] * px + bf[1] * py + bf[2] * pz
    pen = x_f - bfx_fs
    if pen > 0.0:
        x_dot_f = bf[0] * vx + bf[1] * vy + bf[2] * vz
        f = -surface.k_e * pen - surface.b_e * x_dot_f
        fx += f * bf[0]
        fy += f * bf[1]
        fz += f * bf[2]
        if fric > 0.0:
            # viscous tangential friction: -c * B_m B_m^T v_e
            vt = np.array([vx, vy, vz]) - x_dot_f * bf
            fx -= fric * vt[0]
            fy -= fric * vt[1]
            fz -= fric * vt[2]

    out = np.empty(9)
    out[0], out[1], out[2] = vx, vy, vz
    out[3], out[4], out[5] = fx / m, fy / m, fz / m
    if cfg.tau_att > 0.0:
        out[6:9] = (phi_r - y[6:9]) / cfg.tau_att
    else:
        out[6:9] = 0.0
    return out


def _rk4(y, t, h, T, phi_r, surface, cfg, bf, bfx_fs, fric):
    k1 = _deriv(y, t, T, phi_r, surface, cfg, bf, bfx_fs, fric)
    k2 = _deriv(y + 0.5 * h * k1, t + 0.5 * h, T, phi_r, surface, cfg, bf, bfx_fs, fric)
    k3 = _deriv(y + 0.5 * h * k2, t + 0.5 * h, T, phi_r, surface, cfg, bf, bfx_fs, fric)
    k4 = _deriv(y + h * k3, t + h, T, phi_r, surface, cfg, bf, bfx_fs, fric)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _penetration(y, bf, bfx_fs) -> float:
    return bf[0] * y[0] + bf[1] * y[1] + bf[2] * y[2] - bfx_fs


_BISECT_TOL = 1e-6   # m, penetration resolution at a contact switch
_MAX_SPLITS = 8


def _step_with_events(y, t, h, T, phi_r, surface, cfg, bf, bfx_fs, fric, depth=0):
    """RK4 step of length h, subdividing at contact boundary crossings."""
    y1 = _rk4(y, t, h, T, phi_r, surface, cfg, bf, bfx_fs, fric)
    pen0 = _penetration(y, bf, bfx_fs)
    pen1 = _penetration(y1, bf, bfx_fs)
    if depth >= _MAX_SPLITS or (pen0 > 0.0) == (pen1 > 0.0):
        return y1
    if abs(pen1) <= _BISECT_TOL:
        return y1
    # bisect the substep length until the crossing state is on the boundary
    lo, hi = 0.0, h
    yc = y1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ym = _rk4(y, t, mid, T, phi_r, surface, cfg, bf, bfx_fs, fric)
        pm = _penetration(ym, bf, bfx_fs)
        if (pm > 0.0) == (pen0 > 0.0):
            lo = mid
        else:
            hi = mid
            yc = ym
        if abs(pm) <= _BISECT_TOL:
            yc = ym
            hi = mid
            break
    h_used = hi
    rem = h - h_used
    if rem <= 0.0:
        return yc
    return _step_with_events(yc, t + h_used, rem, T, phi_r, surface, cfg,
                             bf, bfx_fs, fric, depth + 1)


def step(state: PlantState, T: float, phi_r, surface: SurfaceModel,
         cfg: PlantConfig) -> PlantState:
    """Integrate the plant one dt under constant thrust/attitude commands."""
    phi_r = np.asarray(phi_r, dtype=float).reshape(3)
    if not (math.isfinite(T) and np.all(np.isfinite(phi_r))):
        raise ValueError("non-finite plant inputs")
    if T < 0.0:
        raise ValueError("thrust must be nonnegative")

    y = np.empty(9)
    y[0:3] = state.p_e
    y[3:6] = state.v_e
    y[6:9] = state.phi

    bf = surface.B_f
    bfx_fs = surface.x_fs
    fric = cfg.disturbance.tangential_friction

    if cfg.tau_att == 0.0:
        y[6:9] = phi_r

    y1 = _step_with_events(y, state.t, cfg.dt, T, phi_r, surface, cfg,
                           bf, bfx_fs, fric)
    if cfg.tau_att == 0.0:
        y1[6:9] = phi_r

    pen = _penetration(y1, bf, bfx_fs)
    return PlantState(p_e=y1[0:3], v_e=y1[3:6], phi=y1[6:9],
                      in_contact=pen > 0.0, t=state.t + cfg.dt)


def measure(state: PlantState, surface: SurfaceModel, cfg: PlantConfig,
            rng: np.random.Generator | None = None) -> Measurement:
    """Project the true state onto force/motion coordinates, with sensor noise."""
    x_f = float(surface.B_f @ state.p_e)
    x_dot_f = float(surface.B_f @ state.v_e)
    x_m = surface.B_m.T @ state.p_e
    x_dot_m = surface.B_m.T @ state.v_e
    f_f = contact_force(x_f, x_dot_f, surface)
    n = cfg.noise
    if rng is not None and n.any():
        x_f += n.pos * rng.standard_normal()
        x_dot_f += n.vel * rng.standard_normal()
        x_m = x_m + n.pos * rng.standard_normal(2)
        x_dot_m = x_dot_m + n.vel * rng.standard_normal(2)
        f_f += n.f_f * rng.standard_normal()
    return Measurement(x_f=x_f, x_dot_f=x_dot_f, x_m=x_m, x_dot_m=x_dot_m, f_f=f_f)

