"""Switching motion/force control law, disturbance observers and input extraction.

The desired force-space input is a PD position law in free flight and a
force feedback law in contact; the motion-plane law is a PD tracker. Both
subtract a disturbance-observer estimate of the lumped unmodeled force. The
total desired input u_e = B_f*u_f + B_m*u_m is then converted into total
thrust and roll/pitch references through the yaw-aligned extraction

    T = (Psi u_e)_3 / (c_rx c_ry)
    phi_x_r = asin((Psi u_e)_2 / T),  phi_y_r = asin((Psi u_e)_1 / (T c_rx))

which has the commanded u_e as its fixed point when the attitude settles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plant import Measurement, SurfaceModel, thrust_direction
from .reference import FREE, ReferenceState


class InfeasibleInput(Exception):
    """Raised when a desired input cannot be realized by thrust and tilt."""


@dataclass
class GainSet:
    k_p: float = 23.5
    k_d: float = 19.5
    K_mp: float = 23.5           # motion-plane gains, the same on both axes
    K_md: float = 19.5
    k_f: float = 0.55            # scheduled force gains (live values)
    b_f: float = 25.0
    L_f: float = 10.0
    L_m: float = 10.0
    m_bar: float = 4.2           # nominal mass, kg
    g_bar: float = 9.81

    def __post_init__(self):
        if min(self.k_p, self.k_d, self.K_mp, self.K_md, self.L_f, self.L_m,
               self.m_bar) <= 0.0:
            raise ValueError("controller gains must be positive")


@dataclass
class DOBState:
    z_f: float = 0.0
    z_m: np.ndarray = field(default_factory=lambda: np.zeros(2))

    def __post_init__(self):
        self.z_m = np.asarray(self.z_m, dtype=float).reshape(2)


def dob_estimates(dob: DOBState, meas: Measurement,
                  gains: GainSet) -> tuple[float, np.ndarray]:
    """Current disturbance estimates Delta_hat = z + nu (no state change)."""
    nu_f = gains.m_bar * gains.L_f * meas.x_dot_f
    nu_m = gains.m_bar * (gains.L_m * meas.x_dot_m)
    return dob.z_f + nu_f, dob.z_m + nu_m


def dob_update(dob: DOBState, meas: Measurement, u_bar_f: float, u_bar_m,
               gains: GainSet, surface: SurfaceModel, in_contact: bool,
               dt: float) -> DOBState:
    """Advance both observers one step under the applied inputs.

    The estimates a control law uses at the current sample come from
    dob_estimates on the state *before* this update. The z dynamics

        z_f' = -L_f z_f + L_f(m_bar g_bar B_f^T e3 - f_f - u_bar_f - nu_f)

    are discretized exactly under a zero-order hold of the inputs; the
    measured force enters only while contact is detected.
    """
    u_bar_m = np.asarray(u_bar_m, dtype=float).reshape(2)
    g_f = gains.m_bar * gains.g_bar * float(surface.B_f[2])
    g_m = gains.m_bar * gains.g_bar * surface.B_m[2]
    f_f = meas.f_f if in_contact else 0.0

    nu_f = gains.m_bar * gains.L_f * meas.x_dot_f
    s_f = g_f - f_f - u_bar_f - nu_f
    a = math.exp(-gains.L_f * dt)
    z_f = a * dob.z_f + (1.0 - a) * s_f

    nu_m = gains.m_bar * (gains.L_m * meas.x_dot_m)
    s_m = g_m - u_bar_m - nu_m
    b = math.exp(-gains.L_m * dt)
    z_m = b * dob.z_m + (1.0 - b) * s_m

    return DOBState(z_f=z_f, z_m=z_m)


def control_force(ref: ReferenceState, meas: Measurement, delta_f_hat: float,
                  gains: GainSet, surface: SurfaceModel) -> float:
    """Desired force-space input for the reference's mode, N."""
    g_term = gains.m_bar * gains.g_bar * float(surface.B_f[2])
    e_xf = ref.x_fr - meas.x_f
    e_xf_dot = ref.x_fr_dot - meas.x_dot_f
    if ref.mode == FREE:
        return (gains.m_bar * ref.x_fr_ddot + gains.k_d * e_xf_dot
                + gains.k_p * e_xf + g_term - delta_f_hat)
    e_ff = ref.f_fr - meas.f_f
    return (gains.m_bar * ref.x_fr_ddot - ref.f_fr - gains.k_f * e_ff
            + gains.b_f * e_xf_dot + g_term - delta_f_hat)


def control_motion(ref: ReferenceState, meas: Measurement, delta_m_hat,
                   gains: GainSet, surface: SurfaceModel) -> np.ndarray:
    """Desired motion-plane input, N (2-vector)."""
    delta_m_hat = np.asarray(delta_m_hat, dtype=float).reshape(2)
    e_xm = ref.x_mr - meas.x_m
    e_xm_dot = ref.x_mr_dot - meas.x_dot_m
    g_term = gains.m_bar * gains.g_bar * surface.B_m[2]
    return (gains.m_bar * ref.x_mr_ddot + gains.K_md * e_xm_dot
            + gains.K_mp * e_xm + g_term - delta_m_hat)


def compose_u(u_bar_f: float, u_bar_m, surface: SurfaceModel) -> np.ndarray:
    """Recombine force/motion inputs into the inertial desired input."""
    u_bar_m = np.asarray(u_bar_m, dtype=float).reshape(2)
    return u_bar_f * surface.B_f + surface.B_m @ u_bar_m


def _psi(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, s, 0.0], [s, -c, 0.0], [0.0, 0.0, 1.0]])


def extract_inputs(u_bar_e, phi) -> tuple[float, float, float]:
    """Extract (T, phi_x_r, phi_y_r) realizing u_bar_e at the current attitude.

    Raises InfeasibleInput when the attitude is at the extraction
    singularity, the vertical component is not positive, or an asin argument
    leaves [-1, 1].
    """
    u = np.asarray(u_bar_e, dtype=float).reshape(3)
    phi_x, phi_y, phi_z = float(phi[0]), float(phi[1]), float(phi[2])
    if abs(phi_x) >= 0.5 * math.pi or abs(phi_y) >= 0.5 * math.pi:
        raise InfeasibleInput("roll/pitch at extraction singularity")
    a = _psi(phi_z) @ u
    if a[2] <= 0.0:
        raise InfeasibleInput("desired input has no upward component")
    T = a[2] / (math.cos(phi_x) * math.cos(phi_y))
    s_x = a[1] / T
    if abs(s_x) > 1.0:
        raise InfeasibleInput("roll extraction out of range")
    phi_x_r = math.asin(s_x)
    s_y = a[0] / (T * math.cos(phi_x))
    if abs(s_y) > 1.0:
        raise InfeasibleInput("pitch extraction out of range")
    phi_y_r = math.asin(s_y)
    return T, phi_x_r, phi_y_r


def invert_inputs(u_bar_e, yaw: float) -> tuple[float, float, float]:
    """Closed-form fixed point of the extraction: exact (T, roll, pitch).

    Solves T * R([roll, pitch, yaw]) e3 = u_bar_e directly; the iterated
    extraction converges to this solution.
    """
    u = np.asarray(u_bar_e, dtype=float).reshape(3)
    a = _psi(yaw) @ u
    T = float(np.linalg.norm(a))
    if T <= 0.0 or a[2] <= 0.0:
        raise InfeasibleInput("desired input has no upward component")
    roll = math.asin(a[1] / T)
    pitch = math.atan2(a[0], a[2])
    return T, roll, pitch


def recompose(T: float, phi) -> np.ndarray:
    """u_e = T R(phi) e3 for round-trip checks."""
    tx, ty, tz = thrust_direction(phi)
    return T * np.array([tx, ty, tz])
