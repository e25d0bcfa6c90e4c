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
from dataclasses import dataclass, fields

from .plant import Measurement, SurfaceModel
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
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"controller gain {f.name} must be positive and finite")


@dataclass
class DOBState:
    z_f: float = 0.0
    z_m: tuple[float, float] = (0.0, 0.0)


def dob_estimates(dob: DOBState, meas: Measurement,
                  gains: GainSet) -> tuple[float, tuple[float, float]]:
    """Current disturbance estimates Delta_hat = z + nu (no state change)."""
    m_bar, L_m = gains.m_bar, gains.L_m
    z0, z1 = dob.z_m
    v0, v1 = meas.x_dot_m
    return (dob.z_f + m_bar * gains.L_f * meas.x_dot_f,
            (z0 + m_bar * (L_m * v0), z1 + m_bar * (L_m * v1)))


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
    m_bar, L_m = gains.m_bar, gains.L_m
    mg = m_bar * gains.g_bar
    f_f = meas.f_f if in_contact else 0.0

    nu_f = m_bar * gains.L_f * meas.x_dot_f
    s_f = mg * surface.B_f_floats[2] - f_f - u_bar_f - nu_f
    a = math.exp(-gains.L_f * dt)
    z_f = a * dob.z_f + (1.0 - a) * s_f

    g0, g1 = surface.B_m_rows[2]
    u0, u1 = u_bar_m
    v0, v1 = meas.x_dot_m
    z0, z1 = dob.z_m
    s0 = mg * g0 - u0 - m_bar * (L_m * v0)
    s1 = mg * g1 - u1 - m_bar * (L_m * v1)
    b = math.exp(-L_m * dt)
    c = 1.0 - b
    out = object.__new__(DOBState)       # skip the dataclass __init__
    out.z_f, out.z_m = z_f, (b * z0 + c * s0, b * z1 + c * s1)
    return out


def control_force(ref: ReferenceState, meas: Measurement, delta_f_hat: float,
                  gains: GainSet, surface: SurfaceModel) -> float:
    """Desired force-space input for the reference's mode, N."""
    g_term = gains.m_bar * gains.g_bar * surface.B_f_floats[2]
    e_xf = ref.x_fr - meas.x_f
    e_xf_dot = ref.x_fr_dot - meas.x_dot_f
    if ref.mode == FREE:
        return (gains.m_bar * ref.x_fr_ddot + gains.k_d * e_xf_dot
                + gains.k_p * e_xf + g_term - delta_f_hat)
    e_ff = ref.f_fr - meas.f_f
    return (gains.m_bar * ref.x_fr_ddot - ref.f_fr - gains.k_f * e_ff
            + gains.b_f * e_xf_dot + g_term - delta_f_hat)


def control_motion(ref: ReferenceState, meas: Measurement, delta_m_hat,
                   gains: GainSet, surface: SurfaceModel) -> tuple[float, float]:
    """Desired motion-plane input, N (2-vector)."""
    m_bar, K_mp, K_md = gains.m_bar, gains.K_mp, gains.K_md
    mg = m_bar * gains.g_bar
    g0, g1 = surface.B_m_rows[2]
    r0, r1 = ref.x_mr
    rd0, rd1 = ref.x_mr_dot
    rdd0, rdd1 = ref.x_mr_ddot
    x0, x1 = meas.x_m
    xd0, xd1 = meas.x_dot_m
    d0, d1 = delta_m_hat
    return (m_bar * rdd0 + K_md * (rd0 - xd0) + K_mp * (r0 - x0) + mg * g0 - d0,
            m_bar * rdd1 + K_md * (rd1 - xd1) + K_mp * (r1 - x1) + mg * g1 - d1)


def compose_u(u_bar_f: float, u_bar_m, surface: SurfaceModel) -> tuple:
    """Recombine force/motion inputs into the inertial desired input."""
    b0, b1, b2 = surface.B_f_floats
    (m00, m01), (m10, m11), (m20, m21) = surface.B_m_rows
    u0, u1 = u_bar_m
    return (u_bar_f * b0 + (m00 * u0 + m01 * u1),
            u_bar_f * b1 + (m10 * u0 + m11 * u1),
            u_bar_f * b2 + (m20 * u0 + m21 * u1))


def extract_inputs(u_bar_e, phi) -> tuple[float, float, float]:
    """Extract (T, phi_x_r, phi_y_r) realizing u_bar_e at the current attitude.

    Raises InfeasibleInput when the attitude is at the extraction
    singularity, the vertical component is not positive, or an asin argument
    leaves [-1, 1].
    """
    phi_x, phi_y, phi_z = phi
    if abs(phi_x) >= 0.5 * math.pi or abs(phi_y) >= 0.5 * math.pi:
        raise InfeasibleInput("roll/pitch at extraction singularity")
    c, s = math.cos(phi_z), math.sin(phi_z)
    u0, u1, a_z = u_bar_e
    a_x, a_y = c * u0 + s * u1, s * u0 - c * u1            # Psi u_bar_e
    if a_z <= 0.0:
        raise InfeasibleInput("desired input has no upward component")
    T = a_z / (math.cos(phi_x) * math.cos(phi_y))
    s_x = a_y / T
    if abs(s_x) > 1.0:
        raise InfeasibleInput("roll extraction out of range")
    phi_x_r = math.asin(s_x)
    s_y = a_x / (T * math.cos(phi_x))
    if abs(s_y) > 1.0:
        raise InfeasibleInput("pitch extraction out of range")
    phi_y_r = math.asin(s_y)
    return T, phi_x_r, phi_y_r


def invert_inputs(u_bar_e, yaw: float) -> tuple[float, float, float]:
    """Closed-form fixed point of the extraction: exact (T, roll, pitch).

    Solves T * R([roll, pitch, yaw]) e3 = u_bar_e directly; the iterated
    extraction converges to this solution.
    """
    c, s = math.cos(yaw), math.sin(yaw)
    u0, u1, a_z = u_bar_e
    a_x, a_y = c * u0 + s * u1, s * u0 - c * u1            # Psi u_bar_e
    T = math.hypot(a_x, a_y, a_z)
    if T <= 0.0 or a_z <= 0.0:
        raise InfeasibleInput("desired input has no upward component")
    return T, math.asin(a_y / T), math.atan2(a_x, a_z)
