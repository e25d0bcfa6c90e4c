"""Smooth motion/force reference generation.

Raw setpoints are filtered into twice-differentiable references by a
critically damped second-order tracker. In free flight both the
force-direction position and the motion-plane positions are smoothed and the
force reference is pinned to zero. In contact the force reference is
smoothed instead, and the force-direction position reference is slaved to it
through the estimated surface model so the two stay consistent:

    x_fr'' = -(k_hat/b_hat) x_fr' - (1/b_hat) f_fr'

Mode hand-offs keep position/velocity references continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .estimator import EnvEstimate

FREE = "free"
CONTACT = "contact"


@dataclass
class ReferenceState:
    x_fr: float = 0.0
    x_fr_dot: float = 0.0
    x_fr_ddot: float = 0.0
    f_fr: float = 0.0
    f_fr_dot: float = 0.0
    x_mr: np.ndarray = field(default_factory=lambda: np.zeros(2))
    x_mr_dot: np.ndarray = field(default_factory=lambda: np.zeros(2))
    x_mr_ddot: np.ndarray = field(default_factory=lambda: np.zeros(2))
    mode: str = FREE

    def __post_init__(self):
        self.x_mr = np.asarray(self.x_mr, dtype=float).reshape(2)
        self.x_mr_dot = np.asarray(self.x_mr_dot, dtype=float).reshape(2)
        self.x_mr_ddot = np.asarray(self.x_mr_ddot, dtype=float).reshape(2)

    @classmethod
    def at_rest(cls, x_f: float, x_m) -> "ReferenceState":
        return cls(x_fr=x_f, x_mr=np.asarray(x_m, dtype=float))


def _track_step(x: float, v: float, target: float, wn: float, h: float):
    """One RK4 step of x'' = -2 wn x' - wn^2 (x - target)."""
    def f(xx, vv):
        return vv, -2.0 * wn * vv - wn * wn * (xx - target)

    k1x, k1v = f(x, v)
    k2x, k2v = f(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = f(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = f(x + h * k3x, v + h * k3v)
    x1 = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    v1 = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return x1, v1


def _motion_step(ref: ReferenceState, x_md, omega_n: float, dt: float):
    x_md = np.asarray(x_md, dtype=float).reshape(2)
    xm = ref.x_mr.copy()
    vm = ref.x_mr_dot.copy()
    for i in range(2):
        xm[i], vm[i] = _track_step(xm[i], vm[i], x_md[i], omega_n, dt)
    am = -2.0 * omega_n * vm - omega_n ** 2 * (xm - x_md)
    return xm, vm, am


def free_step(ref: ReferenceState, x_fd: float, x_md, omega_n: float,
              dt: float) -> ReferenceState:
    """Advance the free-flight generator one controller step."""
    if ref.mode != FREE:
        raise ValueError("free_step called while not in free mode")
    if omega_n <= 0.0:
        raise ValueError("omega_n must be positive")
    xf, vf = _track_step(ref.x_fr, ref.x_fr_dot, x_fd, omega_n, dt)
    af = -2.0 * omega_n * vf - omega_n ** 2 * (xf - x_fd)
    xm, vm, am = _motion_step(ref, x_md, omega_n, dt)
    return ReferenceState(x_fr=xf, x_fr_dot=vf, x_fr_ddot=af,
                          f_fr=0.0, f_fr_dot=0.0,
                          x_mr=xm, x_mr_dot=vm, x_mr_ddot=am, mode=FREE)


def contact_step(ref: ReferenceState, f_fd: float, x_md, est: EnvEstimate,
                 omega_n: float, dt: float) -> ReferenceState:
    """Advance the contact generator one controller step.

    The coupled (f_fr, x_fr) system is integrated with RK4; the position
    equation has a pole at -k_hat/b_hat which can be much faster than the
    controller rate, so the step is subdivided to keep the integration
    stable for any admissible estimate.
    """
    if ref.mode != CONTACT:
        raise ValueError("contact_step called while not in contact mode")
    if omega_n <= 0.0:
        raise ValueError("omega_n must be positive")
    if not est.b_hat > 0.0:
        raise ValueError("estimated damping b_hat must be positive")
    kb = est.k_hat / est.b_hat
    inv_b = 1.0 / est.b_hat

    n_sub = max(1, math.ceil(kb * dt / 0.5))
    h = dt / n_sub
    f, fd = ref.f_fr, ref.f_fr_dot
    x, v = ref.x_fr, ref.x_fr_dot

    def deriv(ff, ffd, xx, vv):
        fdd = -2.0 * omega_n * ffd - omega_n ** 2 * (ff - f_fd)
        xdd = -kb * vv - inv_b * ffd
        return ffd, fdd, vv, xdd

    for _ in range(n_sub):
        k1 = deriv(f, fd, x, v)
        k2 = deriv(f + 0.5 * h * k1[0], fd + 0.5 * h * k1[1],
                   x + 0.5 * h * k1[2], v + 0.5 * h * k1[3])
        k3 = deriv(f + 0.5 * h * k2[0], fd + 0.5 * h * k2[1],
                   x + 0.5 * h * k2[2], v + 0.5 * h * k2[3])
        k4 = deriv(f + h * k3[0], fd + h * k3[1], x + h * k3[2], v + h * k3[3])
        f += (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        fd += (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        x += (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        v += (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])

    xm, vm, am = _motion_step(ref, x_md, omega_n, dt)
    return ReferenceState(
        x_fr=x, x_fr_dot=v, x_fr_ddot=-kb * v - inv_b * fd,
        f_fr=f, f_fr_dot=fd,
        x_mr=xm, x_mr_dot=vm, x_mr_ddot=am, mode=CONTACT)


def switch_mode(ref: ReferenceState, new_mode: str,
                f_f_measured: float = 0.0) -> ReferenceState:
    """Hand the generator over to the other mode.

    Position/velocity references carry over continuously. Entering contact
    initializes the force reference at the currently measured force with
    zero rate; returning to free flight resets it to zero.
    """
    if new_mode == ref.mode:
        raise ValueError("switch_mode requires a different mode")
    if new_mode == CONTACT:
        return replace(ref, mode=CONTACT, f_fr=float(f_f_measured), f_fr_dot=0.0)
    if new_mode == FREE:
        return replace(ref, mode=FREE, f_fr=0.0, f_fr_dot=0.0)
    raise ValueError(f"unknown mode {new_mode!r}")
