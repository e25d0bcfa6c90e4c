"""Smooth motion/force reference generation.

Raw setpoints are filtered into twice-differentiable references by a
critically damped second-order tracker. In free flight both the
force-direction position and the motion-plane positions are smoothed and the
force reference is pinned to zero. In contact the force reference is
smoothed instead, and the force-direction position reference is slaved to it
through the estimated surface model so the two stay consistent:

    x_fr'' = -(k_hat/b_hat) x_fr' - (1/b_hat) f_fr'

Mode hand-offs keep position/velocity references continuous. The
motion-plane references are tuples of two Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .estimator import EnvEstimate
from .plant import as_floats

FREE = "free"
CONTACT = "contact"


@dataclass
class ReferenceState:
    x_fr: float = 0.0
    x_fr_dot: float = 0.0
    x_fr_ddot: float = 0.0
    f_fr: float = 0.0
    f_fr_dot: float = 0.0
    x_mr: tuple[float, float] = (0.0, 0.0)
    x_mr_dot: tuple[float, float] = (0.0, 0.0)
    x_mr_ddot: tuple[float, float] = (0.0, 0.0)
    mode: str = FREE

    def __post_init__(self):
        self.x_mr = as_floats(self.x_mr, 2)
        self.x_mr_dot = as_floats(self.x_mr_dot, 2)
        self.x_mr_ddot = as_floats(self.x_mr_ddot, 2)


def _reference(x_fr, x_fr_dot, x_fr_ddot, f_fr, f_fr_dot, x_mr, x_mr_dot,
               x_mr_ddot, mode) -> ReferenceState:
    """A ReferenceState from values that already have the field types."""
    r = object.__new__(ReferenceState)
    r.x_fr, r.x_fr_dot, r.x_fr_ddot, r.f_fr, r.f_fr_dot = (
        x_fr, x_fr_dot, x_fr_ddot, f_fr, f_fr_dot)
    r.x_mr, r.x_mr_dot, r.x_mr_ddot, r.mode = x_mr, x_mr_dot, x_mr_ddot, mode
    return r


def _setpoint(x_md) -> tuple[float, float]:
    x_md = tuple(map(float, x_md))
    if len(x_md) != 2:
        raise ValueError("the motion setpoint must have two elements")
    return x_md


def _track(x, v, target, wn: float, dt: float):
    """One RK4 step of x'' = -2 wn x' - wn^2 (x - target) for each coordinate.

    This is a generic RK4 step unrolled per coordinate, with its operation
    order, so the tests can check it bit for bit against one. Returns the
    positions, velocities and accelerations after the step.
    """
    h2, h6 = 0.5 * dt, dt / 6.0
    c1, w2 = -2.0 * wn, wn * wn
    out = []
    for x1, v1, c in zip(x, v, target):
        a1 = c1 * v1 - w2 * (x1 - c)
        x2, v2 = x1 + h2 * v1, v1 + h2 * a1
        a2 = c1 * v2 - w2 * (x2 - c)
        x3, v3 = x1 + h2 * v2, v1 + h2 * a2
        a3 = c1 * v3 - w2 * (x3 - c)
        x4, v4 = x1 + dt * v3, v1 + dt * a3
        a4 = c1 * v4 - w2 * (x4 - c)
        xn = x1 + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        vn = v1 + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        out.append((xn, vn, -2.0 * wn * vn - wn ** 2 * (xn - c)))
    return zip(*out)


def free_step(ref: ReferenceState, x_fd: float, x_md, omega_n: float,
              dt: float) -> ReferenceState:
    """Advance the free-flight generator one controller step."""
    if ref.mode != FREE:
        raise ValueError("free_step called while not in free mode")
    if omega_n <= 0.0:
        raise ValueError("omega_n must be positive")
    xs, vs, acc = _track((ref.x_fr, *ref.x_mr), (ref.x_fr_dot, *ref.x_mr_dot),
                         (x_fd, *_setpoint(x_md)), omega_n, dt)
    return _reference(xs[0], vs[0], acc[0], 0.0, 0.0, xs[1:], vs[1:], acc[1:],
                      FREE)


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
    h2, h6 = 0.5 * h, h / 6.0
    c1, w2, nkb = -2.0 * omega_n, omega_n ** 2, -kb

    # a generic RK4 step on y = [f, f', x, x'] unrolled, with its operation
    # order; x does not enter the derivative, so its stages are never formed
    f, fd, x, v = ref.f_fr, ref.f_fr_dot, ref.x_fr, ref.x_fr_dot
    for _ in range(n_sub):
        a1, b1 = c1 * fd - w2 * (f - f_fd), nkb * v - inv_b * fd
        f2, fd2, v2 = f + h2 * fd, fd + h2 * a1, v + h2 * b1
        a2, b2 = c1 * fd2 - w2 * (f2 - f_fd), nkb * v2 - inv_b * fd2
        f3, fd3, v3 = f + h2 * fd2, fd + h2 * a2, v + h2 * b2
        a3, b3 = c1 * fd3 - w2 * (f3 - f_fd), nkb * v3 - inv_b * fd3
        f4, fd4, v4 = f + h * fd3, fd + h * a3, v + h * b3
        a4, b4 = c1 * fd4 - w2 * (f4 - f_fd), nkb * v4 - inv_b * fd4
        f, fd, x, v = (f + h6 * (fd + 2.0 * fd2 + 2.0 * fd3 + fd4),
                       fd + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4),
                       x + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4),
                       v + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4))

    xm, vm, am = _track(ref.x_mr, ref.x_mr_dot, _setpoint(x_md), omega_n, dt)
    return _reference(x, v, -kb * v - inv_b * fd, f, fd, xm, vm, am, CONTACT)


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
