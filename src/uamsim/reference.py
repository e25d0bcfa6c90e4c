"""Smooth motion/force reference generation.

Raw setpoints are filtered into twice-differentiable references by a
critically damped second-order tracker. In free flight both the
force-direction position and the motion-plane positions are smoothed and the
force reference is pinned to zero. In contact the force reference is
smoothed instead, and the force-direction position reference is slaved to it
through the estimated surface model so the two stay consistent:

    x_fr'' = -(k_hat/b_hat) x_fr' - (1/b_hat) f_fr'

Both modes take the exact step of their linear system over a controller
period. Mode hand-offs keep position/velocity references continuous. The
motion-plane references are tuples of two Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(10))  # z^k


def _phi12(z: float) -> tuple[float, float]:
    """phi_1(z) = (e^z - 1)/z and phi_2(z) = (phi_1(z) - 1)/z. For |z| < 0.2,
    where the quotients cancel, phi_2 is its Taylor series (to 5e-16)."""
    if abs(z) >= 0.2:
        p1 = math.expm1(z) / z
        return p1, (p1 - 1.0) / z
    p2 = sum(c * z ** k for k, c in enumerate(_PHI2_TAYLOR))
    return 1.0 + z * p2, p2


@lru_cache(maxsize=16)
def _tracker(wn: float, dt: float) -> tuple[float, float, float, float]:
    """(cv, ce, dv, de) of the exact step of x'' = -2 wn x' - wn^2 e, e = x - c:
    dx = cv x' - ce e and x'(dt) = dv x' - de e. With z = wn dt, ce is
    1 - (1 + z) exp(-z) = z^2 exp(-z) phi_2(z), without its cancellation."""
    if wn <= 0.0:
        raise ValueError("omega_n must be positive")
    z, ew = wn * dt, math.exp(-wn * dt)
    return dt * ew, z * z * ew * _phi12(z)[1], (1.0 - z) * ew, wn * z * ew


def _track(x, v, target, wn: float, dt: float):
    """Positions, velocities and accelerations after one exact tracker step."""
    cv, ce, dv, de = _tracker(wn, dt)
    out = []
    for x0, v0, c in zip(x, v, target):
        e0 = x0 - c
        x1, v1 = x0 + (cv * v0 - ce * e0), dv * v0 - de * e0
        out.append((x1, v1, -2.0 * wn * v1 - wn * wn * (x1 - c)))
    return zip(*out)


def free_step(ref: ReferenceState, x_fd: float, x_md, omega_n: float,
              dt: float) -> ReferenceState:
    """Advance the free-flight generator one controller step."""
    if ref.mode != FREE:
        raise ValueError("free_step called while not in free mode")
    xs, vs, acc = _track((ref.x_fr, *ref.x_mr), (ref.x_fr_dot, *ref.x_mr_dot),
                         (x_fd, *_setpoint(x_md)), omega_n, dt)
    return _reference(xs[0], vs[0], acc[0], 0.0, 0.0, xs[1:], vs[1:], acc[1:],
                      FREE)


def contact_step(ref: ReferenceState, f_fd: float, x_md, est: EnvEstimate,
                 omega_n: float, dt: float) -> ReferenceState:
    """Advance the contact generator one controller step, exactly.

    Between estimator updates the (f_fr, x_fr) system is linear, with poles
    -w, -w (w = omega_n) and -k/b (k_hat/b_hat), and a step costs the same
    for any of them. With d = (w - k/b) dt and q = (f_fr' + w (f_fr - f_fd)) dt
    at the start, variation of constants gives x_fr'(dt) = x_fr' exp(-k/b dt)
    - (dt/b) exp(-w dt) (f_fr' phi_1(d) - w q phi_2(d)), exact at the double
    pole d = 0 too; x_fr follows from the slaving k dx_fr + b dx_fr' = -df_fr.
    """
    if ref.mode != CONTACT:
        raise ValueError("contact_step called while not in contact mode")
    if not (est.k_hat > 0.0 and est.b_hat > 0.0):
        raise ValueError("estimates k_hat and b_hat must be positive")
    b, kb = est.b_hat, est.k_hat / est.b_hat
    cv, ce, dv, de = _tracker(omega_n, dt)           # cv = dt exp(-w dt)
    e0, fd0, v0 = ref.f_fr - f_fd, ref.f_fr_dot, ref.x_fr_dot
    df, fd1 = cv * fd0 - ce * e0, dv * fd0 - de * e0
    p1, p2 = _phi12((omega_n - kb) * dt)
    q = (fd0 + omega_n * e0) * dt
    v1 = v0 * math.exp(-kb * dt) - cv / b * (fd0 * p1 - omega_n * q * p2)
    x1 = ref.x_fr - (b * (v1 - v0) + df) / est.k_hat

    xm, vm, am = _track(ref.x_mr, ref.x_mr_dot, _setpoint(x_md), omega_n, dt)
    return _reference(x1, v1, -kb * v1 - fd1 / b, ref.f_fr + df, fd1, xm, vm,
                      am, CONTACT)


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
        f_fr = float(f_f_measured)
    elif new_mode == FREE:
        f_fr = 0.0
    else:
        raise ValueError(f"unknown mode {new_mode!r}")
    return _reference(ref.x_fr, ref.x_fr_dot, ref.x_fr_ddot, f_fr, 0.0,
                      ref.x_mr, ref.x_mr_dot, ref.x_mr_ddot, new_mode)
