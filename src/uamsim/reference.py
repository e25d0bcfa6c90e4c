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


_BAD_SETPOINT = "the motion setpoint must have two elements"
_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(10))  # z^k


def _phi12(z: float) -> tuple[float, float]:
    """phi_1(z) = (e^z - 1)/z and phi_2(z) = (phi_1(z) - 1)/z. For |z| < 0.2,
    where the quotients cancel, phi_2 is its Taylor series (to 5e-16)."""
    if abs(z) >= 0.2:
        p1 = math.expm1(z) / z
        return p1, (p1 - 1.0) / z
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = _PHI2_TAYLOR
    p2 = (c0 + c1 * z + c2 * z ** 2 + c3 * z ** 3 + c4 * z ** 4 + c5 * z ** 5
          + c6 * z ** 6 + c7 * z ** 7 + c8 * z ** 8 + c9 * z ** 9)
    return 1.0 + z * p2, p2


@lru_cache(maxsize=16)
def _tracker(wn: float, dt: float) -> tuple:
    """(cv, ce, dv, de, -2 wn, wn^2) of the exact step of x'' = -2 wn x' -
    wn^2 e, e = x - c: dx = cv x' - ce e, x'(dt) = dv x' - de e. ce is
    1 - (1 + z) exp(-z) = z^2 exp(-z) phi_2(z) (z = wn dt), free of its
    cancellation."""
    if wn <= 0.0:
        raise ValueError("omega_n must be positive")
    z, ew = wn * dt, math.exp(-wn * dt)
    return (dt * ew, z * z * ew * _phi12(z)[1], (1.0 - z) * ew, wn * z * ew,
            -2.0 * wn, wn * wn)


def free_step(ref: ReferenceState, x_fd: float, x_md, omega_n: float,
              dt: float) -> ReferenceState:
    """Advance the free-flight generator one exact step on each axis."""
    if ref.mode != FREE:
        raise ValueError("free_step called while not in free mode")
    try:
        c0, c1 = x_md
    except ValueError:
        raise ValueError(_BAD_SETPOINT) from None
    c0, c1 = float(c0), float(c1)
    cv, ce, dv, de, w2, ww = _tracker(omega_n, dt)
    x, v, e = ref.x_fr, ref.x_fr_dot, ref.x_fr - x_fd
    x, v = x + (cv * v - ce * e), dv * v - de * e
    (x0, x1), (v0, v1) = ref.x_mr, ref.x_mr_dot
    e0, e1 = x0 - c0, x1 - c1
    x0, v0 = x0 + (cv * v0 - ce * e0), dv * v0 - de * e0
    x1, v1 = x1 + (cv * v1 - ce * e1), dv * v1 - de * e1
    return _reference(x, v, w2 * v - ww * (x - x_fd), 0.0, 0.0, (x0, x1),
                      (v0, v1), (w2 * v0 - ww * (x0 - c0),
                                 w2 * v1 - ww * (x1 - c1)), FREE)


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
    cv, ce, dv, de, w2, ww = _tracker(omega_n, dt)   # cv = dt exp(-w dt)
    e0, fd0, v0 = ref.f_fr - f_fd, ref.f_fr_dot, ref.x_fr_dot
    df, fd1 = cv * fd0 - ce * e0, dv * fd0 - de * e0
    p1, p2 = _phi12((omega_n - kb) * dt)
    q = (fd0 + omega_n * e0) * dt
    v1 = v0 * math.exp(-kb * dt) - cv / b * (fd0 * p1 - omega_n * q * p2)
    x1 = ref.x_fr - (b * (v1 - v0) + df) / est.k_hat

    try:
        c0, c1 = x_md
    except ValueError:
        raise ValueError(_BAD_SETPOINT) from None
    c0, c1 = float(c0), float(c1)
    (m0, m1), (u0, u1) = ref.x_mr, ref.x_mr_dot
    e0, e1 = m0 - c0, m1 - c1
    m0, u0 = m0 + (cv * u0 - ce * e0), dv * u0 - de * e0
    m1, u1 = m1 + (cv * u1 - ce * e1), dv * u1 - de * e1
    return _reference(x1, v1, -kb * v1 - fd1 / b, ref.f_fr + df, fd1, (m0, m1),
                      (u0, u1), (w2 * u0 - ww * (m0 - c0),
                                 w2 * u1 - ww * (m1 - c1)), CONTACT)


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
