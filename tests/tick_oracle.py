"""The reference generator's steps, the gain slew and the estimator's input
check in their looped form.

reference.free_step and contact_step step each tracker axis with
straight-line code and write phi_2's Taylor sum out term by term,
SlewLimitedGains.track clamps with comparisons and rlse_update checks its
inputs with comparisons. The functions here are the forms they replace: one
tracker step per axis through a loop over (position, velocity, target),
the setpoint through tuple(map(float, ...)), the Taylor sum as a generator,
the clamp through min/max and the check through math.isfinite. The tests
check the package against them bit for bit, signed zeros and NaN included.
"""

from __future__ import annotations

import math

from uamsim.reference import CONTACT, FREE

_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(10))  # z^k


def phi12(z: float) -> tuple[float, float]:
    """phi_1(z) and phi_2(z), phi_2 by its Taylor series for |z| < 0.2."""
    if abs(z) >= 0.2:
        p1 = math.expm1(z) / z
        return p1, (p1 - 1.0) / z
    p2 = sum(c * z ** k for k, c in enumerate(_PHI2_TAYLOR))
    return 1.0 + z * p2, p2


def tracker(wn: float, dt: float) -> tuple[float, float, float, float]:
    """(cv, ce, dv, de) of the exact critically damped tracker step."""
    if wn <= 0.0:
        raise ValueError("omega_n must be positive")
    z, ew = wn * dt, math.exp(-wn * dt)
    return dt * ew, z * z * ew * phi12(z)[1], (1.0 - z) * ew, wn * z * ew


def setpoint(x_md) -> tuple[float, float]:
    x_md = tuple(map(float, x_md))
    if len(x_md) != 2:
        raise ValueError("the motion setpoint must have two elements")
    return x_md


def track(x, v, target, wn: float, dt: float):
    """Positions, velocities and accelerations after one exact tracker step."""
    cv, ce, dv, de = tracker(wn, dt)
    out = []
    for x0, v0, c in zip(x, v, target):
        e0 = x0 - c
        x1, v1 = x0 + (cv * v0 - ce * e0), dv * v0 - de * e0
        out.append((x1, v1, -2.0 * wn * v1 - wn * wn * (x1 - c)))
    return zip(*out)


def free_step(ref, x_fd: float, x_md, omega_n: float, dt: float) -> tuple:
    """The fields (x_fr, x_fr_dot, x_fr_ddot, f_fr, f_fr_dot, x_mr, x_mr_dot,
    x_mr_ddot, mode) after one free-flight step."""
    if ref.mode != FREE:
        raise ValueError("free_step called while not in free mode")
    xs, vs, acc = track((ref.x_fr, *ref.x_mr), (ref.x_fr_dot, *ref.x_mr_dot),
                        (x_fd, *setpoint(x_md)), omega_n, dt)
    return xs[0], vs[0], acc[0], 0.0, 0.0, xs[1:], vs[1:], acc[1:], FREE


def contact_step(ref, f_fd: float, x_md, est, omega_n: float,
                 dt: float) -> tuple:
    """The fields, as free_step gives them, after one contact step."""
    if ref.mode != CONTACT:
        raise ValueError("contact_step called while not in contact mode")
    if not (est.k_hat > 0.0 and est.b_hat > 0.0):
        raise ValueError("estimates k_hat and b_hat must be positive")
    b, kb = est.b_hat, est.k_hat / est.b_hat
    cv, ce, dv, de = tracker(omega_n, dt)
    e0, fd0, v0 = ref.f_fr - f_fd, ref.f_fr_dot, ref.x_fr_dot
    df, fd1 = cv * fd0 - ce * e0, dv * fd0 - de * e0
    p1, p2 = phi12((omega_n - kb) * dt)
    q = (fd0 + omega_n * e0) * dt
    v1 = v0 * math.exp(-kb * dt) - cv / b * (fd0 * p1 - omega_n * q * p2)
    x1 = ref.x_fr - (b * (v1 - v0) + df) / est.k_hat

    xm, vm, am = track(ref.x_mr, ref.x_mr_dot, setpoint(x_md), omega_n, dt)
    return (x1, v1, -kb * v1 - fd1 / b, ref.f_fr + df, fd1, xm, vm, am,
            CONTACT)


def slew_track(k_f: float, b_f: float, rate: float, target_k: float,
               target_b: float, dt: float) -> tuple[float, float]:
    """The gains after one rate-limited step toward the targets."""
    step = rate * dt
    k_f += min(max(target_k - k_f, -step), step)
    b_f += min(max(target_b - b_f, -step), step)
    return k_f, b_f


def rlse_inputs_finite(x_f: float, x_dot_f: float, f_f: float,
                       x_fs: float) -> bool:
    """Whether rlse_update accepts its measurement inputs."""
    return all(map(math.isfinite, (x_f, x_dot_f, f_f, x_fs)))
