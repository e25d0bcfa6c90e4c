"""Online estimation of the Kelvin-Voigt surface parameters.

Continuous-time recursive least squares on the regression
f_f = Y theta, Y = -[x_f - x_fs, x_dot_f], theta = [k_e; b_e], discretized
with explicit Euler at the controller rate. Covariance growth is capped at
rho_M and the estimates are clamped to a configured admissible box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RlseConfig:
    mu1: float = 0.9996
    mu2: float = 0.9996
    rho_M: float = 5000.0
    k_min: float = 50.0
    k_max: float = 500.0
    b_min: float = 0.1
    b_max: float = 1.0
    P0: float = 100.0

    def __post_init__(self):
        if not (0.0 < self.k_min <= self.k_max):
            raise ValueError("invalid stiffness bounds")
        if not (0.0 < self.b_min <= self.b_max):
            raise ValueError("invalid damping bounds")

    def initial_estimate(self) -> "EnvEstimate":
        """Uninformed prior: midpoint of the admissible box, P = P0*I."""
        return EnvEstimate(
            k_hat=0.5 * (self.k_min + self.k_max),
            b_hat=0.5 * (self.b_min + self.b_max),
            P=self.P0 * np.eye(2),
        )


@dataclass
class EnvEstimate:
    k_hat: float
    b_hat: float
    P: np.ndarray

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float).reshape(2, 2)


def _lambda_max_2x2(P: np.ndarray) -> float:
    a, b, c = P[0, 0], P[0, 1], P[1, 1]
    h = 0.5 * (a + c)
    r = math.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))
    return h + r


def rlse_update(est: EnvEstimate, x_f: float, x_dot_f: float, f_f: float,
                x_fs: float, cfg: RlseConfig, dt: float) -> EnvEstimate:
    """One estimator step; call only while in contact.

    The covariance step is skipped whenever it would push lambda_max(P)
    beyond rho_M, so the bound holds after every update (the continuous-time
    freeze cannot overshoot; a plain Euler step could).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    vals = (x_f, x_dot_f, f_f, x_fs)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite estimator inputs")

    Y = np.array([-(x_f - x_fs), -x_dot_f])           # 1x2 regressor
    theta = np.array([est.k_hat, est.b_hat])
    P = est.P

    eps = f_f - float(Y @ theta)
    theta = theta + dt * (P @ Y) * eps

    PY = P @ Y
    P_dot = cfg.mu1 * P - cfg.mu2 * np.outer(PY, PY)
    P_new = P + dt * P_dot
    P_new = 0.5 * (P_new + P_new.T)
    if _lambda_max_2x2(P_new) > cfg.rho_M:
        P_new = P                                      # freeze

    return EnvEstimate(
        k_hat=min(max(theta[0], cfg.k_min), cfg.k_max),
        b_hat=min(max(theta[1], cfg.b_min), cfg.b_max),
        P=P_new,
    )


@dataclass
class ContactDetector:
    """Debounced contact detection from the measured normal force.

    Contact is declared after `debounce` consecutive samples with
    |f_f| > threshold, and released after the same number of consecutive
    samples at or below it.
    """

    threshold: float = 0.1       # N
    debounce: int = 3
    in_contact: bool = False
    _count: int = field(default=0, repr=False)

    def update(self, f_f: float) -> bool:
        loaded = abs(f_f) > self.threshold
        if loaded != self.in_contact:
            self._count += 1
            if self._count >= self.debounce:
                self.in_contact = loaded
                self._count = 0
        else:
            self._count = 0
        return self.in_contact
