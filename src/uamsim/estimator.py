"""Online estimation of the Kelvin-Voigt surface parameters.

Continuous-time recursive least squares on the regression
f_f = Y theta, Y = -[x_f - x_fs, x_dot_f], theta = [k_e; b_e], discretized
with explicit Euler at the controller rate. Covariance growth is capped at
rho_M and the estimates are clamped to a configured admissible box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


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
        if not (0.0 < self.k_min <= self.k_max < math.inf):
            raise ValueError("need 0 < k_min <= k_max < inf")
        if not (0.0 < self.b_min <= self.b_max < math.inf):
            raise ValueError("need 0 < b_min <= b_max < inf")
        if not (0.0 < self.P0 <= self.rho_M < math.inf):
            raise ValueError("need 0 < P0 <= rho_M < inf: the cap must admit P0*I")
        if not 0.0 <= self.mu1 < math.inf:
            raise ValueError("need 0 <= mu1 < inf")
        if not 0.0 < self.mu2 < math.inf:
            raise ValueError("need 0 < mu2 < inf")

    def initial_estimate(self) -> "EnvEstimate":
        """Uninformed prior: midpoint of the admissible box, P = P0*I,
        held as (P0, 0.0, P0)."""
        return EnvEstimate(
            k_hat=0.5 * (self.k_min + self.k_max),
            b_hat=0.5 * (self.b_min + self.b_max),
            P=(self.P0, 0.0, self.P0),
        )


@dataclass
class EnvEstimate:
    """Estimates of (k_e, b_e) and their symmetric 2x2 covariance, held as
    the three floats P = (P00, P01, P11) with P10 = P01."""

    k_hat: float
    b_hat: float
    P: tuple[float, float, float]


def _lambda_max(a: float, b: float, c: float) -> float:
    """Largest eigenvalue of the symmetric matrix [[a, b], [b, c]]."""
    return 0.5 * (a + c) + math.sqrt(max(0.25 * (a - c) ** 2 + b * b, 0.0))


def rlse_update(est: EnvEstimate, x_f: float, x_dot_f: float, f_f: float,
                x_fs: float, cfg: RlseConfig, dt: float) -> EnvEstimate:
    """One estimator step; call only while in contact.

    The covariance step is skipped whenever it would push lambda_max(P)
    beyond rho_M, so the bound holds after every update (the continuous-time
    freeze cannot overshoot; a plain Euler step could).
    """
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if not (-math.inf < x_f < math.inf and -math.inf < x_dot_f < math.inf
            and -math.inf < f_f < math.inf and -math.inf < x_fs < math.inf):
        raise ValueError("non-finite estimator inputs")

    y0, y1 = -(x_f - x_fs), -x_dot_f                 # 1x2 regressor Y
    p00, p01, p11 = est.P
    py0, py1 = p00 * y0 + p01 * y1, p01 * y0 + p11 * y1        # P Y
    eps = f_f - (y0 * est.k_hat + y1 * est.b_hat)              # f_f - Y theta

    # P + dt (mu1 P - mu2 PY PY^T), symmetric as P is
    n00 = p00 + dt * (cfg.mu1 * p00 - cfg.mu2 * (py0 * py0))
    n01 = p01 + dt * (cfg.mu1 * p01 - cfg.mu2 * (py0 * py1))
    n11 = p11 + dt * (cfg.mu1 * p11 - cfg.mu2 * (py1 * py1))
    frozen = _lambda_max(n00, n01, n11) > cfg.rho_M

    return EnvEstimate(
        min(max(est.k_hat + dt * py0 * eps, cfg.k_min), cfg.k_max),
        min(max(est.b_hat + dt * py1 * eps, cfg.b_min), cfg.b_max),
        est.P if frozen else (n00, n01, n11))


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

    def __post_init__(self):
        if not 0.0 <= self.threshold < math.inf:
            raise ValueError("threshold must be finite and nonnegative")
        if not isinstance(self.debounce, int) or self.debounce < 1:
            raise ValueError("debounce must be an integer of at least 1")

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
