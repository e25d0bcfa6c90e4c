"""The covariance bound that the RLSE freeze tests against, for the tests."""

from uamsim.estimator import _lambda_max


def lambda_max_2x2(P) -> float:
    """Largest eigenvalue of a symmetric 2x2 P, as rlse_update computes it."""
    return _lambda_max(P[0, 0], P[0, 1], P[1, 1])
