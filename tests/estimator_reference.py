"""The covariance bound that the RLSE freeze tests against, for the tests."""

from uamsim.estimator import _lambda_max


def lambda_max_2x2(P) -> float:
    """Largest eigenvalue of a symmetric 2x2 P held as (P00, P01, P11), as
    rlse_update computes it."""
    return _lambda_max(*P)
