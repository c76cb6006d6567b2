"""Outcome distributions and samplers for displaced thermal light.

A displaced thermal state with amplitude zeta and mean thermal photon
number N > 0 produces

    heterodyne outcomes  alpha ~ exp(-|alpha - zeta|^2/(N+1)) / (pi (N+1))
    photon counts (zeta=0)   k ~ P_N(k) = (N/(N+1))^k / (N+1)

The heterodyne law is not assumed: the `fock` module certifies it against
an explicit truncated Fock-space construction before the Monte Carlo layer
trusts it.  `heterodyne_from_normal_pairs` maps normal pairs to outcomes
for the `estimator` chunk path; photon counts are never drawn one by one
there, because the estimates need only their total (see `estimator`).
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import ThetaPoint
from .errors import DomainError


def heterodyne_pdf(theta: ThetaPoint, alpha: complex) -> float:
    """Probability density of heterodyne outcome alpha (per unit d^2 alpha)."""
    width = theta.n_mean + 1.0
    return math.exp(-abs(complex(alpha) - theta.zeta) ** 2 / width) / (math.pi * width)


def heterodyne_from_normal_pairs(zeta: complex, n_mean: float, pairs: np.ndarray) -> np.ndarray:
    """Map standard normal pairs (..., 2) to heterodyne outcomes.

    Both quadrature components carry variance (N+1)/2, so E|alpha - zeta|^2
    = N + 1.
    """
    scale = math.sqrt((n_mean + 1.0) / 2.0)
    return complex(zeta) + scale * (pairs[..., 0] + 1j * pairs[..., 1])


def photon_pmf(n_mean: float, k: int) -> float:
    """Geometric photon-count law P_N(k) = (N/(N+1))^k / (N+1)."""
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive, got {n_mean}")
    if k < 0:
        raise DomainError(f"photon count must be nonnegative, got {k}")
    ratio = n_mean / (n_mean + 1.0)
    return ratio**k / (n_mean + 1.0)

