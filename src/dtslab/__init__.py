"""dtslab: a numerical laboratory for estimation of displaced thermal states.

The package computes right-logarithmic-derivative (RLD) Cramér-Rao type
bounds for joint estimation of the complex amplitude and the mean photon
number of displaced thermal light, and checks by Monte Carlo simulation
that a collective beam-splitter concentration strategy attains the bound
while a per-copy heterodyne strategy does not.

Modules:
    bounds    -- weight matrices, RLD Fisher matrix inverses, bound formulas, Gaussian trade-off
    rng       -- counter-based random streams: every draw a function of (seed, stream, counter)
    states    -- analytic outcome laws and block samplers (heterodyne, photon counting)
    fock      -- truncated Fock-space oracle that certifies the analytic laws
    linalg    -- the oracle's trace norms: exact trace distance and the Hermiticity gate
    estimator -- outcome-level protocol simulation and empirical MSE matrices
    csvtext   -- the per-trial CSV, encoded in numpy with csv.writer's bytes
    cli       -- batch front-end (bounds | simulate | oracle-check)
"""

__version__ = "0.1.0"

from .bounds import (
    ThetaPoint,
    WeightMatrix,
    c_r_closed_2param,
    c_r_closed_3param,
    c_r_general,
    optimal_gaussian_tradeoff,
    rld_inverse_2param,
    rld_inverse_3param,
)
from .errors import DomainError, PreconditionError
from .estimator import (
    ExperimentConfig,
    MseMatrix,
    ProtocolKind,
    compare_to_bounds,
    monte_carlo_mse,
)
from .states import heterodyne_pdf, photon_pmf

__all__ = [
    "DomainError",
    "ExperimentConfig",
    "MseMatrix",
    "PreconditionError",
    "ProtocolKind",
    "ThetaPoint",
    "WeightMatrix",
    "c_r_closed_2param",
    "c_r_closed_3param",
    "c_r_general",
    "compare_to_bounds",
    "heterodyne_pdf",
    "monte_carlo_mse",
    "optimal_gaussian_tradeoff",
    "photon_pmf",
    "rld_inverse_2param",
    "rld_inverse_3param",
    "__version__",
]
