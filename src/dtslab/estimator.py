"""Protocol simulation and empirical MSE matrices.

Three strategies over n copies of a displaced thermal state are simulated
at the outcome level:

    collective   -- beam-splitter concentration, one heterodyne on the
                    amplified mode (zeta_hat = alpha / sqrt(n)), photon
                    counting on the other n-1 modes, N_hat = sample mean
                    (the maximum-likelihood estimate of the geometric law)
    separable    -- heterodyne every copy: zeta_hat = mean(alpha_i),
                    N_hat = sum |alpha_i - mean|^2 / (n-1) - 1 (unbiased)
    known-n      -- heterodyne every copy, estimate the amplitude only

Outcome-level simulation is statistically exact because the concentration
unitary maps the n-copy input to an explicit product state (certified at
n = 2 and 3 by the `fock` oracle); the alternative n-mode matrices would
be astronomically large.  Every protocol is sampled through the exact laws
of its sufficient statistics.  With per-copy outcomes
alpha_i ~ zeta + sqrt((N+1)/2) (X_i + i Y_i),

    mean(alpha_i)              = zeta + sqrt((N+1)/(2n)) (X + i Y)
    sum |alpha_i - mean|^2     = (N+1) G, G ~ Gamma(n-1, 1), independent
                                 of the mean (Cochran's theorem)

so the mean has the law of the collective estimate alpha / sqrt(n), and
the separable photon estimate is (N+1) G/(n-1) - 1.  The collective one
is K/(n-1), where the total K of n-1 geometric counts of mean N is
NegBin(n-1, N/(N+1)), which is Poisson(N G) with G ~ Gamma(n-1, 1).

Sampling has one path: `_chunk_estimates(config, start, count)` draws
trials start .. start+count-1, and a single trial is a chunk of size 1.
Trial t draws from the counter-based stream with stream_index = t, whose
key is mixed once per chunk, in one counter layout for all protocols:

    0, 1                  the uniform pair of the amplitude estimate
    2 + 3j .. 4 + 3j      attempt j of the Gamma draw (collective, separable)
    2**32 + 2j, + 1       attempt j of the Poisson draw (collective)

(`rng.gamma`, `rng.poisson`; known-n draws counters 0 and 1 only).  A
trial costs the same at every n.  Monte Carlo runs draw and reduce one
chunk of a fixed number of trials at a time, in trial order, so memory is
one chunk whatever the trial count.

Ranges (`ExperimentConfig` refuses the rest with DomainError):
n <= 2**53, where n and n - 1 are exact in float64; N <= 2**47 and, for
the collective protocol, N (n-1) <= 2**47, so the count total K, whose
mean is N (n-1), stays an exact float64 integer (it passes 2**53 with
probability at most about e^-64, the value at n = 2, where K is one
geometric count); and amplitudes
whose float64 spacing math.ulp(max |theta_i|) is at most 1e-3 of the
estimate's standard deviation sqrt((N+1)/n), so rounding moves the MSE
by less than 2e-5 of itself (measured: at most 9e-6 at n = 10 and 1000)
and every square stays finite; and weights whose bound C_R at N is
positive, because every run is reported as its ratio to C_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import rng as rng_mod
from . import states
from .bounds import ThetaPoint, WeightMatrix, c_r_general
from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_CHUNK_TRIALS = 4096  # trials per chunk; a trial's cost does not depend on n
_GAMMA_COUNTER = 2
_POISSON_COUNTER = 1 << 32
MAX_N_COPIES = 1 << 53
MAX_N_MEAN = 2.0**47
_AMPLITUDE_ROUNDING = 1e-3


class ProtocolKind(Enum):
    COLLECTIVE_CONCENTRATION = "collective"
    SEPARABLE_HETERODYNE = "separable"
    KNOWN_N_HETERODYNE = "known-n"

    @property
    def n_params(self) -> int:
        return 2 if self is ProtocolKind.KNOWN_N_HETERODYNE else 3


@dataclass(frozen=True)
class ExperimentConfig:
    protocol: ProtocolKind
    theta: ThetaPoint
    n_copies: int
    trials: int
    seed: int
    weight: WeightMatrix
    # photon-number estimates are recorded raw by default (the separable
    # moment estimator can go negative); clipping at 0 is opt-in
    clip_nonneg: bool = False

    def __post_init__(self):
        if self.n_copies < 2:
            raise DomainError(f"n_copies must be at least 2, got {self.n_copies}")
        if self.n_copies > MAX_N_COPIES:
            raise DomainError(
                f"n_copies must be at most {MAX_N_COPIES} for simulation (n - 1 must "
                f"be exact in float64), got {self.n_copies}"
            )
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        n_mean = self.theta.n_mean
        if self.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
            if n_mean * (self.n_copies - 1) > MAX_N_MEAN:
                raise DomainError(
                    f"n_mean * (n_copies - 1) must be at most {MAX_N_MEAN:g} for the "
                    f"collective protocol (the photon count total must stay an exact "
                    f"integer), got {n_mean * (self.n_copies - 1):g}"
                )
        elif n_mean > MAX_N_MEAN:
            raise DomainError(
                f"n_mean must be at most {MAX_N_MEAN:g} for simulation, got {n_mean:g}"
            )
        spread = math.sqrt((n_mean + 1.0) / self.n_copies)
        amplitude = max(abs(self.theta.theta1), abs(self.theta.theta2))
        if math.ulp(amplitude) > _AMPLITUDE_ROUNDING * spread:
            raise DomainError(
                f"amplitude {amplitude:g} is too large for simulation at n_mean "
                f"{n_mean:g} and {self.n_copies} copies: its float64 rounding "
                f"{math.ulp(amplitude):.3g} exceeds {_AMPLITUDE_ROUNDING:g} of the "
                f"estimate's standard deviation {spread:.3g}"
            )
        if self.weight.dim != self.protocol.n_params:
            raise DomainError(
                f"weight dimension {self.weight.dim} does not match the "
                f"{self.protocol.value} protocol ({self.protocol.n_params} parameters)"
            )
        try:
            c_r = c_r_general(self.weight, n_mean)
        except DomainError:
            return  # an overflowing bound is refused after the run
        if c_r <= 0.0:
            raise DomainError(
                f"C_R is {c_r:g} for this weight at n_mean {n_mean:g}: the ratio "
                f"n Tr(G V) / C_R needs a positive bound"
            )


@dataclass(frozen=True)
class MseMatrix:
    """Empirical MSE matrix with trial count and standard-error metadata.

    se_trace is the standard error of the n * Tr(G V) estimate (None for a
    single trial).
    """

    entries: np.ndarray
    trials: int
    n_trace_gv: float
    se_trace: float | None


@dataclass(frozen=True)
class BoundComparison:
    c_r: float
    ratio: float
    ratio_se: float | None
    expected_ratio_large_n: float


# ---------------------------------------------------------------------------
# Monte Carlo reduction
# ---------------------------------------------------------------------------

def _chunk_estimates(
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimates (zeta_hat, n_hat) for trials start .. start+count-1.

    n_hat is None for the known-n protocol.  The draws of trial t depend on
    t alone, so any split of the trials into chunks gives the same bits.
    """
    n = config.n_copies
    theta = config.theta
    keys = rng_mod.stream_keys(config.seed, np.arange(start, start + count, dtype=np.uint64))
    u = rng_mod.uniform_block(keys, 0, 2)
    # the amplified mode, or the mean of n per-copy outcomes: one outcome of
    # amplitude sqrt(n) zeta and thermal number N, scaled by 1/sqrt(n)
    pairs = rng_mod.box_muller(u)
    zeta_hat = states.heterodyne_from_normal_pairs(math.sqrt(n) * theta.zeta, theta.n_mean, pairs)
    zeta_hat = zeta_hat / math.sqrt(n)
    if config.protocol is ProtocolKind.KNOWN_N_HETERODYNE:
        return zeta_hat, None
    gamma = rng_mod.gamma(keys, n - 1.0, _GAMMA_COUNTER)
    if config.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        # the count total of the n-1 thermal modes: Poisson(N G), G ~ Gamma(n-1, 1)
        counts = rng_mod.poisson(keys, theta.n_mean * gamma, _POISSON_COUNTER)
        n_hat = counts / (n - 1.0)
    else:
        # the spread sum |alpha_i - mean|^2 is (N+1) Gamma(n-1, 1)
        n_hat = (theta.n_mean + 1.0) * gamma / (n - 1.0) - 1.0
    return zeta_hat, np.maximum(n_hat, 0.0) if config.clip_nonneg else n_hat


def _errors(config: ExperimentConfig, zeta_hat: np.ndarray, n_hat: np.ndarray | None) -> np.ndarray:
    d = config.protocol.n_params
    errors = np.empty((zeta_hat.shape[0], d))
    errors[:, 0] = _SQRT2 * zeta_hat.real - config.theta.theta1
    errors[:, 1] = _SQRT2 * zeta_hat.imag - config.theta.theta2
    if d == 3:
        errors[:, 2] = n_hat - config.theta.n_mean
    return errors


TrialSink = Callable[[int, np.ndarray, "np.ndarray | None", np.ndarray], None]


def monte_carlo_mse(config: ExperimentConfig, trial_sink: TrialSink | None = None) -> MseMatrix:
    """Empirical MSE matrix over config.trials independent trials.

    Trials are keyed by stream index and drawn in chunks of _CHUNK_TRIALS;
    each chunk is reduced, and passed to `trial_sink(start, zeta_hat, n_hat,
    errors)` for per-trial output streaming, before the next one is drawn.
    The moments of n e^T G e are formed in units of the power of two at or
    below the weight's largest entry: the scaling is exact (a unit of 1 for
    the identity) and keeps their squares finite, and a mean or standard
    error that still overflows raises DomainError.
    """
    d = config.protocol.n_params
    n = config.n_copies
    trials = config.trials
    scale = float(np.max(np.abs(config.weight.entries)))
    unit = math.ldexp(1.0, math.frexp(scale)[1] - 1)
    g = config.weight.entries / unit
    total = np.zeros((d, d))
    sum_q = 0.0
    sum_q2 = 0.0
    for start in range(0, trials, _CHUNK_TRIALS):
        zeta_hat, n_hat = _chunk_estimates(config, start, min(_CHUNK_TRIALS, trials - start))
        errors = _errors(config, zeta_hat, n_hat)
        # einsum without `optimize` calls no BLAS, so the bits do not depend
        # on the library's threading
        total += np.einsum("ti,tj->ij", errors, errors)
        quad = n * np.einsum("tj,tj->t", np.einsum("ti,ij->tj", errors, g), errors)
        sum_q += float(np.sum(quad))
        sum_q2 += float(np.sum(quad * quad))
        if trial_sink is not None:
            trial_sink(start, zeta_hat, n_hat, errors)

    entries = total / trials
    mean_q = sum_q / trials
    n_trace_gv = unit * mean_q
    se = None
    if trials >= 2:
        variance = (sum_q2 - trials * mean_q * mean_q) / (trials - 1)
        se = unit * math.sqrt(max(0.0, variance) / trials)
    if not all(map(math.isfinite, (n_trace_gv, sum_q2, se or 0.0))):
        raise DomainError(
            f"the weight's scale {scale:g} is too large: the MSE moments overflow float64"
        )
    return MseMatrix(entries=entries, trials=trials, n_trace_gv=n_trace_gv, se_trace=se)


def compare_to_bounds(mse: MseMatrix, config: ExperimentConfig) -> BoundComparison:
    """Ratio of the measured n * Tr(G V) to the RLD bound, and its large-n limit.

    The large-n limit is closed for every weight.  The estimates are
    unbiased, and the errors of the three coordinates are independent:
    the two amplitude errors are the quadratures of one circular Gaussian,
    each with n Var = N+1, and N_hat is independent of zeta_hat, for
    `collective` by the certified product structure of the concentrated
    state and for `separable` by Cochran's theorem.  So V is diagonal, the
    off-diagonal entries of G never enter, and

        n Tr(G V) = (N+1)(G11 + G22) + G33 L n/(n-1)

    with L = N(N+1) for the count total K/(n-1), L = (N+1)^2 for the spread
    (N+1) Gamma(n-1, 1)/(n-1) - 1, and no G33 term for `known-n`.  The
    large-n ratio is (N+1)(G11 + G22) + G33 L over C_R: 1 for the identity
    weight of `collective` and `known-n`, (N+3)/(N+2) for `separable`, and
    above 1 for an anisotropic amplitude weight, which plain heterodyne
    does not attain (6/5.8 for `collective` at diag(1.6, 0.4, 1), N = 1).
    Clipping N_hat at 0 moves only the trials where N_hat < 0, whose
    probability falls exponentially in n, so the limit holds with
    clip_nonneg too.  A ratio that overflows float64 raises DomainError.
    """
    big_n = config.theta.n_mean
    g = config.weight.entries.tolist()
    large_n_trace = (big_n + 1.0) * (g[0][0] + g[1][1])
    if config.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        large_n_trace += g[2][2] * (big_n * (big_n + 1.0))
    elif config.protocol is ProtocolKind.SEPARABLE_HETERODYNE:
        large_n_trace += g[2][2] * ((big_n + 1.0) * (big_n + 1.0))
    c_r = c_r_general(config.weight, big_n)
    ratio = mse.n_trace_gv / c_r
    ratio_se = None if mse.se_trace is None else mse.se_trace / c_r
    expected = large_n_trace / c_r
    if not all(map(math.isfinite, (ratio, ratio_se or 0.0, expected))):
        raise DomainError(f"the ratio to C_R = {c_r:g} overflows float64")
    return BoundComparison(c_r=c_r, ratio=ratio, ratio_se=ratio_se, expected_ratio_large_n=expected)
