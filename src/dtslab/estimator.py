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
be astronomically large.  The per-copy protocols are sampled through
their sufficient statistics, whose exact laws are known: with per-copy
outcomes alpha_i ~ zeta + sqrt((N+1)/2) (X_i + i Y_i),

    mean(alpha_i)              = zeta + sqrt((N+1)/(2n)) (X + i Y)
    sum |alpha_i - mean|^2     = (N+1) Gamma(n-1, 1), independent of the
                                 mean (Cochran's theorem)

so the mean has the law of the collective estimate alpha / sqrt(n), and
Gamma(n-1, 1) is a sum of n-1 exponentials -ln(1-u).

Sampling has one path: `_chunk_estimates(config, start, count)` draws
trials start .. start+count-1, and a single trial is a chunk of size 1.
Trial t draws from the counter-based stream with stream_index = t, in one
counter layout for all protocols: counters 0-1 are the uniform pair of the
amplitude estimate, and counters 2 .. n are the n-1 uniforms of the photon
estimate (geometric counts for collective, exponentials for separable;
known-n draws none).  Monte Carlo runs are chunked by a size computed from
the configuration alone and reduced in trial order, so the result is
byte-identical for any worker count.

The geometric sampler's log(N/(N+1)) loses relative precision as N grows
(4e-9 at N = 1e8, 2e-5 at 1e12, all of it at 1e16): N <= MAX_N_MEAN.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import rng as rng_mod
from . import states
from .bounds import (
    ThetaPoint,
    WeightMatrix,
    c_r_general,
    rld_inverse_2param,
    rld_inverse_3param,
)
from .errors import DomainError

_SQRT2 = math.sqrt(2.0)
_CHUNK_BUDGET = 1 << 22  # draws per chunk; chunking depends on config only
MAX_N_MEAN = 1e8
# a one-trial chunk draws n_copies + 1 uniforms: about 2**22 at this limit
MAX_N_COPIES = _CHUNK_BUDGET


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
                f"n_copies must be at most {MAX_N_COPIES} for simulation (one trial "
                f"draws n_copies + 1 numbers at once), got {self.n_copies}"
            )
        if self.trials < 1:
            raise DomainError(f"trials must be at least 1, got {self.trials}")
        if self.theta.n_mean > MAX_N_MEAN:
            raise DomainError(
                f"n_mean must be at most {MAX_N_MEAN:g} for simulation (the geometric "
                f"sampler loses precision above it), got {self.theta.n_mean:g}"
            )
        if self.weight.dim != self.protocol.n_params:
            raise DomainError(
                f"weight dimension {self.weight.dim} does not match the "
                f"{self.protocol.value} protocol ({self.protocol.n_params} parameters)"
            )


@dataclass(frozen=True)
class MseMatrix:
    """Empirical MSE matrix with trial count and standard-error metadata.

    se_trace is the standard error of the n * Tr(G V) estimate (None for a
    single trial).
    """

    dim: int
    entries: np.ndarray
    trials: int
    n_trace_gv: float
    se_trace: float | None


@dataclass(frozen=True)
class BoundComparison:
    n_trace_gv: float
    se_trace: float | None
    c_r: float
    ratio: float
    ratio_se: float | None
    expected_ratio_large_n: float | None


# ---------------------------------------------------------------------------
# Monte Carlo reduction
# ---------------------------------------------------------------------------

def _chunk_size(n_copies: int) -> int:
    return int(max(1, min(4096, _CHUNK_BUDGET // max(1, n_copies))))


def worker_count(config: ExperimentConfig, threads: int | None) -> int:
    """Worker threads `monte_carlo_mse` uses: the request, at most one per chunk."""
    chunks = -(-config.trials // _chunk_size(config.n_copies))
    return max(1, min(threads or 1, chunks))


def _chunk_estimates(
    config: ExperimentConfig, start: int, count: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Estimates (zeta_hat, n_hat) for trials start .. start+count-1.

    n_hat is None for the known-n protocol.  The draws of trial t depend on
    t alone, so any split of the trials into chunks gives the same bits.
    """
    n = config.n_copies
    theta = config.theta
    known_n = config.protocol is ProtocolKind.KNOWN_N_HETERODYNE
    streams = np.arange(start, start + count, dtype=np.uint64)
    u = rng_mod.uniform_block(config.seed, streams, 0, 2 if known_n else n + 1)
    # the amplified mode, or the mean of n per-copy outcomes: one outcome of
    # amplitude sqrt(n) zeta and thermal number N, scaled by 1/sqrt(n)
    pairs = rng_mod.box_muller(u[:, :2])
    zeta_hat = states.heterodyne_from_normal_pairs(math.sqrt(n) * theta.zeta, theta.n_mean, pairs)
    zeta_hat = zeta_hat / math.sqrt(n)
    if known_n:
        return zeta_hat, None
    if config.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        counts = states.photon_from_uniforms(theta.n_mean, u[:, 2:]).astype(np.float64)
        n_hat = counts.mean(axis=1)
    else:
        # the spread sum |alpha_i - mean|^2 is (N+1) Gamma(n-1, 1): n-1 exponentials
        gamma = -np.sum(np.log1p(-u[:, 2:]), axis=1)
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


def monte_carlo_mse(
    config: ExperimentConfig,
    threads: int | None = None,
    trial_sink: TrialSink | None = None,
) -> MseMatrix:
    """Empirical MSE matrix over config.trials independent trials.

    Trials are keyed by stream index, chunked by a configuration-derived
    size, and reduced in trial order, so the output does not depend on
    `threads`, which `worker_count` clamps to the number of chunks.
    `trial_sink(start, zeta_hat, n_hat, errors)` is invoked in trial order
    for per-trial output streaming.
    """
    d = config.protocol.n_params
    g = config.weight.entries
    n = config.n_copies
    trials = config.trials
    chunk = _chunk_size(n)
    starts = list(range(0, trials, chunk))

    def process(start: int):
        count = min(chunk, trials - start)
        zeta_hat, n_hat = _chunk_estimates(config, start, count)
        errors = _errors(config, zeta_hat, n_hat)
        # einsum without `optimize` calls no BLAS, so the bits do not depend
        # on the library's threading
        sums = np.einsum("ti,tj->ij", errors, errors)
        quad = n * np.einsum("ti,ij,tj->t", errors, g, errors)
        return zeta_hat, n_hat, errors, sums, float(np.sum(quad)), float(np.sum(quad * quad))

    total = np.zeros((d, d))
    sum_q = 0.0
    sum_q2 = 0.0

    def reduce_in_order(results) -> None:
        nonlocal total, sum_q, sum_q2
        for start, (zeta_hat, n_hat, errors, sums, q1, q2) in zip(starts, results):
            total += sums
            sum_q += q1
            sum_q2 += q2
            if trial_sink is not None:
                trial_sink(start, zeta_hat, n_hat, errors)

    workers = worker_count(config, threads)
    if workers == 1:
        reduce_in_order(map(process, starts))
    else:
        # workers may finish out of order; consuming futures in submission
        # order keeps the reduction and the sink in trial order
        with ThreadPoolExecutor(max_workers=workers) as executor:
            futures = [executor.submit(process, s) for s in starts]
            reduce_in_order(f.result() for f in futures)

    entries = total / trials
    n_trace_gv = sum_q / trials
    if trials >= 2:
        variance = max(0.0, (sum_q2 - trials * n_trace_gv * n_trace_gv) / (trials - 1))
        se = math.sqrt(variance / trials)
    else:
        se = None
    return MseMatrix(dim=d, entries=entries, trials=trials, n_trace_gv=n_trace_gv, se_trace=se)


def reference_bound(config: ExperimentConfig) -> float:
    """The RLD bound the experiment is measured against."""
    if config.protocol.n_params == 2:
        return c_r_general(config.weight, rld_inverse_2param(config.theta.n_mean))
    return c_r_general(config.weight, rld_inverse_3param(config.theta.n_mean))


def _identity_weight(config: ExperimentConfig) -> bool:
    return np.allclose(config.weight.entries, np.eye(config.weight.dim), atol=1e-12)


def expected_finite_n_trace(config: ExperimentConfig) -> float | None:
    """Exact finite-n value of n * Tr(G V) for identity weights.

    Collective: 2(N+1) + n N(N+1)/(n-1).  Separable: 2(N+1) + n (N+1)^2/(n-1).
    Known-N: 2(N+1) for every n.  Returns None for non-identity weights,
    where no closed expression is recorded.
    """
    if not _identity_weight(config):
        return None
    n = config.n_copies
    big_n = config.theta.n_mean
    amplitude_part = 2.0 * (big_n + 1.0)
    if config.protocol is ProtocolKind.KNOWN_N_HETERODYNE:
        return amplitude_part
    if config.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        return amplitude_part + n * big_n * (big_n + 1.0) / (n - 1.0)
    return amplitude_part + n * (big_n + 1.0) ** 2 / (n - 1.0)


def compare_to_bounds(mse: MseMatrix, config: ExperimentConfig) -> BoundComparison:
    """Ratio of the measured n * Tr(G V) to the RLD bound.

    For identity weights the large-n ratio tends to 1 for the collective and
    known-N protocols and to (N+3)/(N+2) for the separable baseline.
    """
    c_r = reference_bound(config)
    expected = None
    if _identity_weight(config):
        if config.protocol is ProtocolKind.SEPARABLE_HETERODYNE:
            expected = (config.theta.n_mean + 3.0) / (config.theta.n_mean + 2.0)
        else:
            expected = 1.0
    return BoundComparison(
        n_trace_gv=mse.n_trace_gv,
        se_trace=mse.se_trace,
        c_r=c_r,
        ratio=mse.n_trace_gv / c_r,
        ratio_se=None if mse.se_trace is None else mse.se_trace / c_r,
        expected_ratio_large_n=expected,
    )
