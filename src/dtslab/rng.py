"""Counter-based random streams for reproducible parallel Monte Carlo.

Every output word is a pure function of (seed, stream_index, counter), so
any blocking of streams and counters, or any number of parallel workers,
gives the same bits.  The mixing permutation is the SplitMix64 finalizer
``mix64``; with GAMMA = 0x9E3779B97F4A7C15 and KAPPA = 0xC2B2AE3D27D4EB4F
the scheme is (all arithmetic mod 2**64):

    key        = mix64(mix64(seed + GAMMA) ^ mix64(stream + KAPPA))
    word(c)    = mix64(key + (c + 1) * GAMMA)
    uniform(c) = (word(c) >> 11) * 2**-53          in [0, 1)

Standard normal pairs come from the trigonometric Box-Muller transform of
two consecutive uniforms:

    z0 = sqrt(-2 ln(1 - u1)) cos(2 pi u2)
    z1 = sqrt(-2 ln(1 - u1)) sin(2 pi u2)

Gamma and Poisson variates come from exact rejection samplers whose
attempt j on a stream reads a fixed block of counters, so a draw stays a
function of (seed, stream, counter) however many attempts its neighbours
need; each sampler loops over the streams still pending.  Attempt 0
reads the per-stream arrays (keys, means, constants) in place, as every
stream is pending then; later attempts gather them for the streams left:

    gamma    Marsaglia & Tsang, ACM TOMS 26 (2000), shape >= 1: attempt j
             reads counters start + 3j .. start + 3j + 2 (one normal and
             one uniform), accepted more than 95% of the time; the normal
             is z0 above, the cosine alone, without its sine partner
    poisson  inversion of the uniform at counter start for means below
             10; above, Hoermann's PTRS, Insurance: Math. Econ. 12 (1993):
             attempt j reads counters start + 2j and start + 2j + 1

The cost of a draw does not depend on the shape or the mean.  Every
acceptance test is evaluated in a form without cancellation (log1p(w) - w
by its series for small |w|, log k! by a table below 10 and the Stirling
series above), so its rounding stays near 1e-13 relative at any scale.

These identifiers are echoed into run manifests so any recorded number can
be regenerated from (seed, stream, counter) alone.
"""

from __future__ import annotations

import math

import numpy as np

MIXER_NAME = "splitmix64-counter"
GAUSSIAN_NAME = "box-muller-trig"
GAMMA_NAME = "marsaglia-tsang"
POISSON_NAME = "inversion-ptrs"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_KAPPA = np.uint64(0xC2B2AE3D27D4EB4F)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied to z in place; returns z."""
    z ^= z >> np.uint64(30)
    z *= _MULT1
    z ^= z >> np.uint64(27)
    z *= _MULT2
    z ^= z >> np.uint64(31)
    return z


def stream_keys(seed: int, stream_indices: np.ndarray) -> np.ndarray:
    """Per-stream 64-bit keys for the given stream indices.

    The samplers below take these keys, so a caller mixes them once for
    all the draws of its streams.
    """
    s = np.asarray([seed & _MASK64], dtype=np.uint64)
    idx = np.asarray(stream_indices, dtype=np.uint64)
    return _mix64(_mix64(s + _GAMMA) ^ _mix64(idx + _KAPPA))


def uniform_block(keys: np.ndarray, counter_start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for several streams at consecutive counters.

    Returns an array of shape (len(keys), count) whose row i holds the
    draws of the stream with key keys[i] at counters counter_start ...
    counter_start + count - 1.
    """
    counters = np.arange(counter_start, counter_start + count, dtype=np.uint64)
    # mixed as (count, streams), so each ufunc call runs along the keys and
    # not along a last axis of `count` words; the last step writes the
    # (streams, count) result
    w = _mix64(((counters + np.uint64(1)) * _GAMMA)[:, None] + keys)
    w >>= np.uint64(11)
    out = np.empty((keys.shape[0], count))
    np.multiply(w, _TWO_POW_MINUS_53, out=out.T)
    return out


def box_muller(u: np.ndarray) -> np.ndarray:
    """Map uniform pairs (..., 2) to standard normal pairs (..., 2)."""
    u = np.asarray(u, dtype=np.float64)
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    angle = (2.0 * np.pi) * u[..., 1]
    return np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)


def _log1pmx(w: np.ndarray) -> np.ndarray:
    """log(1 + w) - w for w > -1, to about 5e-14 relative.

    The difference cancels for small |w|; there the series -w^2/2 + w^3/3
    - ... is summed to w^11, which leaves 2e-21 relative at |w| < 0.01.
    """
    out = np.log1p(w)
    out -= w
    small = np.abs(w) < 0.01
    ws = w[small]
    # Horner's rule in place, from the w^11 coefficient
    acc = np.full(ws.shape, 1 / 11)
    for m in range(10, 1, -1):
        acc *= ws
        acc += (-1.0) ** (m + 1) / m
    acc *= ws
    acc *= ws
    out[small] = acc
    return out


def gamma(keys: np.ndarray, shape: float, counter_start: int) -> np.ndarray:
    """Gamma(shape, 1) draws for shape >= 1, one per stream key (Marsaglia-Tsang).

    With d = shape - 1/3 and c = 1/sqrt(9d), attempt j turns counters
    counter_start + 3j, + 1 into a normal x, the first of the Box-Muller
    pair: only its cosine is formed, by the operations `box_muller` applies.
    Counter + 2 gives a uniform u.  With v = (1 + c x)^3 = 1 + w, the draw
    d v is accepted when v > 0 and log(1 - u) < x^2/2 + d (log1p(w) - w).
    Attempt 0 reads `keys` in place; later attempts gather the keys of the
    streams still pending.
    """
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(keys.shape[0])
    pending = np.arange(keys.shape[0])
    pending_keys = keys
    attempt = 0
    while pending.size:
        u = uniform_block(pending_keys, counter_start + 3 * attempt, 3)
        x = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos((2.0 * np.pi) * u[:, 1])
        t = c * x
        w = t * (3.0 + t * (3.0 + t))  # (1 + t)^3 - 1 without cancellation
        live = w > -1.0
        log_ratio = 0.5 * x * x + d * _log1pmx(np.where(live, w, 0.0))
        accept = live & (np.log1p(-u[:, 2]) < log_ratio)
        # the draw from (1 + t)^3, which keeps its relative precision near v = 0
        out[pending[accept]] = d * (1.0 + t[accept]) ** 3
        pending = pending[~accept]
        pending_keys = keys[pending]
        attempt += 1
    return out


# log k! for k < 10; above, the Stirling series, whose first omitted term
# 691 / (360360 k^11) is below 2e-14 at k = 10
_LOG_FACTORIAL = np.array([math.log(math.factorial(k)) for k in range(10)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_poisson_pmf(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log(lam^k e^-lam / k!) for integer-valued k >= 0.

    For k >= 10 the Stirling form of log k! turns this into
    k (log1p(y) - y) - log(2 pi k)/2 - s(k) with y = (lam - k)/k, which has
    no cancellation however large lam is.  When no k is below 10, the usual
    case in PTRS, that form takes the whole arrays in one pass.
    """
    low = k < 10
    if not low.any():
        return _log_poisson_pmf_high(k, lam)
    out = np.empty(k.shape)
    kl = k[low]
    out[low] = -lam[low] + kl * np.log(lam[low]) - _LOG_FACTORIAL[kl.astype(np.int64)]
    high = ~low
    out[high] = _log_poisson_pmf_high(k[high], lam[high])
    return out


def _log_poisson_pmf_high(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The Stirling form of `_log_poisson_pmf` for k >= 10."""
    inv = 1.0 / k
    inv2 = inv * inv
    series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188))))
    return k * _log1pmx((lam - k) / k) - _HALF_LOG_2PI - 0.5 * np.log(k) - series


def _poisson_inversion(keys: np.ndarray, mu: np.ndarray, counter: int) -> np.ndarray:
    """The least k with u < P(K <= k), for the uniform u at `counter`.

    Every stream still searching is at the same k, so the search runs on
    arrays compacted to those streams.  A stream whose cumulative sum stops
    growing (the remaining mass is below its rounding, about 1e-16) takes
    the k reached there.
    """
    u = uniform_block(keys, counter, 1)[:, 0]
    out = np.zeros(mu.shape)
    p = np.exp(-mu)
    cdf = p
    idx = np.arange(mu.shape[0])
    more = u >= cdf
    k = 0
    while True:
        idx, u, mu, p, cdf = idx[more], u[more], mu[more], p[more], cdf[more]
        if not idx.size:
            return out
        k += 1
        p = p * (mu / k)
        grown = cdf + p
        more = (u >= grown) & (grown > cdf)
        cdf = grown
        out[idx] = k


def _poisson_ptrs(keys: np.ndarray, lam: np.ndarray, counter_start: int) -> np.ndarray:
    """Poisson draws for means >= 10 by transformed rejection with squeeze.

    Attempt 0 reads the per-stream arrays in place; each later attempt
    gathers them once for the streams still pending.
    """
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = np.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(lam.shape)
    pending = np.arange(lam.shape[0])
    per_stream = (keys, lam, a, b, v_r, log_inv_alpha)
    kp, lp, ap, bp, vp, lip = per_stream
    attempt = 0
    while pending.size:
        r = uniform_block(kp, counter_start + 2 * attempt, 2)
        u = r[:, 0] - 0.5
        v = 1.0 - r[:, 1]  # in (0, 1], so log(v) is finite
        us = 0.5 - np.abs(u)
        # us = 0 (u = -1/2, one uniform in 2**53) gives k = -inf, which is rejected
        with np.errstate(divide="ignore"):
            k = np.floor((2.0 * ap / us + bp) * u + lp + 0.43)
        accept = (us >= 0.07) & (v <= vp)
        test = ~accept & (k >= 0) & ~((us < 0.013) & (v > us))
        lhs = np.log(v[test]) + lip[test] - np.log(ap[test] / us[test] ** 2 + bp[test])
        accept[test] = lhs <= _log_poisson_pmf(k[test], lp[test])
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
        kp, lp, ap, bp, vp, lip = (x[pending] for x in per_stream)
        attempt += 1
    return out


def poisson(keys: np.ndarray, means: np.ndarray, counter_start: int) -> np.ndarray:
    """Poisson draws (as float64 counts) of the given means, one per stream key.

    Means below 10 invert the uniform at counter_start; larger means run
    PTRS, attempt j reading counters counter_start + 2j and + 1.  PTRS's
    first attempt reads the keys, means and per-stream constants in place;
    later attempts gather them for the streams still pending.
    """
    means = np.asarray(means, dtype=np.float64)
    out = np.empty(means.shape)
    small = means < 10.0
    out[small] = _poisson_inversion(keys[small], means[small], counter_start)
    out[~small] = _poisson_ptrs(keys[~small], means[~small], counter_start)
    return out
