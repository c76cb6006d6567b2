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

These identifiers are echoed into run manifests so any recorded number can
be regenerated from (seed, stream, counter) alone.
"""

from __future__ import annotations

import numpy as np

MIXER_NAME = "splitmix64-counter"
GAUSSIAN_NAME = "box-muller-trig"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_KAPPA = np.uint64(0xC2B2AE3D27D4EB4F)
_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_TWO_POW_MINUS_53 = 1.0 / 9007199254740992.0


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MULT1
    z = (z ^ (z >> np.uint64(27))) * _MULT2
    return z ^ (z >> np.uint64(31))


def stream_keys(seed: int, stream_indices: np.ndarray) -> np.ndarray:
    """Per-stream 64-bit keys for the given stream indices."""
    s = np.asarray([seed & _MASK64], dtype=np.uint64)
    idx = np.asarray(stream_indices, dtype=np.uint64)
    return _mix64(_mix64(s + _GAMMA) ^ _mix64(idx + _KAPPA))


def uniform_block(seed: int, stream_indices: np.ndarray, counter_start: int, count: int) -> np.ndarray:
    """Uniforms in [0, 1) for several streams at consecutive counters.

    Returns an array of shape (len(stream_indices), count) whose row i holds
    the draws of stream_indices[i] at counters counter_start ... counter_start
    + count - 1.
    """
    keys = stream_keys(seed, stream_indices)
    counters = np.arange(counter_start, counter_start + count, dtype=np.uint64)
    w = _mix64(keys[..., None] + (counters + np.uint64(1)) * _GAMMA)
    return (w >> np.uint64(11)).astype(np.float64) * _TWO_POW_MINUS_53


def box_muller(u: np.ndarray) -> np.ndarray:
    """Map uniform pairs (..., 2) to standard normal pairs (..., 2)."""
    u = np.asarray(u, dtype=np.float64)
    radius = np.sqrt(-2.0 * np.log1p(-u[..., 0]))
    angle = (2.0 * np.pi) * u[..., 1]
    return np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)

