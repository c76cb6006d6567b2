"""Trace norms for the Fock oracle's certificates.

`trace_distance` is the exact half trace norm of a difference of Hermitian
operators, by one dense eigensolve; `rank_frobenius_bound` is a certified
upper bound on a trace norm from the Frobenius norm.  Both share one
Hermiticity gate, taken in strips of rows so that it needs no full-size
temporary.  Operators are plain ``numpy.ndarray`` objects, up to a few
thousand per side.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_STRIP = 64  # rows per strip in the Hermiticity gate
# rank_frobenius_bound skips the gate at norms at or below this; the 1% under
# the gate's 1e-9 floor covers the rounding of the computed norm
_GATE_FREE_NORM = 0.99e-9


def _require_hermitian(d: np.ndarray, caller: str) -> None:
    """Raise DomainError unless d's skew residual is within 1e-9 of max(1, max |d|).

    The residual (d - d^dagger) / 2 is taken in strips of rows from the
    diagonal on and the matching strips of columns, which together cover
    every entry; the strip temporaries are the only buffers.
    """
    scale = skew = 0.0
    for start in range(0, d.shape[0], _STRIP):
        upper = d[start : start + _STRIP, start:]
        lower = d[start:, start : start + _STRIP]
        scale = max(scale, float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
        skew = max(skew, float(np.max(np.abs(upper - np.conjugate(lower.T)))) / 2)
    if skew > 1e-9 * max(1.0, scale):
        raise DomainError(f"{caller} expects Hermitian operators")


def rank_frobenius_bound(d: np.ndarray) -> float:
    """Upper bound sqrt(side) * ||d||_F on the trace norm of a Hermitian matrix.

    By Cauchy-Schwarz on the eigenvalues, ||d||_1 <= sqrt(rank d) ||d||_F, and
    the rank is at most the side.  The bound is tight when d has full rank
    and eigenvalues of one modulus, and never more than sqrt(side) times
    the trace norm.  It never writes d.  It reads it once for the Frobenius
    norm and, where that norm exceeds _GATE_FREE_NORM, once more for the
    Hermiticity gate (`_require_hermitian`).  Below that norm the gate cannot
    fail: the residual is at most max |d| <= ||d||_F, under the tolerance,
    which is at least 1e-9.
    """
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError(f"rank_frobenius_bound expects a square matrix, got shape {d.shape}")
    norm = float(np.linalg.norm(d))
    if not norm <= _GATE_FREE_NORM:
        _require_hermitian(d, "rank_frobenius_bound")
    return float(np.sqrt(d.shape[0]) * norm)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    The difference d = a - b must pass the Hermiticity gate
    (`_require_hermitian`); it and its Hermitian part (conj(d^T) + d) / 2 are
    the full-size buffers.  Real operators take the several times faster
    real solver.
    """
    a, b = np.asarray(a), np.asarray(b)
    d = np.subtract(a, b, dtype=np.result_type(a, b, 1.0))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("trace_distance expects square matrices of equal shape")
    _require_hermitian(d, "trace_distance")
    h = np.conjugate(d.T) + d
    h /= 2
    return float(np.abs(np.linalg.eigvalsh(h)).sum()) / 2
