"""Trace norms for the Fock oracle's certificates.

`trace_distance` is the exact half trace norm of a difference of Hermitian
operators, by one dense eigensolve.  Its Hermiticity gate,
`require_hermitian`, is taken in strips of rows so that it needs no
full-size temporary; the concentration step runs it on each slab's square
(`fock._concentration_step`).  Operators are plain ``numpy.ndarray``
objects, up to a few hundred per side.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_STRIP = 64  # rows per strip in the Hermiticity gate


def require_hermitian(d: np.ndarray, caller: str) -> None:
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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    The difference d = a - b must pass the Hermiticity gate
    (`require_hermitian`); it and its Hermitian part (conj(d^T) + d) / 2 are
    the full-size buffers.  Real operators take the several times faster
    real solver.
    """
    a, b = np.asarray(a), np.asarray(b)
    d = np.subtract(a, b, dtype=np.result_type(a, b, 1.0))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("trace_distance expects square matrices of equal shape")
    require_hermitian(d, "trace_distance")
    h = np.conjugate(d.T) + d
    h /= 2
    return float(np.abs(np.linalg.eigvalsh(h)).sum()) / 2
