"""Small dense matrix helpers used across the package.

Complex matrices are plain ``numpy.ndarray`` objects; these functions supply
the decompositions and norms the bound formulas and the Fock oracle need.
Everything here targets desk-scale matrices (a few entries up to a few
thousand per side), so dense LAPACK routines are always the right tool.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

PSD_EIGENVALUE_TOL = 1e-12
_STRIP = 64  # rows per strip in hermitian_trace_norm


def sqrt_psd(m: np.ndarray, negative_tol: float = PSD_EIGENVALUE_TOL) -> np.ndarray:
    """Symmetric square root of a real symmetric positive semidefinite matrix.

    Eigenvalues in [-negative_tol, 0) are treated as round-off and clamped to
    zero; anything more negative, or an asymmetric input, raises DomainError.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"sqrt_psd expects a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m / 2 - m.T / 2)) > 0.5e-9 * scale:  # m - m.T can overflow
        raise DomainError("sqrt_psd expects a symmetric matrix")
    w, v = np.linalg.eigh(m / 2 + m.T / 2)  # (m + m.T) / 2 overflows near the float64 limit
    if w.min() < -negative_tol * scale:
        raise DomainError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return (root + root.T) / 2


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a square real or complex matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"trace_norm expects a square matrix, got shape {m.shape}")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def hermitian_trace_norm(d: np.ndarray) -> float:
    """Trace norm of a Hermitian float64 or complex128 matrix that the caller hands over.

    d is overwritten with its Hermitian part (d + d^dagger) / 2, formed one
    strip of rows and the matching strip of columns at a time, so the strip
    temporaries and the eigensolver's own copy are the only other buffers.
    The skew residual d - (d + d^dagger) / 2 must stay within 1e-9 of
    max(1, max |d|), or DomainError.  Real operators take the several times
    faster real solver.
    """
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError(f"hermitian_trace_norm expects a square matrix, got shape {d.shape}")
    scale = skew = 0.0
    for start in range(0, d.shape[0], _STRIP):
        # the column strip from the diagonal down and its mirror row strip:
        # no earlier strip touched either, and the diagonal block, in both,
        # gets the same values twice
        lower = d[start:, start : start + _STRIP]
        upper = d[start : start + _STRIP, start:]
        parts = []
        for x, mirror in ((lower, upper), (upper, lower)):
            h = np.conjugate(mirror.T)
            h += x
            h /= 2
            scale = max(scale, float(np.max(np.abs(x))))
            skew = max(skew, float(np.max(np.abs(x - h))))
            parts.append(h)
        lower[...], upper[...] = parts
    if skew > 1e-9 * max(1.0, scale):
        raise DomainError("hermitian_trace_norm expects a Hermitian matrix")
    return float(np.abs(np.linalg.eigvalsh(d)).sum())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    a - b is the one full-size buffer this allocates; `hermitian_trace_norm`
    overwrites it, and the inputs stay untouched.
    """
    a, b = np.asarray(a), np.asarray(b)
    d = np.subtract(a, b, dtype=np.result_type(a, b, 1.0))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("trace_distance expects square matrices of equal shape")
    return hermitian_trace_norm(d) / 2
