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
_STRIP = 64  # rows per strip in the skew check of rank_frobenius_bound
# norms at or below this skip that check; the 1% under its 1e-9 floor covers
# the rounding of the computed norm
_GATE_FREE_NORM = 0.99e-9


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


def rank_frobenius_bound(d: np.ndarray) -> float:
    """Upper bound sqrt(side) * ||d||_F on the trace norm of a Hermitian matrix.

    By Cauchy-Schwarz on the eigenvalues, ||d||_1 <= sqrt(rank d) ||d||_F, and
    the rank is at most the side.  The bound is tight when d has full rank
    and eigenvalues of one modulus, and never more than sqrt(side) times
    the trace norm.  It never writes d.  It reads it once for the Frobenius
    norm and, where that norm exceeds _GATE_FREE_NORM, once more in strips of
    rows and the matching strips of columns, where the skew residual
    (d - d^dagger) / 2 must stay within 1e-9 of max(1, max |d|), or
    DomainError.  Below that norm the gate cannot fail: the residual is at
    most max |d| <= ||d||_F, under the tolerance, which is at least 1e-9.
    The strip temporaries are the only other buffers.
    """
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError(f"rank_frobenius_bound expects a square matrix, got shape {d.shape}")
    norm = float(np.linalg.norm(d))
    if not norm <= _GATE_FREE_NORM:
        scale = skew = 0.0
        for start in range(0, d.shape[0], _STRIP):
            # the row strip from the diagonal on and its mirror column strip:
            # together over all strips they cover every entry
            upper = d[start : start + _STRIP, start:]
            lower = d[start:, start : start + _STRIP]
            scale = max(scale, float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
            skew = max(skew, float(np.max(np.abs(upper - np.conjugate(lower.T)))) / 2)
        if skew > 1e-9 * max(1.0, scale):
            raise DomainError("rank_frobenius_bound expects a Hermitian matrix")
    return float(np.sqrt(d.shape[0]) * norm)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    The difference d = a - b and its Hermitian part (conj(d^T) + d) / 2 are
    the full-size buffers; the skew residual d - (conj(d^T) + d) / 2 must
    stay within 1e-9 of max(1, max |d|), or DomainError.  Real operators
    take the several times faster real solver.
    """
    a, b = np.asarray(a), np.asarray(b)
    d = np.subtract(a, b, dtype=np.result_type(a, b, 1.0))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("trace_distance expects square matrices of equal shape")
    h = np.conjugate(d.T) + d
    h /= 2
    scale = max(1.0, float(np.max(np.abs(d), initial=0.0)))
    if np.max(np.abs(d - h), initial=0.0) > 1e-9 * scale:
        raise DomainError("trace_distance expects Hermitian operators")
    return float(np.abs(np.linalg.eigvalsh(h)).sum()) / 2
