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


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^dagger) / 2, as a new array with no other full-size temporary."""
    a = np.asarray(a)
    # np.conjugate always allocates; for a real array a.conj() is a itself
    h = np.conjugate(a.T, dtype=np.result_type(a, 1.0))
    h += a
    h /= 2
    return h


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


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian operators.

    The difference and its Hermitian part are the only full-size buffers;
    the skew residual overwrites the difference, which is freed before
    the eigensolve.  Real operators take the several times faster real solver.
    """
    a, b = np.asarray(a), np.asarray(b)
    d = np.subtract(a, b, dtype=np.result_type(a, b, 1.0))
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise DomainError("trace_distance expects square matrices of equal shape")
    scale = max(1.0, float(np.max(np.abs(d))))
    h = hermitian_part(d)
    d -= h
    skew = float(np.max(np.abs(d)))
    del d
    if skew > 1e-9 * scale:
        raise DomainError("trace_distance expects Hermitian operators")
    return float(np.abs(np.linalg.eigvalsh(h)).sum() / 2)

