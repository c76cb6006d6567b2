"""Truncated Fock-space oracle for displaced thermal states.

This module rebuilds everything the analytic layers assume as explicit
matrices on the basis |0> ... |cutoff-1>: displaced thermal densities, the
two-mode beam-splitter unitary, the measurement probabilities, and a
finite-difference RLD Fisher matrix.  It exists to certify the closed
forms in `bounds` and the sampling laws in `states`, so it shares no
formulas with them beyond the thermal weights.

Conventions: single-mode operators are (cutoff x cutoff) complex ndarrays;
two-mode operators are (cutoff^2 x cutoff^2) ndarrays with basis index
(m, n) -> m * cutoff + n (numpy.kron order, mode 1 first).  Densities built
here have trace <= 1, with the deficit bounded by the tail functions below.

The beam splitter conserves the total photon number m + n, so the two-mode
window splits into 2 cutoff - 1 blocks of equal total (`_photon_blocks`),
each at most cutoff states wide.  The unitary is exponentiated one block at
a time and the concentration checks conjugate by it one block at a time, so
they form no dense two-mode matrix product and no matrix exponential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bounds import ThetaPoint
from .errors import DomainError, NumericalError, PreconditionError
from .linalg import trace_distance

DEFAULT_TAIL_TOL = 1e-8
_DISTANCE_RULE_TOL = 1e-12  # default-cutoff target for trace-distance certifications
_CONDITION_LIMIT = 1e12
_FD_STEP = 1e-4  # central-difference step of numeric_rld_fisher
# two-mode operators hold cutoff**4 complex entries (384 MB at 70); a check keeps
# about five alive at its peak, in trace_distance of the joint output (plus the
# real unitary, half an operator): the N = 2 default cutoff 69 fits, the N = 3
# default 97 does not
MAX_CUTOFF = 70


# ---------------------------------------------------------------------------
# cutoff selection
# ---------------------------------------------------------------------------

def thermal_tail(n_mean: float, cutoff: int) -> float:
    """Probability weight of a thermal state above the cutoff: (N/(N+1))^cutoff."""
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive, got {n_mean}")
    return (n_mean / (n_mean + 1.0)) ** cutoff


def poisson_tail_bound(mean: float, cutoff: int) -> float:
    """Chernoff bound on P(X >= cutoff) for X ~ Poisson(mean)."""
    if mean < 0:
        raise DomainError(f"mean must be nonnegative, got {mean}")
    if mean == 0.0:
        return 0.0
    if cutoff <= mean:
        return 1.0
    return math.exp(-mean + cutoff * (1.0 + math.log(mean / cutoff)))


def displaced_thermal_tail_bound(n_mean: float, amplitude: float, cutoff: int) -> float:
    """Chernoff bound on the photon-count tail of a displaced thermal state.

    The count X of the state with amplitude `amplitude` and thermal number N
    has E[s^X] = exp(mu (s-1) / (1 - N(s-1))) / (1 - N(s-1)) for
    1 < s < 1 + 1/N, with mu = amplitude^2; Markov's inequality then bounds
    P(X >= cutoff) by min_s E[s^X] / s^cutoff.  Reduces to the exact thermal
    tail at zero amplitude.
    """
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive, got {n_mean}")
    mu = float(amplitude) ** 2
    if mu == 0.0:
        return thermal_tail(n_mean, cutoff)
    best = 0.0
    for t in np.linspace(1e-4, 1.0 - 1e-4, 400):
        s = 1.0 + t / n_mean
        log_bound = mu * (s - 1.0) / (1.0 - t) - math.log1p(-t) - cutoff * math.log(s)
        best = min(best, log_bound)
    return math.exp(best) if best < 0.0 else 1.0


def cutoff_for(
    n_mean: float,
    amplitude: float = 0.0,
    tol: float = DEFAULT_TAIL_TOL,
    min_cutoff: int = 2,
) -> int:
    """Smallest cutoff whose thermal and coherent tails both fall below tol.

    `amplitude` is the largest coherent amplitude the computation touches;
    its photon distribution tail is bounded by the Poisson Chernoff bound at
    mean |amplitude|^2.
    """
    if not (0 < tol < 1):
        raise DomainError(f"tol must be in (0, 1), got {tol}")
    if not (0 < n_mean < math.inf):
        raise DomainError(f"n_mean must be positive and finite, got {n_mean}")
    # log(N/(N+1)) written with log1p stays nonzero where N/(N+1) rounds to 1
    d_thermal = math.log(tol) / -math.log1p(1.0 / n_mean)
    if not math.isfinite(d_thermal):
        raise PreconditionError(f"no finite cutoff reaches tail {tol:g} at n_mean {n_mean:g}")
    d = max(min_cutoff, 2, math.ceil(d_thermal))
    try:
        return _least_poisson_cutoff(float(abs(amplitude)) ** 2, tol, d)
    except (OverflowError, ValueError):
        raise PreconditionError(
            f"no finite cutoff reaches tail {tol:g} at amplitude {amplitude:g}"
        ) from None


def _least_poisson_cutoff(mu: float, tol: float, start: int) -> int:
    """Least cutoff >= start with poisson_tail_bound(mu, cutoff) < tol.

    The bound is 1 up to mu and strictly decreasing above it, so the search
    gallops up from the first integer above mu and then bisects.
    """
    if mu == 0.0:
        return start
    start = max(start, math.floor(mu) + 1)
    if poisson_tail_bound(mu, start) < tol:
        return start
    failing, passing = start, start + 1
    while poisson_tail_bound(mu, passing) >= tol:
        failing, passing = passing, passing + 2 * (passing - failing)
    while passing - failing > 1:
        mid = (failing + passing) // 2
        if poisson_tail_bound(mu, mid) < tol:
            passing = mid
        else:
            failing = mid
    return passing


# ---------------------------------------------------------------------------
# operators and states
# ---------------------------------------------------------------------------

def annihilation(cutoff: int) -> np.ndarray:
    """Annihilation operator: <m|a|n> = sqrt(n) delta_{m,n-1}."""
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1).astype(complex)


def number_operator(cutoff: int) -> np.ndarray:
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    return np.diag(np.arange(cutoff, dtype=float)).astype(complex)


def thermal_density(n_mean: float, cutoff: int) -> np.ndarray:
    """Truncated thermal state, diagonal weights built by ratio recurrence.

    The trace deficit equals thermal_tail(n_mean, cutoff).
    """
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive, got {n_mean}")
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    ratio = n_mean / (n_mean + 1.0)
    weights = np.empty(cutoff)
    weights[0] = 1.0 / (n_mean + 1.0)
    for k in range(1, cutoff):
        weights[k] = weights[k - 1] * ratio
    return np.diag(weights).astype(complex)


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Coefficients <k|alpha> = e^{-|alpha|^2/2} alpha^k / sqrt(k!)."""
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    v = np.zeros(cutoff, dtype=complex)
    v[0] = 1.0
    for k in range(1, cutoff):
        v[k] = v[k - 1] * alpha / math.sqrt(k)
    return v * math.exp(-abs(alpha) ** 2 / 2.0)


def displacement_operator(zeta: complex, cutoff: int) -> np.ndarray:
    """Window of the displacement operator with exact matrix elements.

    The first row is <0|D(zeta)|n> = e^{-|zeta|^2/2} (-conj(zeta))^n/sqrt(n!);
    the remaining rows follow from a D(zeta) = D(zeta)(a + zeta):

        sqrt(m+1) d[m+1, n] = zeta d[m, n] + sqrt(n) d[m, n-1]

    This reproduces the associated-Laguerre closed form without cancellation
    for the amplitudes used here.  Unitarity holds away from the top edge of
    the window; the leaked weight is controlled by the cutoff rule.
    """
    zeta = complex(zeta)
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    if abs(zeta) ** 2 > cutoff / 4.0:
        warnings.warn(
            f"|zeta|^2 = {abs(zeta)**2:.3g} is large for cutoff {cutoff}; "
            "displacement window will leak",
            stacklevel=2,
        )
    d = np.zeros((cutoff, cutoff), dtype=complex)
    row = np.zeros(cutoff, dtype=complex)
    row[0] = 1.0
    for n in range(1, cutoff):
        row[n] = row[n - 1] * (-zeta.conjugate()) / math.sqrt(n)
    d[0] = row * math.exp(-abs(zeta) ** 2 / 2.0)
    roots = np.sqrt(np.arange(cutoff, dtype=float))
    for m in range(cutoff - 1):
        inv = 1.0 / math.sqrt(m + 1)
        d[m + 1, 0] = zeta * d[m, 0] * inv
        d[m + 1, 1:] = (zeta * d[m, 1:] + roots[1:] * d[m, :-1]) * inv
    return d


def displaced_thermal_density(zeta: complex, n_mean: float, cutoff: int) -> np.ndarray:
    """Displaced thermal state via operator conjugation D(zeta) rho_th D(zeta)^dagger.

    The trace deficit is at most thermal_tail(n_mean, cutoff) plus
    displaced_thermal_tail_bound(n_mean, |zeta|, cutoff): the first term is
    the dropped thermal weight, the second bounds what the displacement
    window pushes past the cutoff.
    """
    dop = displacement_operator(zeta, cutoff)
    return dop @ thermal_density(n_mean, cutoff) @ dop.conj().T


def concentration_angle(i: int) -> float:
    """Beam-splitter angle arctan(1/sqrt(i)) of cascade step i (step 1: pi/4)."""
    if i < 1:
        raise DomainError(f"cascade step must be at least 1, got {i}")
    return math.atan(1.0 / math.sqrt(i))


def _photon_blocks(cutoff: int) -> list[np.ndarray]:
    """Two-mode basis indices of each total T = 0 .. 2 cutoff - 2, mode-1 count ascending.

    Block T holds the window states (m, T - m); the beam splitter couples
    only neighbours (m, T - m) and (m + 1, T - m - 1) inside one block.
    """
    blocks = []
    for total in range(2 * cutoff - 1):
        m = np.arange(max(0, total - cutoff + 1), min(total, cutoff - 1) + 1)
        blocks.append(m * cutoff + (total - m))
    return blocks


def beam_splitter(phi: float, cutoff: int) -> np.ndarray:
    """Two-mode unitary exp(phi (adag x b - a x bdag)) on the truncated space.

    The truncated generator maps each total-photon block to itself, so the
    exponential is the direct sum of its block exponentials.  Block T is the
    real antisymmetric tridiagonal matrix G with G[k+1, k] = sqrt((m+1)(T-m))
    for m the mode-1 count of entry k; i G is Hermitian, and with
    i G = V diag(w) V^dagger the block is V diag(exp(-i phi w)) V^dagger,
    whose real part is stored.  This is exact on every block, including the
    blocks with total >= cutoff that the window truncates (there it is the
    exponential of the truncated generator, still orthogonal).  At
    phi = arctan(1/sqrt(1)) two equal coherent amplitudes merge into mode 1.
    """
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    unitary = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for idx in _photon_blocks(cutoff):
        m, n = np.divmod(idx[:-1], cutoff)
        coupling = np.sqrt((m + 1.0) * n)
        generator = np.diag(coupling, -1) - np.diag(coupling, 1)
        w, v = np.linalg.eigh(1j * generator)
        unitary[np.ix_(idx, idx)] = ((v * np.exp(-1j * phi * w)) @ v.conj().T).real
    if not np.all(np.isfinite(unitary)):
        raise NumericalError(f"matrix exponential failed for phi={phi}, cutoff={cutoff}")
    return unitary


def _conjugate_by_blocks(unitary: np.ndarray, op: np.ndarray) -> np.ndarray:
    """unitary @ op @ unitary.T for a real unitary that keeps each photon block.

    U X U^T = (U (U X)^T)^T: two passes that each mix rows block by block,
    costing cutoff^2 times the sum of squared block sizes instead of
    cutoff^6.  The unitary is real, so a pass acts on the real and imaginary
    parts alike and runs as real products on the float view of the rows.
    """
    cutoff = math.isqrt(op.shape[0])
    blocks = [(idx, unitary[np.ix_(idx, idx)]) for idx in _photon_blocks(cutoff)]

    def mix_rows(x: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(x, dtype=complex).view(float)
        out = np.empty_like(flat)
        for idx, u in blocks:
            out[idx] = u @ flat[idx]
        return out.view(complex)

    return mix_rows(mix_rows(op).T).T


def partial_trace(op: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one mode of a two-mode operator; keep is "first" or "second"."""
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DomainError(f"partial_trace expects a square matrix, got shape {op.shape}")
    cutoff = math.isqrt(op.shape[0])
    if cutoff * cutoff != op.shape[0]:
        raise DomainError(f"matrix side {op.shape[0]} is not a perfect square")
    tensor = op.reshape(cutoff, cutoff, cutoff, cutoff)
    if keep == "first":
        return np.einsum("mnpn->mp", tensor)
    if keep == "second":
        return np.einsum("mnmq->nq", tensor)
    raise DomainError(f'keep must be "first" or "second", got {keep!r}')


# ---------------------------------------------------------------------------
# verification routines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    """Trace distances certifying one concentration step."""

    cutoff: int
    phi: float
    dist_first: float
    dist_second: float
    dist_joint: float


def require_cutoff_limit(cutoff: int) -> None:
    """Refuse a cutoff above MAX_CUTOFF before any operator is allocated."""
    if cutoff > MAX_CUTOFF:
        raise PreconditionError(
            f"the run needs Fock cutoff {cutoff}, above the limit {MAX_CUTOFF} "
            "(two-mode operators grow as cutoff**4, 384 MB each at the limit)"
        )


def concentration_cutoff(zeta: complex, n_mean: float, n_copies: int) -> int:
    """Default cutoff of the concentration checks up to n_copies copies.

    It aims at tails below 1e-12, deeper than the DEFAULT_TAIL_TOL rule,
    because truncation error enters the trace distances amplified by
    roughly the basis size.
    """
    amplitude = math.sqrt(n_copies) * abs(complex(zeta))
    return cutoff_for(n_mean, amplitude, _DISTANCE_RULE_TOL)


def require_tails(n_mean: float, amplitude: float, cutoff: int) -> None:
    """Refuse a cutoff whose thermal or coherent tail reaches DEFAULT_TAIL_TOL.

    `amplitude` is the largest coherent amplitude the check touches.  The
    size limit is separate (`require_cutoff_limit`): single-mode checks may
    exceed it where two-mode checks may not.
    """
    t_th = thermal_tail(n_mean, cutoff)
    t_coh = poisson_tail_bound(amplitude**2, cutoff)
    if max(t_th, t_coh) >= DEFAULT_TAIL_TOL:
        raise PreconditionError(
            f"cutoff {cutoff} violates the tail rule (thermal tail {t_th:.3g}, "
            f"coherent bound {t_coh:.3g}, tol {DEFAULT_TAIL_TOL:.1g}); "
            f"use cutoff >= {cutoff_for(n_mean, amplitude)}"
        )


def verify_concentration_cascade(
    zeta: complex,
    n_mean: float,
    n_copies: int = 3,
    cutoff: int | None = None,
) -> list[ConcentrationReport]:
    """Certify cascade steps up to n_copies using two-mode computations only.

    Step i couples the running concentrated mode (amplitude sqrt(i) zeta)
    with a fresh copy at angle arctan(1/sqrt(i)), expecting outputs
    sqrt(i+1) zeta and vacuum-centered thermal; the trace distances of the
    joint output and both marginals from those targets certify the step,
    and the joint distance also certifies the product structure.  Step 1
    (phi = pi/4) is the n = 2 identity.  Each step starts from the analytic
    intermediate certified by the previous one, so the full n_copies-mode
    state is never materialized.

    The automatic cutoff is `concentration_cutoff`; an explicit one must
    pass `require_tails` and `require_cutoff_limit`.
    """
    if n_copies < 2:
        raise DomainError(f"n_copies must be at least 2, got {n_copies}")
    amplitude = math.sqrt(n_copies) * abs(complex(zeta))
    if cutoff is None:
        cutoff = concentration_cutoff(zeta, n_mean, n_copies)
    require_cutoff_limit(cutoff)
    require_tails(n_mean, amplitude, cutoff)
    fresh = displaced_thermal_density(zeta, n_mean, cutoff)
    target_second = thermal_density(n_mean, cutoff)
    carried = fresh
    reports = []
    for i in range(1, n_copies):
        phi = concentration_angle(i)
        unitary = beam_splitter(phi, cutoff)
        joint = _conjugate_by_blocks(unitary, np.kron(carried, fresh))
        target_first = displaced_thermal_density(
            math.sqrt(i + 1.0) * complex(zeta), n_mean, cutoff
        )
        reports.append(
            ConcentrationReport(
                cutoff=cutoff,
                phi=phi,
                dist_first=trace_distance(partial_trace(joint, "first"), target_first),
                dist_second=trace_distance(partial_trace(joint, "second"), target_second),
                dist_joint=trace_distance(joint, np.kron(target_first, target_second)),
            )
        )
        carried = target_first
    return reports


def numeric_rld_fisher(theta: ThetaPoint, cutoff: int) -> np.ndarray:
    """Finite-difference RLD Fisher matrix of the truncated family.

    Derivatives of rho(theta) along (theta1, theta2, N) are central
    differences with step _FD_STEP; the information matrix is
    J[i, j] = tr(rho^{-1} d_i rho d_j rho), the ordering consistent with
    the closed-form inverses in `bounds`.  The leading 2x2 block is the
    matrix of the two-parameter family at fixed N.
    """
    center = np.array([theta.theta1, theta.theta2, theta.n_mean], dtype=float)

    def density(vec: np.ndarray) -> np.ndarray:
        point = ThetaPoint(vec[0], vec[1], vec[2])
        return displaced_thermal_density(point.zeta, point.n_mean, cutoff)

    rho = density(center)
    condition = np.linalg.cond(rho)
    if condition > _CONDITION_LIMIT:
        raise NumericalError(
            f"density is too ill-conditioned for a reliable inverse "
            f"(condition {condition:.2e} > {_CONDITION_LIMIT:.0e}); "
            "increase n_mean or decrease the cutoff"
        )
    derivatives = []
    for i in range(3):
        plus = center.copy()
        minus = center.copy()
        plus[i] += _FD_STEP
        minus[i] -= _FD_STEP
        derivatives.append((density(plus) - density(minus)) / (2.0 * _FD_STEP))
    solved = [np.linalg.solve(rho, d) for d in derivatives]
    fisher = np.empty((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            fisher[i, j] = np.trace(solved[i] @ derivatives[j])
    return fisher


# ---------------------------------------------------------------------------
# measurement probabilities
# ---------------------------------------------------------------------------

def photon_probability(rho: np.ndarray, k: int) -> float:
    """Probability of counting k photons: the k-th diagonal entry."""
    if k < 0:
        raise DomainError(f"photon count must be nonnegative, got {k}")
    rho = np.asarray(rho)
    if k >= rho.shape[0]:
        return 0.0
    return float(rho[k, k].real)


def heterodyne_probability_density(rho: np.ndarray, alpha: complex) -> float:
    """Heterodyne outcome density <alpha|rho|alpha> / pi."""
    rho = np.asarray(rho)
    v = coherent_vector(alpha, rho.shape[0])
    return float(np.vdot(v, rho @ v).real / math.pi)
