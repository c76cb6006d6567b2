"""Truncated Fock-space oracle for displaced thermal states.

This module rebuilds everything the analytic layers assume as explicit
matrices on the basis |0> ... |cutoff-1>: displaced thermal densities, the
two-mode beam-splitter blocks, the measurement probabilities, and the
inverse RLD Fisher matrix of the truncated family.  `oracle_checks` certifies
the closed forms in `bounds` and the sampling laws in `states` against them,
so this module shares no formulas with those beyond the thermal weights.

Conventions: single-mode operators follow the amplitude, float64 for a real
one and complex128 otherwise; two-mode operators are float64, because the
concentration cascade runs at |zeta| (`verify_concentration_cascade`).
Single-mode operators are (cutoff x cutoff); two-mode operators are
(cutoff^2 x cutoff^2) with basis index (m, n) -> m * cutoff + n (numpy.kron
order, mode 1 first).  Densities built here have trace <= 1, with the
deficit bounded by the tail functions below.

The beam splitter conserves the total photon number m + n, so the two-mode
window splits into 2 cutoff - 1 blocks of equal total (`_photon_blocks`),
each at most cutoff states wide.  The unitary is exponentiated one block at
a time and never assembled: the concentration checks conjugate by its blocks
in place, so they form no dense two-mode unitary, matrix product or matrix
exponential, and a cascade step holds one two-mode operator: the `np.kron`
input, which is mixed and transposed in place into the joint output
(`_concentration_step`).  Each block's rows are a basic slice of the
two-mode basis, and each block exponential is built from one real
tridiagonal eigensolve, taken once per cascade for all its angles
(`_beam_splitter_spectra`).  The joint output is certified against the
product target by the rank-Frobenius bound, one norm pass over the
difference, not by a two-mode eigensolve.  The product target is never
formed: its thermal factor is diagonal, so it is subtracted through strided
views of the joint output, and the step's one `np.kron` is its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .bounds import ThetaPoint, rld_inverse_2param, rld_inverse_3param
from .errors import DomainError, NumericalError, PreconditionError
from .linalg import rank_frobenius_bound, trace_distance

DEFAULT_TAIL_TOL = 1e-8
_DISTANCE_RULE_TOL = 1e-12  # default-cutoff target for trace-distance certifications
# two-mode operators hold cutoff**4 float64 entries, 192 MB at 70; a cascade
# step keeps one alive, the np.kron input that becomes the joint output in
# place, and peaks at about 189 MiB at 70 (measured): N = 2's default cutoff
# 69 fits, N = 3's 97 does not
MAX_CUTOFF = 70
_TILE = 128  # tile side of the in-place transpose between the conjugation's passes
RLD_TOL = 1e-9  # relative deviation of the RLD check; budget in truncated_rld_inverse
MAX_RLD_CUTOFF = 2**20


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


def cutoff_for(n_mean: float, amplitude: float = 0.0, tol: float = DEFAULT_TAIL_TOL) -> int:
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
    d = max(2, math.ceil(d_thermal))
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

def _thermal_weights(n_mean: float, cutoff: int) -> np.ndarray:
    """Thermal weights p_k = N^k / (N + 1)^(k + 1), k < cutoff, by ratio recurrence."""
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive, got {n_mean}")
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    factors = np.full(cutoff, n_mean / (n_mean + 1.0))
    factors[0] = 1.0 / (n_mean + 1.0)
    return np.cumprod(factors)


def thermal_density(n_mean: float, cutoff: int) -> np.ndarray:
    """Truncated thermal state diag(p_k); its trace deficit is thermal_tail(n_mean, cutoff)."""
    return np.diag(_thermal_weights(n_mean, cutoff))


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

    The recurrence loses accuracy toward the bottom-right corner of the
    window: against a 50-digit reference of the associated-Laguerre closed
    form the corner entries are off by 7.9e-7 at zeta = 2 sqrt(2), cutoff 37,
    and by 2.7e-7 at 1.2 sqrt(2), cutoff 69.  The densities built from it
    stay within 5e-15 of the reference in trace distance, because the thermal
    weights damp those columns.  Unitarity holds away from the top edge of
    the window; the leaked weight is controlled by the cutoff rule.  The
    window is real (float64) for a real zeta.
    """
    zeta = complex(zeta)
    if not zeta.imag:
        zeta = zeta.real
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    d = np.zeros((cutoff, cutoff), dtype=type(zeta))
    row = np.zeros(cutoff, dtype=type(zeta))
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


def _photon_blocks(cutoff: int) -> list[slice]:
    """Two-mode rows of each total T = 0 .. 2 cutoff - 2, mode-1 count ascending.

    Block T holds the window states (m, T - m), at rows
    m cutoff + T - m = m (cutoff - 1) + T: an arithmetic progression, so each
    block is a basic slice and selects a view, not a copy.  The beam splitter
    couples only neighbours (m, T - m) and (m + 1, T - m - 1) inside one block.
    """
    step = cutoff - 1
    blocks = []
    for total in range(2 * cutoff - 1):
        first, last = max(0, total - step), min(total, step)
        blocks.append(slice(first * step + total, last * step + total + 1, step))
    return blocks


def _beam_splitter_spectra(cutoff: int) -> list[tuple[slice, np.ndarray, np.ndarray]]:
    """(rows, w, W) for each `_photon_blocks` entry, with eigh(H) = (w, W).

    H is the real symmetric tridiagonal matrix of block T, with
    H[k+1, k] = H[k, k+1] = sqrt((m+1)(T-m)) for m the mode-1 count of
    entry k; `_beam_splitter_blocks` exponentiates it at any angle.  These
    2 cutoff - 1 eigensolves do not depend on the angle, so a cascade takes
    them once for all its steps.
    """
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    spectra = []
    for rows in _photon_blocks(cutoff):
        m, n = np.divmod(np.arange(rows.start, rows.stop, rows.step)[:-1], cutoff)
        coupling = np.sqrt((m + 1.0) * n)
        w, v = np.linalg.eigh(np.diag(coupling, -1) + np.diag(coupling, 1))
        spectra.append((rows, w, v))
    return spectra


def _beam_splitter_blocks(
    phi: float, spectra: list[tuple[slice, np.ndarray, np.ndarray]]
) -> list[tuple[slice, np.ndarray]]:
    """Blocks of the two-mode unitary exp(phi (adag x b - a x bdag)) on the truncated space.

    The truncated generator maps each total-photon block to itself, so the
    exponential is the direct sum of its block exponentials; this returns
    (rows, block) for each entry of `_beam_splitter_spectra`.  Block T is
    the exponential of the real antisymmetric tridiagonal matrix G with
    G[k+1, k] = sqrt((m+1)(T-m)) for m the mode-1 count of entry k.  With
    S = diag(i^k), S^dagger (i G) S is the real symmetric tridiagonal H with
    the same couplings, so for eigh(H) = (w, W) entry [j, k] of the block
    is Re(i^(j-k) (W diag(exp(-i phi w)) W^T)[j, k]): a real eigensolve.
    That product is formed as one complex product, summed in the order of
    the Hermitian form V diag(exp(-i phi w)) V^dagger with V = S W; the two
    real products W cos(phi w) W^T and W sin(phi w) W^T sum in another order
    and move the last bits of the larger blocks.  The phase, 1, i, -1 or
    -i, moves no bit.  Every block, the blocks with total >= cutoff that the
    window truncates included, is the exponential of its truncated generator
    to rounding (within 3.4e-14 of scipy's `expm`, and orthogonal as
    closely, at cutoffs 26 to 60), so U is orthogonal on the whole window.
    At phi = arctan(1/sqrt(1)) two equal coherent amplitudes merge into
    mode 1.
    """
    cutoff = (len(spectra) + 1) // 2
    phase = np.array([1, 1j, -1, -1j])[np.subtract.outer(np.arange(cutoff), np.arange(cutoff)) % 4]
    blocks = []
    for rows, w, v in spectra:
        block = (((v * np.exp(-1j * phi * w)) @ v.T) * phase[: len(w), : len(w)]).real
        if not np.all(np.isfinite(block)):
            raise NumericalError(f"matrix exponential failed for phi={phi}, cutoff={cutoff}")
        blocks.append((rows, block))
    return blocks


def _transpose_in_place(x: np.ndarray) -> None:
    """Transpose the square x in place, through one tile-sized temporary.

    Each pair of tiles mirrored across the diagonal is swapped, each
    transposed; a tile on the diagonal is its own mirror, copied out and
    written back transposed.  Every entry is copied, never computed, so the
    result is exact.  Where x is C-contiguous, each row of a tile is a
    contiguous run.
    """
    side = x.shape[0]
    temp = np.empty((min(side, _TILE),) * 2, dtype=x.dtype)
    for i in range(0, side, _TILE):
        rows = slice(i, i + _TILE)
        for j in range(i, side, _TILE):
            upper, lower = x[rows, j : j + _TILE], x[j : j + _TILE, rows]
            tile = temp[: upper.shape[0], : upper.shape[1]]
            np.copyto(tile, upper)
            if j > i:
                upper[...] = lower.T
            lower[...] = tile.T


def _conjugate_by_blocks(blocks: list[tuple[slice, np.ndarray]], op: np.ndarray) -> np.ndarray:
    """U op U^T for the real unitary U given by its photon blocks, in op's own buffer.

    U X U^T = (U (U X)^T)^T: two passes that each mix rows block by block in
    place, costing cutoff^2 times the sum of squared block sizes instead of
    cutoff^6, with `_transpose_in_place` between them.  A block's rows are a
    basic slice, so each product reads them in place.  No full-size buffer
    is allocated: `op` must be square and is overwritten, and the result is
    its transpose view, so where `op` is C-contiguous, so is the result's
    transpose.
    """

    def mix_rows(x: np.ndarray) -> None:
        for rows, u in blocks:
            x[rows] = u @ x[rows]

    mix_rows(op)
    _transpose_in_place(op)
    mix_rows(op)
    return op.T


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
    """Certificates of one concentration step.

    dist_first and dist_second are the trace distances of the marginals
    from their targets; joint_bound is an upper bound (the rank-Frobenius
    bound, `linalg.rank_frobenius_bound`) on the trace distance of the
    joint output from the product of the targets, not that distance.
    """

    cutoff: int
    phi: float
    dist_first: float
    dist_second: float
    joint_bound: float


def require_cutoff(n_mean: float, amplitude: float, cutoff: int) -> None:
    """Refuse a two-mode cutoff above MAX_CUTOFF, or one that truncates too much.

    The size limit is checked first, so a refused cutoff allocates nothing.
    Then the thermal tail and the Poisson bound at the largest coherent
    amplitude the check touches must both fall below DEFAULT_TAIL_TOL.
    """
    if cutoff > MAX_CUTOFF:
        raise PreconditionError(
            f"the run needs Fock cutoff {cutoff}, above the limit {MAX_CUTOFF} "
            "(two-mode operators grow as cutoff**4, 192 MB each at the limit, "
            "and a cascade step holds one)"
        )
    t_th = thermal_tail(n_mean, cutoff)
    # a square that overflows reads inf, and then cutoff_for names the amplitude
    t_coh = poisson_tail_bound(amplitude * amplitude, cutoff)
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
    sqrt(i+1) zeta and vacuum-centered thermal; the trace distances of
    both marginals from those targets certify the step, and the bound on
    the joint output's distance from their product certifies the product
    structure.  Step 1 (phi = pi/4) is the n = 2 identity.  Each step
    starts from the analytic intermediate certified by the previous one, so
    the full n_copies-mode state is never materialized.

    The sum of the joint bounds bounds the whole cascade.  Write rho_a for
    the displaced thermal state at amplitude a, tau for the thermal one, V_i
    for step i's unitary on modes 1 and i+1 (identity elsewhere), and
    S_i = V_i S_{i-1} V_i^T for the n-mode state after step i, from
    S_0 = rho_zeta^(x n).  Its target is
    P_i = rho_{sqrt(i+1) zeta} (x) tau^(x i) (x) rho_zeta^(x (n-1-i)), with
    P_0 = S_0, and

        S_i - P_i = V_i (S_{i-1} - P_{i-1}) V_i^T + (V_i P_{i-1} V_i^T - P_i).

    Up to the order of the modes, the last term is X_i (x) R_i, where X_i is
    the two-mode difference that step i bounds and R_i is a product of
    truncated states, of trace at most 1; so its trace norm is
    ||X_i||_1 tr R_i <= ||X_i||_1.  V_i is orthogonal on the whole window
    and keeps the trace norm, so ||S_{n-1} - P_{n-1}||_1 <= sum_i ||X_i||_1:
    the n-mode output lies within sum_i joint_bound_i of
    rho_{sqrt(n) zeta} (x) tau^(x (n-1)) in trace distance.

    The cascade runs at r = |zeta|, so every two-mode operator is float64;
    in exact arithmetic the certificates at zeta = e^{i theta} r equal those
    at r.  R = diag(e^{i k theta}) is unitary on the window, and
    D(e^{i theta} r) = R D(r) R^dagger, so rho_{e^{i theta} r} = R rho_r R^dagger,
    because the thermal density, also the second target, is diagonal and
    commutes with R.  R (x) R is the scalar e^{i T theta} on photon block T,
    so it commutes with every block of the beam splitter.  Each step's
    input, joint output and product target at zeta are therefore those at r
    conjugated by R (x) R, and its marginals and their targets those at r
    conjugated by R.  Partial traces, trace distances and Frobenius norms
    are unchanged by these unitaries.

    The default cutoff aims at tails below 1e-12, deeper than the
    DEFAULT_TAIL_TOL rule, because truncation error enters the trace
    distances amplified by roughly the basis size.  Either cutoff must pass
    `require_cutoff` before any operator is allocated.
    """
    if n_copies < 2:
        raise DomainError(f"n_copies must be at least 2, got {n_copies}")
    modulus = abs(complex(zeta))
    amplitude = math.sqrt(n_copies) * modulus
    if cutoff is None:
        cutoff = cutoff_for(n_mean, amplitude, _DISTANCE_RULE_TOL)
    require_cutoff(n_mean, amplitude, cutoff)
    spectra = _beam_splitter_spectra(cutoff)
    fresh = displaced_thermal_density(modulus, n_mean, cutoff)
    target_second = thermal_density(n_mean, cutoff)
    carried = fresh
    reports = []
    for i in range(1, n_copies):
        target_first = displaced_thermal_density(math.sqrt(i + 1.0) * modulus, n_mean, cutoff)
        reports.append(
            _concentration_step(
                concentration_angle(i), spectra, carried, fresh, target_first, target_second
            )
        )
        carried = target_first
    return reports


def _concentration_step(
    phi: float,
    spectra: list[tuple[slice, np.ndarray, np.ndarray]],
    carried: np.ndarray,
    fresh: np.ndarray,
    target_first: np.ndarray,
    target_second: np.ndarray,
) -> ConcentrationReport:
    """Certificates of one cascade step, with one two-mode operator alive.

    The beam splitter at phi is built from the cascade's `spectra`.  The
    conjugation mixes the rows of the `np.kron` input in place, transposes
    it in place and mixes its rows again: that buffer becomes the joint
    output, and no other full-size buffer is allocated in the step.  Both
    marginal distances are exact.  Then the target product is subtracted
    from the joint output in place.  The thermal target is diagonal, so
    kron(target_first, target_second) is nonzero only where the mode-2
    counts of row and column agree; its entries there, target_first *
    weight, are subtracted one mode-2 count at a time through a strided
    view, and the other entries stay as they are.
    The difference D, of side cutoff^2, is bounded:
    ||D||_1 <= sqrt(rank D) ||D||_F <= cutoff ||D||_F, so the joint trace
    distance is at most (cutoff / 2) ||D||_F.
    """
    cutoff = fresh.shape[0]
    joint = _conjugate_by_blocks(_beam_splitter_blocks(phi, spectra), np.kron(carried, fresh))
    dist_first = trace_distance(partial_trace(joint, "first"), target_first)
    dist_second = trace_distance(partial_trace(joint, "second"), target_second)
    # joint.T is C-contiguous, so this is a view: entry [p, q, m, n] is
    # joint[m cutoff + n, p cutoff + q]
    by_mode = joint.T.reshape(cutoff, cutoff, cutoff, cutoff)
    for n, weight in enumerate(np.diagonal(target_second)):
        by_mode[:, n, :, n] -= target_first.T * weight
    return ConcentrationReport(
        cutoff=cutoff,
        phi=phi,
        dist_first=dist_first,
        dist_second=dist_second,
        joint_bound=rank_frobenius_bound(joint) / 2,
    )


def truncated_rld_inverse(n_mean: float) -> np.ndarray:
    """Inverse RLD Fisher matrix of the truncated family, from two O(cutoff) sums.

    It is the same at every zeta.  With rho_zeta = D(zeta) tau D(zeta)^dagger,
    moving zeta multiplies D by a displacement up to a phase, so
    d_i rho = D [G_i, tau] D^dagger for G_1 = (a^dagger - a)/sqrt(2) and
    G_2 = i(a^dagger + a)/sqrt(2), and d_N rho = D (d_N tau) D^dagger; by
    cyclicity of the trace J_ij = tr(tau^{-1} dt_i dt_j) for these
    commutators and d_N tau.  On tau = diag(p), p_k = N^k / (N + 1)^(k + 1),
    the commutators are tridiagonal, bond (k, k + 1) carrying
    sqrt((k + 1)/2) p_k / (N + 1).  With S = sum_{k <= cutoff - 2} (k + 1) p_k / 2,
    u = S / (N + 1)^2 and d = S / (N (N + 1)), the amplitude block is
    [[u + d, i(u - d)], [-i(u - d), u + d]]; with V = sum_k p_k (k - N)^2,
    J_NN = V / (N (N + 1))^2; the cross terms vanish, since an off-diagonal
    commutator meets a diagonal d_N tau.  The inverse, ordered as
    `bounds.rld_inverse_3param`, is [[a, ib], [-ib, a]] (+) (N (N + 1))^2 / V
    with a = (N + 1)(2N + 1) / (4S) and b = (N + 1) / (4S): closed form, as
    J's amplitude block has condition number (N + 1) / N.

    Error budget for RLD_TOL: the cutoff starts at `cutoff_for(N)` and
    doubles until two successive inverses agree to RLD_TOL / 10 of their
    largest entry; the truncation error falls geometrically with the cutoff.
    A sum of c positive terms rounds by at most about c 2^-53 of itself,
    1.2e-10 at the cap MAX_RLD_CUTOFF = 2^20, above which the check is
    refused before allocating.
    """
    cutoff, previous = cutoff_for(n_mean), None
    x = n_mean * (n_mean + 1.0)
    while cutoff <= MAX_RLD_CUTOFF:
        p = _thermal_weights(n_mean, cutoff)
        k = np.arange(cutoff, dtype=float)
        s = float(np.sum(k[1:] * p[:-1])) / 2.0
        v = float(np.sum(p * (k - n_mean) ** 2))
        a, b = (n_mean + 1.0) * (2.0 * n_mean + 1.0) / (4.0 * s), (n_mean + 1.0) / (4.0 * s)
        # x (x / V), as x^2 underflows at tiny N
        inverse = np.array([[a, 1j * b, 0], [-1j * b, a, 0], [0, 0, x * (x / v)]])
        scale = RLD_TOL / 10.0 * np.max(np.abs(inverse))
        if previous is not None and np.max(np.abs(inverse - previous)) <= scale:
            return inverse
        previous, cutoff = inverse, 2 * cutoff
    raise PreconditionError(
        f"the RLD check at N = {n_mean:g} needs cutoff {cutoff}, above its cap {MAX_RLD_CUTOFF}"
    )


# ---------------------------------------------------------------------------
# measurement probabilities
# ---------------------------------------------------------------------------

def heterodyne_probability_density(rho: np.ndarray, alpha: complex) -> float:
    """Heterodyne outcome density <alpha|rho|alpha> / pi."""
    rho = np.asarray(rho)
    v = coherent_vector(alpha, rho.shape[0])
    return float(np.vdot(v, rho @ v).real / math.pi)


# ---------------------------------------------------------------------------
# the oracle's checks
# ---------------------------------------------------------------------------

def oracle_checks(
    zeta: complex, n_mean: float, n_copies: int, cutoff: int | None = None
) -> list[dict]:
    """Certify the laws of `states` and the RLD inverses of `bounds` against the oracle.

    One record per check: "name", "max_dev", "tol", "pass" (max_dev < tol)
    and, for a bound on a trace distance, "kind".  `cutoff` is the
    concentration checks' cutoff, by default `verify_concentration_cascade`'s;
    the heterodyne grid and the RLD check pick their own.  The point is
    validated first, then the cascade runs, so its `require_cutoff` gate
    refuses before any operator is allocated.  The grid needs no gate of its
    own: at every point and cutoff that gate accepts, the grid's cutoff at
    amplitude 3 + |zeta| is at most 96 (`tests/test_fock.py`).
    """
    theta = ThetaPoint.from_zeta(zeta, n_mean)
    reports = verify_concentration_cascade(zeta, n_mean, n_copies=n_copies, cutoff=cutoff)
    checks = []

    def record(name, dev, tol, **extra):
        checks.append({"name": name, "max_dev": dev, "tol": tol, "pass": bool(dev < tol), **extra})

    # heterodyne law on a 5 x 5 grid, and photon-count law, against the matrices
    grid_cutoff = cutoff_for(n_mean, 3.0 + abs(zeta))
    rho = displaced_thermal_density(zeta, n_mean, grid_cutoff)
    axis = np.linspace(-3.0 / math.sqrt(2.0), 3.0 / math.sqrt(2.0), 5)
    grid = [complex(re, im) for re in axis for im in axis]
    het = [states.heterodyne_pdf(theta, a) - heterodyne_probability_density(rho, a) for a in grid]
    record("heterodyne-pdf", max(map(abs, het)), 1e-6)
    weights = _thermal_weights(n_mean, grid_cutoff).tolist()
    pmf = [states.photon_pmf(n_mean, k) - p for k, p in enumerate(weights)]
    record("photon-pmf", max(map(abs, pmf)), 1e-12)

    # concentration identity at n = 2 (step 1) and up to n_copies, every step
    # at the n_copies cutoff; then the product structure of each step's joint
    # output, and of the whole cascade's (the sum telescopes)
    record("concentration-n2", max(reports[0].dist_first, reports[0].dist_second), 1e-6)
    if n_copies > 2:
        dev = max(max(r.dist_first, r.dist_second) for r in reports)
        record(f"concentration-n{n_copies}", dev, 1e-6)
    for i, r in enumerate(reports, start=2):
        record(f"concentration-joint-n{i}", r.joint_bound, 1e-6, kind="rank-frobenius-bound")
    if n_copies > 2:
        total = sum(r.joint_bound for r in reports)
        record("concentration-cascade", total, 1e-6, kind="telescoped-rank-frobenius-bound")

    # RLD inverses, relative to the largest closed-form entry
    inverse = truncated_rld_inverse(n_mean)
    for closed in (rld_inverse_2param(n_mean), rld_inverse_3param(n_mean)):
        d = len(closed)
        dev = np.max(np.abs(inverse[:d, :d] - closed)) / np.max(np.abs(closed))
        record(f"rld-{d}param", float(dev), RLD_TOL)
    return checks
