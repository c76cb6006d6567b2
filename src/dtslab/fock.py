"""Truncated Fock-space oracle for displaced thermal states.

This module rebuilds everything the analytic layers assume as explicit
matrices on the basis |0> ... |cutoff-1>: displaced thermal densities, the
two-mode beam-splitter blocks, the measurement probabilities, and the
inverse RLD Fisher matrix of the truncated family.  `oracle_checks` certifies
the closed forms in `bounds` and the sampling laws in `states` against them,
so this module shares no formulas with those beyond the thermal weights.

Conventions: single-mode operators follow the amplitude, float64 for a real
one and complex128 otherwise; a real amplitude's density is exactly
symmetric.  Two-mode arrays (beam-splitter blocks and slabs of a joint
output) are float64, because the concentration cascade runs at |zeta|
(`verify_concentration_cascade`).  Single-mode operators are
(cutoff x cutoff); the two-mode basis has cutoff^2 states (m, n), with
index m * cutoff + n (numpy.kron order, mode 1 first) where a two-mode
operator is written whole, as in the tests.  Densities built here have
trace <= 1, with the deficit bounded through `tail`, the one Chernoff bound
on the photon count, from which `cutoff_for` picks every cutoff.

The beam splitter conserves the total photon number m + n, so the two-mode
window splits into 2 cutoff - 1 blocks of equal total (`_photon_blocks`),
each at most cutoff states wide.  The unitary is exponentiated one block at
a time and never assembled: the concentration checks conjugate by its
blocks, so they form no dense two-mode unitary, matrix product or matrix
exponential.  No cascade step holds a two-mode operator either.  A step's
joint output is symmetric, so the step forms only its block-lower triangle,
in block order (each block's states in one contiguous run of rows), one
slab of columns at a time: a run of whole photon blocks with the rows of
every block from its own on, about _SLAB cutoff^2 entries in one reused
buffer (`_joint_slabs`).  Each slab adds its share of both marginals'
lower triangles, whose terms all lie in the triangle, and of the joint
bound, counting each entry below its square for its mirror too, before
the next overwrites it (`_concentration_step`).  Each block
exponential is built from one real tridiagonal eigensolve, taken once per
cascade for all its angles (`_beam_splitter_spectra`).  The joint output
is certified against the product target by the row-norm bound, from the
squared norms of the difference's rows, not by a two-mode eigensolve.  The
product target is never formed: its thermal factor is diagonal, so it is
subtracted from the entries of each slab whose mode-2 counts agree, and a
step calls no `np.kron`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states
from .bounds import ThetaPoint, rld_inverse_2param, rld_inverse_3param
from .errors import DomainError, PreconditionError
from .linalg import require_hermitian, trace_distance

# the tolerance of every concentration check, from which `cutoff_for` budgets the truncation
CONCENTRATION_TOL = 1e-6
# a cascade step costs about cutoff**5 / 2 flops and holds one slab of about _SLAB
# cutoff**2 entries, not a two-mode operator (at 70, measured on 2 CPUs: 0.19 s, an
# 8.3 MiB tracemalloc peak and 12.6 MiB of resident growth in a fresh interpreter):
# N = 2's budgeted cutoff 62 at zeta 0.5 fits, N = 3's 85 does not
MAX_CUTOFF = 70
_SLAB = 96  # most entries of a slab of a step's joint output, in units of cutoff**2
_ROWS = 256  # most rows of a slab that the column pass multiplies at once
# a slab's square whose Frobenius norm is at or below this skips the Hermiticity gate;
# the 1% under the gate's 1e-9 floor covers the rounding of the computed norm
_GATE_FREE_NORM = 0.99e-9
RLD_TOL = 1e-9  # relative deviation of the RLD check; budget in truncated_rld_inverse
MAX_RLD_CUTOFF = 2**20


# ---------------------------------------------------------------------------
# cutoff selection
# ---------------------------------------------------------------------------

def tail(n_mean: float, mu: float, cutoff: int) -> float:
    """Chernoff bound on P(X >= cutoff) for the photon count X of a displaced thermal state.

    X, of the state with thermal number N and squared amplitude mu, has
    E[s^X] = exp(mu t / d) / d with t = s - 1 and d = 1 - N t, for
    0 <= t < 1/N, so P(X >= c) <= min_s E[s^X] / s^c for c = cutoff, by
    Markov's inequality.  The log of the ratio is convex in log s (a
    cumulant generating function less a line), and its slope
    s (mu / d^2 + N / d) - c is zero where

        (c + 1) N^2 t^2 - B t + C = 0,  B = N (2c + 1 - N) + mu,  C = c - mu - N.

    The slope at t = 0 is -C, so the bound is 1 unless C > 0.  Then the
    quadratic is C > 0 at t = 0 and -mu (N + 1) / N < 0 at t = 1/N, and its
    root in between is the minimiser, t = 2C / (B + sqrt(disc)), with
    d = (x + mu (2N + 1) + sqrt(disc)) / (B + sqrt(disc)).  The discriminant
    is disc = (x + mu)^2 + 4 c mu x for x = N (N + 1), so no term of either
    formula cancels, and d stays accurate near the pole t = 1/N.  At N = 0
    the root is the Poisson bound's s = c / mu.  Every term is divided by
    K = c max(N, mu / c), which is never formed: for c >= 1 that leaves
    B / K between 1 and 4 and every other term below 5, so no term that
    matters overflows or underflows.  Only t can overflow, where N and
    mu / c are both below 1e-308: the bound is then below 1e-307 and reads
    0, as it does where max(N, mu / c) rounds to 0.  At mu = 0 the bound is
    the exact thermal tail (N / (N + 1))^c.
    """
    if mu == 0.0:
        return math.exp(-cutoff * math.log1p(1.0 / n_mean)) if n_mean > 0 else 0.0
    if cutoff <= mu + n_mean:
        return 1.0
    scale = max(n_mean, mu / cutoff)  # K / c
    if scale == 0.0:  # N = 0 and mu / c rounds to 0, so c > 2 and the bound is below e^-1400
        return 0.0
    alpha, beta = n_mean / scale, mu / cutoff / scale  # N c / K and mu / K, the larger 1
    x = alpha * ((n_mean + 1.0) / cutoff)  # x / K
    root = math.hypot(x + beta, 2.0 * math.sqrt(alpha * beta) * math.sqrt(n_mean + 1.0))
    denominator = alpha * (2.0 + (1.0 - n_mean) / cutoff) + beta + root
    excess = 2.0 * ((cutoff - mu - n_mean) / cutoff)  # 2C / c
    t = excess / denominator / scale
    d = (x + 2.0 * (beta * n_mean) + beta + root) / denominator
    # mu t / d, over c, is 2C mu / (c (B + sqrt(disc)) d)
    exponent = cutoff * (excess * (beta / denominator) / d - math.log1p(t)) - math.log(d)
    # where cutoff / mu rounds to within a few ulps of 1 (mu above about 1e17), the
    # exponent's terms of order mu t cancel to their rounding, which can be far above
    # 0; a bound above 1 says nothing, so it is capped there and never overflows
    return math.exp(min(exponent, 0.0))


def cutoff_for(n_mean: float, amplitude: float = 0.0) -> int:
    """Least cutoff that meets the truncation budget at the largest amplitude a computation touches.

    With tol = CONCENTRATION_TOL and mu = amplitude^2 the budget has two
    parts.  The tail, tail(N, mu, cutoff), is at most tol / 100.  The
    vacuum component's loss, 2 sqrt(tail(0, mu, cutoff)) / (N + 1), is at
    most tol / 10: the thermal mixture gives weight 1/(N+1) to the coherent
    state at the amplitude, and cutting a state of tail eps moves it by up
    to 2 sqrt(eps) in trace norm, not eps (the gentle-measurement lemma;
    Winter, IEEE TIT 45, 1999), which binds only near N = 0.  Both parts
    fall as the cutoff grows.  No cutoff below the thermal tail's, or at
    most mu + N, meets the first, so the search starts above both, gallops
    and bisects.
    """
    if not (0 < n_mean < math.inf):
        raise DomainError(f"n_mean must be positive and finite, got {n_mean}")
    mu = float(amplitude) * float(amplitude)
    budget = CONCENTRATION_TOL / 100.0
    # log(N/(N+1)) written with log1p stays nonzero where N/(N+1) rounds to 1
    thermal = math.log(budget) / -math.log1p(1.0 / n_mean)
    if not math.isfinite(thermal):
        raise PreconditionError(f"no finite cutoff meets the truncation budget at n_mean {n_mean:g}")
    if not math.isfinite(mu):
        raise PreconditionError(f"no finite cutoff meets the truncation budget at amplitude {amplitude:g}")

    def meets(cutoff):
        vacuum_loss = 2.0 * math.sqrt(tail(0.0, mu, cutoff)) / (n_mean + 1.0)
        return tail(n_mean, mu, cutoff) <= budget and vacuum_loss <= CONCENTRATION_TOL / 10.0

    try:
        start = max(2, math.ceil(thermal), math.floor(mu + n_mean) + 1)
        if meets(start):
            return start
        failing, passing = start, start + 1
        while not meets(passing):
            failing, passing = passing, passing + 2 * (passing - failing)
        while passing - failing > 1:
            mid = (failing + passing) // 2
            if meets(mid):
                passing = mid
            else:
                failing = mid
        return passing
    except OverflowError:  # the search ran past float64's range, where no cutoff converts
        raise PreconditionError(
            f"no finite cutoff meets the truncation budget at n_mean {n_mean:g} and amplitude {amplitude:g}"
        ) from None


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
    """Truncated thermal state diag(p_k); its trace deficit is tail(n_mean, 0, cutoff)."""
    return np.diag(_thermal_weights(n_mean, cutoff))


def coherent_vector(alpha: complex, cutoff: int) -> np.ndarray:
    """Coefficients <k|alpha> = e^{-|alpha|^2/2} alpha^k / sqrt(k!)."""
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    v = np.zeros(cutoff, dtype=np.result_type(alpha, 1.0))
    v[0] = 1.0
    for k in range(1, cutoff):
        v[k] = v[k - 1] * alpha / math.sqrt(k)
    return v * math.exp(-abs(alpha) ** 2 / 2.0)


def displacement_operator(zeta: complex, cutoff: int) -> np.ndarray:
    """Window of the displacement operator with exact matrix elements.

    The first row is <0|D(zeta)|n> = e^{-|zeta|^2/2} (-conj(zeta))^n/sqrt(n!),
    the coherent vector at -conj(zeta); the remaining rows follow from a D(zeta) = D(zeta)(a + zeta):

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
    d[0] = coherent_vector(-zeta.conjugate(), cutoff)
    roots = np.sqrt(np.arange(cutoff, dtype=float))
    for m in range(cutoff - 1):
        inv = 1.0 / math.sqrt(m + 1)
        d[m + 1, 0] = zeta * d[m, 0] * inv
        d[m + 1, 1:] = (zeta * d[m, 1:] + roots[1:] * d[m, :-1]) * inv
    return d


def displaced_thermal_density(zeta: complex, n_mean: float, cutoff: int) -> np.ndarray:
    """Displaced thermal state D(zeta) rho_th D(zeta)^dagger, formed as G G^dagger.

    G = D(zeta) sqrt(p) for the thermal weights p.  For a real zeta, G G^T
    is a product of one array with its own transpose, which numpy forms as
    a symmetric rank-k update and mirrors, so the density is exactly
    symmetric, as the concentration cascade needs; its entries are within
    rounding (2.2e-16) of the conjugation D diag(p) D^T.  The trace deficit
    is at most tail(n_mean, |zeta|^2, cutoff) + tail(n_mean, 0, cutoff): the
    second term is the dropped thermal weight, the first bounds what the
    displacement window pushes past the cutoff.
    """
    root = displacement_operator(zeta, cutoff) * np.sqrt(_thermal_weights(n_mean, cutoff))
    return root @ root.conj().T


def concentration_angle(i: int) -> float:
    """Beam-splitter angle arctan(1/sqrt(i)) of cascade step i (step 1: pi/4)."""
    if i < 1:
        raise DomainError(f"cascade step must be at least 1, got {i}")
    return math.atan(1.0 / math.sqrt(i))


def _photon_blocks(cutoff: int) -> list[range]:
    """Mode-1 counts of each photon block T = 0 .. 2 cutoff - 2, ascending.

    Block T holds the window states (m, T - m) for m in its range.  The
    beam splitter couples only neighbours (m, T - m) and (m + 1, T - m - 1)
    inside one block.  In the block order of the two-mode basis, block T
    is one contiguous run of rows, (m, T - m) with m ascending, after the
    blocks of smaller totals.
    """
    return [range(max(0, t - cutoff + 1), min(t, cutoff - 1) + 1) for t in range(2 * cutoff - 1)]


def _beam_splitter_spectra(cutoff: int) -> list[tuple[range, np.ndarray, np.ndarray]]:
    """(counts, w, W) for each `_photon_blocks` entry, with eigh(H) = (w, W).

    H is the real symmetric tridiagonal matrix of block T, with
    H[k+1, k] = H[k, k+1] = sqrt((m+1)(T-m)) for m the mode-1 count of
    entry k; `_beam_splitter_blocks` exponentiates it at any angle.  These
    2 cutoff - 1 eigensolves do not depend on the angle, so a cascade takes
    them once for all its steps.  H has a zero diagonal, so its spectrum is
    symmetric about 0, and w is made exactly so (w = -w reversed): eigh
    leaves the pairs up to 1e-13 apart at cutoff 70, and the blocks' one
    real product relies on each pair's terms cancelling where cos(phi H)
    or sin(phi H) vanishes.
    """
    if cutoff < 2:
        raise DomainError(f"cutoff must be at least 2, got {cutoff}")
    spectra = []
    for total, counts in enumerate(_photon_blocks(cutoff)):
        m = np.arange(counts.start, counts.stop - 1, dtype=float)
        coupling = np.sqrt((m + 1.0) * (total - m))
        w, v = np.linalg.eigh(np.diag(coupling, -1) + np.diag(coupling, 1))
        spectra.append((counts, (w - w[::-1]) / 2.0, v))
    return spectra


def _beam_splitter_blocks(
    phi: float, spectra: list[tuple[range, np.ndarray, np.ndarray]]
) -> list[tuple[range, np.ndarray]]:
    """Blocks of the two-mode unitary exp(phi (adag x b - a x bdag)) on the truncated space.

    The truncated generator maps each total-photon block to itself, so the
    exponential is the direct sum of its block exponentials; this returns
    (counts, block) for each entry of `_beam_splitter_spectra`.  Block T is
    the exponential of the real antisymmetric tridiagonal matrix G with
    G[k+1, k] = sqrt((m+1)(T-m)) for m the mode-1 count of entry k.  With
    S = diag(i^k), S^dagger (i G) S is the real symmetric tridiagonal H with
    the same couplings, so for eigh(H) = (w, W) entry [j, k] of the block
    is Re(i^(j-k) (W diag(exp(-i phi w)) W^T)[j, k]).  H has a zero
    diagonal, so D H D = -H for D = diag((-1)^k): W cos(phi w) W^T vanishes
    where j + k is odd and W sin(phi w) W^T where it is even.  The block is
    therefore one real product, W (cos(phi w) + sin(phi w)) W^T, times +1
    where (j - k) mod 4 is 0 or 1 and -1 elsewhere.  That product is a new
    C-contiguous array, so every product with the block, a one-column one
    included, goes to BLAS.  Every block, the blocks with total >= cutoff
    that the window truncates included, is the exponential of its
    truncated generator to rounding (within 6.4e-14 of scipy's `expm`, and
    orthogonal to 1.1e-14, at cutoffs 10 to 70), so U is orthogonal on the
    whole window.
    At phi = arctan(1/sqrt(1)) two equal coherent amplitudes merge into
    mode 1.
    """
    cutoff = (len(spectra) + 1) // 2
    sign = np.where(np.subtract.outer(np.arange(cutoff), np.arange(cutoff)) % 4 < 2, 1.0, -1.0)
    return [
        (counts, ((v * (np.cos(phi * w) + np.sin(phi * w))) @ v.T) * sign[: len(w), : len(w)])
        for counts, w, v in spectra
    ]


def _block_order(blocks: list[tuple[range, np.ndarray]]) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The block order of the two-mode basis: each block's first row, and each row's counts.

    Block T takes the rows from starts[T] to starts[T + 1]; row r is the
    state (mode1[r], mode2[r]).
    """
    starts = np.cumsum([0] + [len(counts) for counts, _ in blocks]).tolist()
    mode1 = np.concatenate([np.arange(counts.start, counts.stop) for counts, _ in blocks])
    return starts, mode1, np.repeat(np.arange(len(blocks)), np.diff(starts)) - mode1


def _joint_slabs(blocks: list[tuple[range, np.ndarray]], carried: np.ndarray, fresh: np.ndarray):
    """Yield (start, p, q, slab) for the block-lower triangle of Y = U (carried (x) fresh) U^T.

    U is the real unitary given by its photon blocks u_T, and the two-mode
    basis is in block order (`_photon_blocks`).  A slab is Y[R, S] for a
    run S of whole blocks of consecutive totals, from t0, and R the rows of
    every block T >= t0: one contiguous range of rows from `start`, the
    first state of S, so the slab's first rows are its square Y[S, S].  The
    rest of Y[:, S] is the mirror of rows that earlier slabs hold.  Column k
    of the slab is the state (p[k], q[k]).  A run takes blocks while its
    slab holds at most _SLAB cutoff^2 entries, and at least one block.
    With X = carried (x) fresh, Y[R, S] = u_R X[R, S] u_S^T, built in two
    passes:

    1. for each row block T, X[T, S], entries carried[m, p] fresh[T - m, q],
       is written to a scratch buffer and left-multiplied by u_T into the
       slab;
    2. the slab is taken in chunks of at most _ROWS rows, and in each chunk
       the columns of each block of S are right-multiplied by its u^T into
       a product buffer of _ROWS cutoff entries, then copied back.

    Over all slabs that is about half the flops of the whole Y.  Every slab
    is a C-ordered view of one buffer, as large as the largest slab, which
    the next slab overwrites; the scratch and product buffers are reused
    too, so no product of either pass is taller than a block or a chunk.
    The operands are float64.
    """
    cutoff = carried.shape[0]
    side = cutoff * cutoff
    starts, mode1, mode2 = _block_order(blocks)
    runs = [range(0, 1)]
    for total in range(1, len(blocks)):
        first = starts[runs[-1].start]
        if (side - first) * (starts[total + 1] - first) <= _SLAB * side:
            runs[-1] = range(runs[-1].start, total + 1)
        else:
            runs.append(range(total, total + 1))
    extents = [(starts[run.start], starts[run.stop]) for run in runs]
    buffer = np.empty(max((side - start) * (stop - start) for start, stop in extents))
    scratch = np.empty(cutoff * max(stop - start for start, stop in extents))
    product = np.empty(_ROWS * cutoff)
    for run, (start, stop) in zip(runs, extents):
        width = stop - start
        slab = buffer[: (side - start) * width].reshape(side - start, width)
        p, q = mode1[start:stop], mode2[start:stop]
        left, right = carried[:, p], fresh[:, q]
        for total in range(run.start, len(blocks)):
            counts, u = blocks[total]
            x = scratch[: len(counts) * width].reshape(len(counts), width)
            # the mode-2 counts total - m descend as m ascends
            descending = right[total - counts.stop + 1 : total - counts.start + 1][::-1]
            np.multiply(left[counts.start : counts.stop], descending, out=x)
            np.matmul(u, x, out=slab[starts[total] - start : starts[total + 1] - start])
        del left, right  # freed before the slab is yielded and the next one's are taken
        for row in range(0, side - start, _ROWS):
            chunk = slab[row : row + _ROWS]
            for total in run:
                part = chunk[:, starts[total] - start : starts[total + 1] - start]
                out = product[: part.size].reshape(part.shape)
                np.matmul(part, blocks[total][1].T, out=out)
                part[...] = out
        yield start, p, q, slab


# ---------------------------------------------------------------------------
# verification routines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    """Certificates of one concentration step.

    dist_first and dist_second are the trace distances of the marginals
    from their targets; joint_bound is an upper bound (the row-norm bound,
    1/2 sum_r ||D[r, :]||_2, `_concentration_step`) on the trace distance of
    the joint output from the product of the targets, not that distance.
    """

    cutoff: int
    phi: float
    dist_first: float
    dist_second: float
    joint_bound: float


def verify_concentration_cascade(
    zeta: complex,
    n_mean: float,
    n_copies: int = 3,
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
    conjugated by R.  Partial traces, trace distances and row norms are
    unchanged by these unitaries.

    The cutoff is the least that meets the truncation budget at the
    largest amplitude sqrt(n_copies) |zeta| (`cutoff_for`), and it must be
    at most MAX_CUTOFF: one comparison, made before any operator is
    allocated.
    """
    if n_copies < 2:
        raise DomainError(f"n_copies must be at least 2, got {n_copies}")
    cutoff = cutoff_for(n_mean, math.sqrt(n_copies) * abs(complex(zeta)))
    if cutoff > MAX_CUTOFF:
        raise PreconditionError(
            f"the cascade's truncation budget needs a Fock cutoff of {cutoff}, above the "
            f"limit of {MAX_CUTOFF} (a step's time grows as cutoff**5)"
        )
    return _cascade(zeta, n_mean, n_copies, cutoff)


def _cascade(zeta: complex, n_mean: float, n_copies: int, cutoff: int) -> list[ConcentrationReport]:
    """The steps of `verify_concentration_cascade`, at |zeta|, at any cutoff of at least 2, ungated."""
    modulus = abs(complex(zeta))
    spectra = _beam_splitter_spectra(cutoff)
    fresh = displaced_thermal_density(modulus, n_mean, cutoff)
    target_second = thermal_density(n_mean, cutoff)
    carried = fresh
    reports = []
    for i in range(1, n_copies):
        target_first = displaced_thermal_density(math.sqrt(i + 1.0) * modulus, n_mean, cutoff)
        phi = concentration_angle(i)
        reports.append(_concentration_step(phi, spectra, carried, fresh, target_first, target_second))
        carried = target_first
    return reports


def _concentration_step(
    phi: float,
    spectra: list[tuple[range, np.ndarray, np.ndarray]],
    carried: np.ndarray,
    fresh: np.ndarray,
    target_first: np.ndarray,
    target_second: np.ndarray,
) -> ConcentrationReport:
    """Certificates of one cascade step, from one triangle of its joint output.

    carried (x) fresh is symmetric when both densities are exactly
    symmetric, and so are U (carried (x) fresh) U^T and the product target;
    a density that is not is refused.  So the step forms only the
    block-lower triangle of the joint output Y, one slab at a time
    (`_joint_slabs`), and reads every entry above it as its mirror.  The
    slab Y[R, S] holds the square Y[S, S] whole, and below it rows that
    stand also for their mirrors: the square's entries count once, and
    each entry below it counts for itself and its mirror.  The marginals
    are symmetric too, and in block order the state (m, n) is at or after
    (p, n) exactly when m >= p.  So each term of a marginal's lower
    triangle, Y[(m, n), (p, n)] of marginal_first[m, p] with m >= p, and
    Y[(p, n), (p, q)] of marginal_second[n, q] with n >= q, lies in its
    column's slab, at or below the diagonal.  A slab gathers those terms,
    masked by counts >= kept, and sums them into the lower triangles by one
    product with a 0/1 matrix; after the last slab each strict lower
    triangle is mirrored once, so the marginals are exactly symmetric, and
    each lower entry is its partial trace up to the order of its sum.
    Then the product target is subtracted in place.  The thermal target
    is diagonal, so kron(target_first, target_second) is nonzero only
    where the mode-2 counts of row and column agree; its entries there,
    target_first * weight, are subtracted from those rows, the ones the
    first marginal reads, and the other entries stay as they are.  Last, the slab adds
    the squared norms of its rows to `rows`, one entry per row of the
    difference, and each row of its square also the squared norm of its
    column below the square, the mirror of that row's entries to the right.

    The difference D = Y - target_first (x) target_second, of side
    cutoff^2, is the computed triangle with its mirror, and it is bounded
    through its rows.  D is the sum of its rows e_r e_r^T D, each of rank
    one with trace norm ||D[r, :]||_2, so by the triangle inequality the
    joint trace distance 1/2 ||D||_1 is at most 1/2 sum_r ||D[r, :]||_2,
    1/2 sum sqrt(rows).  By Cauchy-Schwarz over the cutoff^2 rows, that sum
    is never above (cutoff / 2) ||D||_F.  The bound holds for every square
    D, so it needs no Hermiticity gate.  The gate
    (`linalg.require_hermitian`) still runs on what one slab can pair
    itself, its square D[S, S], the slab's first rows, to catch a step that
    breaks the symmetry; it is skipped where the square's norm is at most
    _GATE_FREE_NORM, where it cannot fail: the residual is at most
    max |D[S, S]| <= ||D[S, S]||_F, under the gate's tolerance.
    """
    if not (np.array_equal(carried, carried.T) and np.array_equal(fresh, fresh.T)):
        raise DomainError("the concentration step needs exactly symmetric densities")
    cutoff = fresh.shape[0]
    weights = np.diagonal(target_second)
    blocks = _beam_splitter_blocks(phi, spectra)
    _, mode1, mode2 = _block_order(blocks)
    position = np.empty((cutoff, cutoff), dtype=np.intp)  # the row of each state (m, n)
    position[mode1, mode2] = np.arange(cutoff * cutoff)
    counts = np.arange(cutoff)
    marginal_first, marginal_second = np.zeros((2, cutoff, cutoff))
    rows = np.zeros(cutoff * cutoff)
    for start, p, q, slab in _joint_slabs(blocks, carried, fresh):
        width = slab.shape[1]
        # the flat slab index of each marginal's terms in column k: rows
        # (m, q_k) add to marginal_first[m, p_k], rows (p_k, n) to
        # marginal_second[n, q_k]; negative above the slab
        k = np.arange(width)
        first = (position[:, q] - start) * width + k
        second = (position[p].T - start) * width + k
        for at, marginal, kept in ((first, marginal_first, p), (second, marginal_second, q)):
            # the terms of the lower triangle, each at or below its column's diagonal
            y = np.where(counts[:, None] >= kept, slab.take(at, mode="clip"), 0.0)
            # one product with a 0/1 matrix sums the columns of equal kept count
            marginal += y @ np.equal.outer(kept, counts).astype(float)
        # the product target is nonzero only where the first marginal reads
        inside = first >= 0
        slab.reshape(-1)[first[inside]] -= (target_first[:, p] * weights[q])[inside]
        norms = np.einsum("ij,ij->i", slab, slab)
        rows[start:] += norms
        rows[start : start + width] += np.einsum("ij,ij->j", slab[width:], slab[width:])
        if not math.sqrt(norms[:width].sum()) <= _GATE_FREE_NORM:
            require_hermitian(slab[:width], "the concentration step")
    for marginal in (marginal_first, marginal_second):
        marginal += np.tril(marginal, -1).T
    return ConcentrationReport(
        cutoff=cutoff,
        phi=phi,
        dist_first=trace_distance(marginal_first, target_first),
        dist_second=trace_distance(marginal_second, target_second),
        joint_bound=float(np.sqrt(rows).sum()) / 2,
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

    Error budget for RLD_TOL: the sums are taken once, at c = 4 cutoff_for(N).
    With r = N / (N + 1) the geometric tails are exact: S falls short of its
    limit (N + 1) / 2 by the relative remainder r^(c-1) (c + N) / (N + 1),
    and V of its limit N (N + 1) by r^c (1 + c^2 / (N (N + 1))).  The
    budget gives r^cutoff_for(N) <= tol / 100 = 1e-8, so at four times that
    cutoff r^c is at most 1e-32, and both remainders are below 1e-26 at
    every N (2.1e-27 at most over N from 1e-300 to 1.4e4).  Only rounding
    is left: a sum of c positive terms rounds by at most about c 2^-53 of
    itself, 1.2e-10 at the cap MAX_RLD_CUTOFF = 2^20, above which the check
    is refused before allocating.
    """
    cutoff = 4 * cutoff_for(n_mean)
    if cutoff > MAX_RLD_CUTOFF:
        raise PreconditionError(
            f"the RLD check at N = {n_mean:g} needs cutoff {cutoff}, above its cap {MAX_RLD_CUTOFF}"
        )
    p = _thermal_weights(n_mean, cutoff)
    k = np.arange(cutoff, dtype=float)
    s = float(np.sum(k[1:] * p[:-1])) / 2.0
    v = float(np.sum(p * (k - n_mean) ** 2))
    a, b = (n_mean + 1.0) * (2.0 * n_mean + 1.0) / (4.0 * s), (n_mean + 1.0) / (4.0 * s)
    x = n_mean * (n_mean + 1.0)
    # x (x / V), as x^2 underflows at tiny N
    return np.array([[a, 1j * b, 0], [-1j * b, a, 0], [0, 0, x * (x / v)]])


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

def oracle_checks(zeta: complex, n_mean: float, n_copies: int) -> list[dict]:
    """Certify the laws of `states` and the RLD inverses of `bounds` against the oracle.

    One record per check: "name", "max_dev", "tol", "pass" (max_dev < tol)
    and, for a bound on a trace distance, "kind".  Every concentration
    record also holds the numbers behind its verdict: the cascade's
    "cutoff" and its "tail" there.  The point is validated first, then the
    cascade runs, so its gate refuses before any operator is allocated.
    The heterodyne grid takes cutoff_for(N, |zeta|), and the RLD check four
    times cutoff_for(N), at which its sums have converged to rounding
    (`truncated_rld_inverse`).  The grid budgets at |zeta|, which is at most
    the cascade's amplitude; the budget grows with the amplitude, so the
    grid's cutoff is at most the cascade's, which the gate has accepted, and
    the grid needs no gate of its own.  That cutoff is measured to suffice,
    not derived: the check reads <P alpha|rho|P alpha>, whose cross terms
    with (1 - P) alpha are bounded only by sqrt(eps_alpha eps_rho), and the
    tail eps_alpha of a grid point (|alpha| up to 3) is not budgeted.  Over
    N from 1e-14 to 3 and |zeta| up to 3 the grid deviates by at most
    5.5e-9, against its 1e-6.
    """
    theta = ThetaPoint.from_zeta(zeta, n_mean)
    reports = verify_concentration_cascade(zeta, n_mean, n_copies=n_copies)
    checks = []

    def record(name, dev, tol, **extra):
        checks.append({"name": name, "max_dev": dev, "tol": tol, "pass": bool(dev < tol), **extra})

    # heterodyne law on a 5 x 5 grid, and photon-count law, against the matrices
    grid_cutoff = cutoff_for(n_mean, abs(zeta))
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
    first, tol = reports[0], CONCENTRATION_TOL
    modulus = abs(complex(zeta))
    gate = {"cutoff": first.cutoff, "tail": tail(n_mean, n_copies * modulus * modulus, first.cutoff)}
    record("concentration-n2", max(first.dist_first, first.dist_second), tol, **gate)
    if n_copies > 2:
        dev = max(max(r.dist_first, r.dist_second) for r in reports)
        record(f"concentration-n{n_copies}", dev, tol, **gate)
    for i, r in enumerate(reports, start=2):
        record(f"concentration-joint-n{i}", r.joint_bound, tol, kind="row-norm-bound", **gate)
    if n_copies > 2:
        total = sum(r.joint_bound for r in reports)
        record("concentration-cascade", total, tol, kind="telescoped-row-norm-bound", **gate)

    # RLD inverses, relative to the largest closed-form entry
    inverse = truncated_rld_inverse(n_mean)
    for closed in (rld_inverse_2param(n_mean), rld_inverse_3param(n_mean)):
        d = len(closed)
        dev = np.max(np.abs(inverse[:d, :d] - closed)) / np.max(np.abs(closed))
        record(f"rld-{d}param", float(dev), RLD_TOL)
    return checks
