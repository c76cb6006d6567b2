"""RLD Cramér-Rao type bounds for the displaced thermal state family.

The family is parameterized by theta = (theta1, theta2[, N]) with complex
amplitude zeta = (theta1 + i theta2)/sqrt(2) and mean thermal photon number
N > 0.  The inverse RLD Fisher matrix has the closed forms

    2 parameters (N known):  [[N + 1/2, i/2], [-i/2, N + 1/2]]
    3 parameters:            the same block, plus (3,3) entry N(N + 1)

and the bound for a weight matrix G is

    C_R(G) = Tr G Re Jinv + Tr | sqrt(G) Im Jinv sqrt(G) |

which evaluates in closed form to 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2)
for the upper 2x2 block [[g1+g2, g3], [g3, g1-g2]] of G, plus g0 N(N+1)
for a 3x3 weight with (3,3) entry g0.  The third parameter decouples in
Jinv, so the entries G13 and G23 never enter the bound.

Whether G is a weight at all (symmetric and positive semidefinite) is
decided once, by `_psd_rank` on the exact integers of its entries.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

PSD_MINOR_TOL = 1e-12
_SYMMETRY_TOL = 1e-9
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ThetaPoint:
    """Parameter point (theta1, theta2, n_mean) with zeta = (theta1 + i theta2)/sqrt(2)."""

    theta1: float
    theta2: float
    n_mean: float

    def __post_init__(self):
        _require_n_mean(self.n_mean)
        if not all(map(math.isfinite, (self.theta1, self.theta2))):
            raise DomainError("theta components must be finite")

    @property
    def zeta(self) -> complex:
        return complex(self.theta1, self.theta2) / _SQRT2

    @classmethod
    def from_zeta(cls, zeta: complex, n_mean: float) -> "ThetaPoint":
        zeta = complex(zeta)
        return cls(_SQRT2 * zeta.real, _SQRT2 * zeta.imag, n_mean)


def _require_dim(dim: int) -> None:
    if dim not in (2, 3):
        raise DomainError(f"weight matrix dimension must be 2 or 3, got {dim}")


class WeightMatrix:
    """Real symmetric positive semidefinite weight, dimension 2 or 3.

    For d = 2 any symmetric matrix decomposes exactly as
    G = [[g1+g2, g3], [g3, g1-g2]]; for d = 3, (g0, g1, g2, g3) are the
    (3,3) entry and that upper 2x2 block.  The RLD bound reads nothing
    else: the third parameter decouples in the RLD inverse, so the
    off-block entries G13 and G23 never enter it.

    Strictly positive weights are the textbook setting; semidefinite ones
    (zero eigenvalues, "ignore this direction") are accepted because every
    bound formula stays finite there.  An off-diagonal pair whose entries
    differ by more than 1e-9 of the larger one, compared exactly, is
    refused as asymmetric.  A pair within that is replaced by the sum of
    its halves; every other entry keeps its bits, so a symmetric input is
    bounded as written.  The halving rounds only where an entry of the pair
    is subnormal.  The result must pass `_psd_rank`.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"weight matrix must be square, got shape {m.shape}")
        _require_dim(m.shape[0])
        g = _integer_matrix(m)
        tol_num, tol_den = _SYMMETRY_TOL.as_integer_ratio()
        if np.any(np.abs(g - g.T) * tol_den > tol_num * np.maximum(np.abs(g), np.abs(g.T))):
            raise DomainError("weight matrix must be symmetric")
        m = np.where(m == m.T, m, m / 2 + m.T / 2)  # (m + m.T) / 2 overflows near the float64 limit
        if _psd_rank(_integer_matrix(m)) == "not PSD":
            raise DomainError("weight matrix must be positive semidefinite")
        self.dim = m.shape[0]
        self.entries = m
        self.entries.setflags(write=False)

    @classmethod
    def identity(cls, dim: int) -> "WeightMatrix":
        _require_dim(dim)
        return cls(np.eye(dim))

    def two_param_gs(self) -> tuple:
        """(g1, g2, g3) of the upper 2x2 block as exact `Fraction`s.

        The halves (G11 +- G22)/2 are not always floats, so they are kept
        exact: the closed forms and the trade-off then read the very block
        of this weight, and decide its domain as `WeightMatrix` did.
        """
        from fractions import Fraction  # imports decimal, which only this needs

        g11, g22, g12 = map(Fraction, (self.entries[0, 0], self.entries[1, 1], self.entries[0, 1]))
        return (g11 + g22) / 2, (g11 - g22) / 2, g12

    def three_param_gs(self) -> tuple:
        """(g0, g1, g2, g3): the (3,3) entry and the upper 2x2 block, exact."""
        if self.dim != 3:
            raise DomainError("three_param_gs requires a 3x3 weight matrix")
        return (float(self.entries[2, 2]), *self.two_param_gs())

    def __repr__(self):
        return f"WeightMatrix(dim={self.dim}, entries={self.entries.tolist()})"


@dataclass(frozen=True)
class _GaussianTradeoff:
    """Optimal squeezed Gaussian measurement for a 2x2 weight."""

    squeeze_r: float
    squeeze_angle: float
    achieved: float


def _require_n_mean(n_mean: float) -> None:
    if not (n_mean > 0):
        raise DomainError(f"n_mean must be positive (state degenerates at 0), got {n_mean}")
    if n_mean == math.inf:
        raise DomainError("n_mean must be finite, got inf")


def rld_inverse_2param(n_mean: float) -> np.ndarray:
    """Inverse RLD Fisher matrix for (theta1, theta2) at known N."""
    _require_n_mean(n_mean)
    return np.array(
        [[n_mean + 0.5, 0.5j], [-0.5j, n_mean + 0.5]],
        dtype=complex,
    )


def rld_inverse_3param(n_mean: float) -> np.ndarray:
    """Inverse RLD Fisher matrix for (theta1, theta2, N); the N row decouples.

    Its (N, N) entry N(N + 1) overflows float64 above N = 1.34e154, where
    DomainError is raised.
    """
    out = np.zeros((3, 3), dtype=complex)
    out[:2, :2] = rld_inverse_2param(n_mean)
    out[2, 2] = n_mean * (n_mean + 1.0)
    if not math.isfinite(out[2, 2].real):
        raise DomainError(
            f"n_mean must be at most 1.34e154 for the three-parameter bound "
            f"(N(N+1) overflows float64 above it), got {n_mean:g}"
        )
    return out


def c_r_general(weight: WeightMatrix, n_mean: float) -> float:
    """Bound from the matrix formula Tr G Re Jinv + Tr |sqrt(G) Im Jinv sqrt(G)|.

    Jinv is `rld_inverse_2param` for a 2x2 weight (N known) and
    `rld_inverse_3param` for a 3x3 one.  For both, Im Jinv is
    (e1 e2^T - e2 e1^T) / 2, so sqrt(G) Im Jinv sqrt(G) is
    (v1 v2^T - v2 v1^T) / 2 with vi = sqrt(G) ei and vi . vj = Gij.  Its two
    singular values are half the area |v1 ^ v2| each, so the trace norm is
    sqrt(G11 G22 - G12^2) for every weight; `_radical` evaluates it exactly.
    """
    j_inv = rld_inverse_2param(n_mean) if weight.dim == 2 else rld_inverse_3param(n_mean)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        real_term = float(np.trace(weight.entries @ j_inv.real))
    m = weight.entries
    (g11, g22, g12), k = _integers(m[0, 0], m[1, 1], m[0, 1])
    return _finite_bound(real_term + _radical(g11, g22, g12, k))


def _finite_bound(value: float) -> float:
    if not math.isfinite(value):
        raise DomainError("the bound overflows float64 for this weight and n_mean")
    return value


def _integers(*values) -> tuple[list[int], int]:
    """Integers n_i and k with values[i] = n_i / 2**k.

    A value is read exactly where it is a float or a rational whose
    denominator is a power of two, such as the halves that
    `WeightMatrix.two_param_gs` returns, and as the nearest float otherwise.
    """
    if not all(map(math.isfinite, values)):
        raise DomainError("weight matrix entries must be finite")
    dyadic = [isinstance(v, numbers.Rational) and not v.denominator & (v.denominator - 1) for v in values]
    ratios = [(int(v.numerator), int(v.denominator)) if exact else float(v).as_integer_ratio()
              for v, exact in zip(values, dyadic)]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den.bit_length() - 1


def _integer_matrix(m: np.ndarray) -> np.ndarray:
    """The entries of m as exact integers over one power of two (an object array)."""
    return np.array(_integers(*m.flat)[0], dtype=object).reshape(m.shape)


def _psd_rank(g) -> str:
    """"not PSD", "rank-deficient" or "full rank" for a symmetric integer matrix g.

    Sylvester's criterion: a symmetric matrix is positive semidefinite
    exactly when every principal minor is >= 0, and such a matrix has full
    rank exactly when its determinant is > 0.  Each minor is the sum of its
    Leibniz terms, exact in integers; it counts as negative only below
    -PSD_MINOR_TOL times the sum of its own terms' magnitudes, and as zero
    within that.  The tolerance scales with each minor, so the rule is the
    same at every scale, and a 1x1 minor is its own one term, so a negative
    diagonal entry is refused however small.  The tolerance keeps decimal
    files such as [[1, 0.1], [0.1, 0.01]], whose determinant in binary is
    about -9.0e-19, as rank-deficient weights.
    """
    tol_num, tol_den = PSD_MINOR_TOL.as_integer_ratio()
    for size in range(1, len(g) + 1):
        for rows in itertools.combinations(range(len(g)), size):
            terms = [(-1) ** sum(x > y for x, y in itertools.combinations(cols, 2))  # the sign of cols
                     * math.prod(g[i][j] for i, j in zip(rows, cols)) for cols in itertools.permutations(rows)]
            minor, slack = sum(terms) * tol_den, tol_num * sum(map(abs, terms))
            if minor < -slack:
                return "not PSD"
    # the last minor is the determinant
    return "full rank" if minor > slack else "rank-deficient"


def _radical(a: int, b: int, c: int, k: int) -> float:
    """sqrt(a b - c^2) / 2**k, rounded once from exact integers; 0 where a b < c^2.

    The integer root carries at least 113 bits, 60 beyond float64's 53, and
    a sticky last bit marks an inexact root, so the one division (which
    Python rounds correctly, subnormals included) rounds as the exact value
    would.
    """
    n = max(a * b - c * c, 0)
    shift = max(0, 113 - n.bit_length() // 2)
    n <<= 2 * shift
    root = math.isqrt(n)
    return (root | (root * root != n)) / (1 << (shift + k))


def _block(g1, g2, g3, g0=None) -> tuple[tuple[int, int, int], int, str]:
    """The weight of the g's, decided by `_psd_rank`: (a, b, c), k and its rank.

    The block [[g1+g2, g3], [g3, g1-g2]] is [[a, c], [c, b]] / 2**k in
    exact integers.  The weight is [[g1+g2, g3, 0], [g3, g1-g2, 0],
    [0, 0, g0]], or the block alone where g0 is None; DomainError is raised
    unless it is finite and positive semidefinite.
    """
    (i1, i2, c, i0), k = _integers(g1, g2, g3, 0.0 if g0 is None else g0)
    a, b = i1 + i2, i1 - i2
    rank = _psd_rank([[a, c], [c, b]] if g0 is None else [[a, c, 0], [c, b, 0], [0, 0, i0]])
    if rank == "not PSD":
        gs = ", ".join(map(str, (g1, g2, g3) if g0 is None else (g0, g1, g2, g3)))
        raise DomainError(f"the weight of the g's ({gs}) must be positive semidefinite")
    return (a, b, c), k, rank


def c_r_closed_2param(g1: float, g2: float, g3: float, n_mean: float) -> float:
    """Closed form 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2).

    The g's are floats or the exact halves of `WeightMatrix.two_param_gs`;
    the radical is exact either way.
    """
    _require_n_mean(n_mean)
    block, k, _ = _block(g1, g2, g3)
    return _finite_bound(2.0 * (n_mean + 0.5) * g1 + _radical(*block, k))


def c_r_closed_3param(g0: float, g1: float, g2: float, g3: float, n_mean: float) -> float:
    """Closed form g0 N(N+1) + 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2)."""
    _require_n_mean(n_mean)
    block, k, _ = _block(g1, g2, g3, g0)
    # N(N+1) first, as in the RLD inverse
    return _finite_bound(g0 * (n_mean * (n_mean + 1.0)) + 2.0 * (n_mean + 0.5) * g1 + _radical(*block, k))


def optimal_gaussian_tradeoff(g1: float, g2: float, g3: float, n_mean: float) -> _GaussianTradeoff:
    """Minimize Tr G (Sigma_rho + Sigma_m) over squeezed heterodyne measurements.

    The outcome covariance is Sigma_rho + Sigma_m with Sigma_rho = (N + 1/2) I
    and Sigma_m = (1/2) R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T, the added noise
    of heterodyning against a squeezed vacuum ancilla.  The rotation phi
    diagonalizes the traceless part of G into (high, low), half the block's
    eigenvalues, and the objective high e^{2r} + low e^{-2r} is least at
    e^{4r} = low / high.  There both terms are sqrt(high low), so `achieved`
    is 2(N + 1/2) g1 + 2 high e^{2r}; that it reproduces the closed-form
    bound is how r is certified.  With s = a + b and h = sqrt((a - b)^2 +
    4c^2) for the block [[a, c], [c, b]], high = (s + h)/4 and low / high =
    4(ab - c^2) / (s + h)^2, formed from the exact integers with a root
    carried 64 bits further, so neither cancels nor over- or underflows.  A
    rank-deficient block (g1 = 0 included) has no finite optimum and raises
    DomainError.  The result's fields are squeeze_r (r), squeeze_angle (phi)
    and achieved.
    """
    _require_n_mean(n_mean)
    (a, b, c), k, rank = _block(g1, g2, g3)
    if rank != "full rank":
        raise DomainError(f"(g1, g2, g3) = ({g1}, {g2}, {g3}) is a rank-one (or zero) weight; "
                          "the squeeze that minimizes its trade-off is infinite")
    sh = ((a + b) << 64) + math.isqrt(((a - b) ** 2 + 4 * c * c) << 128)  # (s + h) 2**64
    num, den = (a * b - c * c) << 130, sh * sh
    shift = max(0, den.bit_length() - num.bit_length())  # low / high = num / den, scaled into [1/2, 2]
    r_star = 0.25 * (math.log((num << shift) / den) - shift * math.log(2.0))
    phi = 0.5 * math.atan2(g3, g2)
    term = sh / (1 << (k + 66)) * math.exp(2.0 * r_star)
    achieved = 2.0 * (n_mean + 0.5) * g1 + term + term
    return _GaussianTradeoff(r_star, phi, achieved)


def load_weight(source: str) -> WeightMatrix:
    """Load a weight matrix from a preset name or a text file.

    Presets: "identity2", "identity3".  File format: the dimension d followed
    by d*d whitespace-separated row-major entries.
    """
    presets = {"identity2": 2, "identity3": 3}
    if source in presets:
        return WeightMatrix.identity(presets[source])
    try:
        with open(source, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ValueError(f"cannot read weight matrix {source!r}: {exc}") from exc
    if not tokens:
        raise ValueError(f"weight file {source!r} is empty")
    try:
        dim = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValueError(f"weight file {source!r} is malformed: {exc}") from exc
    _require_dim(dim)
    if len(values) != dim * dim:
        raise ValueError(
            f"weight file {source!r} must contain {dim * dim} entries after the dimension, "
            f"found {len(values)}"
        )
    return WeightMatrix(np.array(values).reshape(dim, dim))
