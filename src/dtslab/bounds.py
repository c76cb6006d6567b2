"""RLD Cramér-Rao type bounds for the displaced thermal state family.

The family is parameterized by theta = (theta1, theta2[, N]) with complex
amplitude zeta = (theta1 + i theta2)/sqrt(2) and mean thermal photon number
N > 0.  The inverse RLD Fisher matrix has the closed forms

    2 parameters (N known):  [[N + 1/2, i/2], [-i/2, N + 1/2]]
    3 parameters:            the same block, plus (3,3) entry N(N + 1)

and the bound for a weight matrix G is

    C_R(G) = Tr G Re Jinv + Tr | sqrt(G) Im Jinv sqrt(G) |

which evaluates in closed form to 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2)
for G = [[g1+g2, g3], [g3, g1-g2]], plus g0 N(N+1) when a decoupled third
parameter with weight g0 is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import PSD_EIGENVALUE_TOL, sqrt_psd, trace_norm

_SQRT2 = math.sqrt(2.0)
_OFF_BLOCK_TOL = 1e-12


@dataclass(frozen=True)
class ThetaPoint:
    """Parameter point (theta1, theta2, n_mean) with zeta = (theta1 + i theta2)/sqrt(2)."""

    theta1: float
    theta2: float
    n_mean: float

    def __post_init__(self):
        if not (self.n_mean > 0):
            raise DomainError(f"n_mean must be positive (state degenerates at 0), got {self.n_mean}")
        if not all(map(math.isfinite, (self.theta1, self.theta2, self.n_mean))):
            raise DomainError("theta components must be finite")

    @property
    def zeta(self) -> complex:
        return complex(self.theta1, self.theta2) / _SQRT2

    @classmethod
    def from_zeta(cls, zeta: complex, n_mean: float) -> "ThetaPoint":
        zeta = complex(zeta)
        return cls(_SQRT2 * zeta.real, _SQRT2 * zeta.imag, n_mean)


class WeightMatrix:
    """Real symmetric positive semidefinite weight, dimension 2 or 3.

    For d = 2 any symmetric matrix decomposes exactly as
    G = [[g1+g2, g3], [g3, g1-g2]].  For d = 3 the closed-form bound needs
    the block form diag([[g1+g2, g3], [g3, g1-g2]], g0); off-block entries
    must vanish for :meth:`three_param_gs`.

    Strictly positive weights are the textbook setting; semidefinite ones
    (zero eigenvalues, "ignore this direction") are accepted because every
    bound formula stays finite there.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, entries: np.ndarray):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"weight matrix must be square, got shape {m.shape}")
        d = m.shape[0]
        if d not in (2, 3):
            raise DomainError(f"weight matrix dimension must be 2 or 3, got {d}")
        if not np.all(np.isfinite(m)):
            raise DomainError("weight matrix entries must be finite")
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m / 2 - m.T / 2)) > 0.5e-9 * scale:  # m - m.T can overflow
            raise DomainError("weight matrix must be symmetric")
        m = m / 2 + m.T / 2  # (m + m.T) / 2 overflows near the float64 limit
        w = np.linalg.eigvalsh(m)
        if w.min() < -PSD_EIGENVALUE_TOL * scale:
            raise DomainError(
                f"weight matrix must be positive semidefinite (min eigenvalue {w.min():.3e})"
            )
        self.dim = d
        self.entries = m
        self.entries.setflags(write=False)

    @classmethod
    def identity(cls, dim: int) -> "WeightMatrix":
        if dim not in (2, 3):
            raise DomainError(f"weight matrix dimension must be 2 or 3, got {dim}")
        return cls(np.eye(dim))

    @classmethod
    def from_two_param_gs(cls, g1: float, g2: float, g3: float) -> "WeightMatrix":
        return cls(np.array([[g1 + g2, g3], [g3, g1 - g2]]))

    @classmethod
    def from_three_param_gs(cls, g0: float, g1: float, g2: float, g3: float) -> "WeightMatrix":
        return cls(np.array([[g1 + g2, g3, 0.0], [g3, g1 - g2, 0.0], [0.0, 0.0, g0]]))

    def two_param_gs(self) -> tuple[float, float, float]:
        """(g1, g2, g3) of the upper 2x2 block; exact for d = 2."""
        m = self.entries
        return (
            float((m[0, 0] + m[1, 1]) / 2),
            float((m[0, 0] - m[1, 1]) / 2),
            float(m[0, 1]),
        )

    def three_param_gs(self) -> tuple[float, float, float, float]:
        """(g0, g1, g2, g3) of the block form; requires off-block entries to vanish."""
        if self.dim != 3:
            raise DomainError("three_param_gs requires a 3x3 weight matrix")
        m = self.entries
        if not self.is_block_form():
            off = max(abs(m[0, 2]), abs(m[1, 2]))
            raise DomainError(
                f"weight matrix is not block diagonal (off-block magnitude {off:.3e}); "
                "the closed form applies only to the block form"
            )
        return (float(m[2, 2]), *self.two_param_gs())

    def is_block_form(self) -> bool:
        if self.dim == 2:
            return True
        m = self.entries
        return max(abs(m[0, 2]), abs(m[1, 2])) <= _OFF_BLOCK_TOL * max(1.0, float(np.max(np.abs(m))))

    def __repr__(self):
        return f"WeightMatrix(dim={self.dim}, entries={self.entries.tolist()})"


@dataclass(frozen=True)
class GaussianTradeoff:
    """Optimal squeezed Gaussian measurement for a 2x2 weight."""

    squeeze_r: float
    squeeze_angle: float
    achieved: float


def _require_n_mean(n_mean: float) -> None:
    if not (0 < n_mean < math.inf):
        raise DomainError(f"n_mean must be positive and finite, got {n_mean}")


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


def c_r_general(weight: WeightMatrix, j_inv: np.ndarray) -> float:
    """Bound from the matrix formula Tr G Re Jinv + Tr |sqrt(G) Im Jinv sqrt(G)|."""
    j_inv = np.asarray(j_inv)
    if j_inv.ndim != 2 or j_inv.shape != (weight.dim, weight.dim):
        raise DomainError(
            f"weight dimension {weight.dim} does not match matrix shape {j_inv.shape}"
        )
    scale = max(1.0, float(np.max(np.abs(j_inv))))
    if np.max(np.abs(j_inv - j_inv.conj().T)) > 1e-9 * scale:
        raise DomainError("inverse Fisher matrix must be Hermitian")
    g = weight.entries
    root = sqrt_psd(g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        real_term = float(np.trace(g @ j_inv.real))
    imag_term = trace_norm(root @ j_inv.imag @ root)
    return _finite_bound(real_term + imag_term)


def _finite_bound(value: float) -> float:
    if not math.isfinite(value):
        raise DomainError("the bound overflows float64 for this weight and n_mean")
    return value


def _closed_radical(g1: float, g2: float, g3: float) -> float:
    # in units of the power of two at or below max |g|: exact, and no square overflows
    unit = math.ldexp(1.0, math.frexp(max(abs(g1), abs(g2), abs(g3)))[1] - 1)
    s1, s2, s3 = g1 / unit, g2 / unit, g3 / unit
    rad = s1 * s1 - s2 * s2 - s3 * s3
    if rad < -PSD_EIGENVALUE_TOL * max(1.0 / unit / unit, s1 * s1):
        raise DomainError(
            f"(g1, g2, g3) = ({g1}, {g2}, {g3}) violates g1^2 >= g2^2 + g3^2 (weight not PSD)"
        )
    return unit * math.sqrt(max(rad, 0.0))


def c_r_closed_2param(g1: float, g2: float, g3: float, n_mean: float) -> float:
    """Closed form 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2)."""
    _require_n_mean(n_mean)
    WeightMatrix.from_two_param_gs(g1, g2, g3)  # validates the weight
    return _finite_bound(2.0 * (n_mean + 0.5) * g1 + _closed_radical(g1, g2, g3))


def c_r_closed_3param(g0: float, g1: float, g2: float, g3: float, n_mean: float) -> float:
    """Closed form g0 N(N+1) + 2(N + 1/2) g1 + sqrt(g1^2 - g2^2 - g3^2)."""
    _require_n_mean(n_mean)
    if g0 < -PSD_EIGENVALUE_TOL:
        raise DomainError(f"g0 must be nonnegative, got {g0}")
    WeightMatrix.from_three_param_gs(g0, g1, g2, g3)  # validates the weight
    return _finite_bound(
        g0 * n_mean * (n_mean + 1.0)
        + 2.0 * (n_mean + 0.5) * g1
        + _closed_radical(g1, g2, g3)
    )


def optimal_gaussian_tradeoff(g1: float, g2: float, g3: float, n_mean: float) -> GaussianTradeoff:
    """Minimize Tr G (Sigma_rho + Sigma_m) over squeezed heterodyne measurements.

    The outcome covariance is Sigma_rho + Sigma_m with Sigma_rho = (N + 1/2) I
    and Sigma_m = (1/2) R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T, the added noise
    of heterodyning against a squeezed vacuum ancilla.  The rotation phi
    diagonalizes the traceless part of G into (high, low), and the objective
    high e^{2r} + low e^{-2r} is least at e^{4r} = low / high.  `achieved` is
    the model objective at that r; that it reproduces the closed-form bound is
    how the model is certified.  A rank-one block (low = 0 within the PSD
    tolerance) has no finite optimum and raises DomainError.
    """
    _require_n_mean(n_mean)
    if not (g1 > 0):
        raise DomainError(f"g1 must be positive for the trade-off, got {g1}")
    _closed_radical(g1, g2, g3)

    anisotropy = math.hypot(g2, g3)
    phi = 0.5 * math.atan2(g3, g2)
    # rotated weight diagonal: (g1 + |g2,g3|, g1 - |g2,g3|)
    high = (g1 + anisotropy) / 2.0
    low = (g1 - anisotropy) / 2.0
    if low <= PSD_EIGENVALUE_TOL * high:
        raise DomainError(
            f"(g1, g2, g3) = ({g1}, {g2}, {g3}) is a rank-one weight; the squeeze "
            "that minimizes its trade-off is infinite"
        )
    r_star = 0.25 * math.log(low / high)
    base = 2.0 * (n_mean + 0.5) * g1
    achieved = base + high * math.exp(2.0 * r_star) + low * math.exp(-2.0 * r_star)
    return GaussianTradeoff(r_star, phi, achieved)


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
    if len(values) != dim * dim:
        raise ValueError(
            f"weight file {source!r} must contain {dim * dim} entries after the dimension, "
            f"found {len(values)}"
        )
    return WeightMatrix(np.array(values).reshape(dim, dim))
