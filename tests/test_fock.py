import cmath
import decimal
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dtslab import fock
from dtslab.bounds import ThetaPoint, rld_inverse_2param, rld_inverse_3param
from dtslab.errors import DomainError, PreconditionError
from dtslab.linalg import trace_distance
from test_linalg import rank_frobenius_bound


def displaced_thermal_density_quadrature(
    zeta: complex,
    n_mean: float,
    cutoff: int,
    radial_points: int = 80,
    angular_points: int = 80,
) -> np.ndarray:
    """Second, independent construction: polar quadrature of the defining mixture.

    The state is the Gaussian mixture of coherent projectors
    (1/(pi N)) integral exp(-|zeta - alpha|^2/N) |alpha><alpha| d^2 alpha,
    integrated on a polar grid centered at zeta (Gauss-Legendre radially,
    trapezoid in angle).  A cross-check of
    :func:`fock.displaced_thermal_density` that shares none of its formulas.
    """
    radius = math.sqrt(40.0 * n_mean)  # exp(-r^2/N) < 5e-18 beyond
    nodes, gl_weights = np.polynomial.legendre.leggauss(radial_points)
    radii = 0.5 * radius * (nodes + 1.0)
    radial_weights = 0.5 * radius * gl_weights
    angles = 2.0 * np.pi * np.arange(angular_points) / angular_points
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    for r, w in zip(radii, radial_weights):
        alphas = complex(zeta) + r * np.exp(1j * angles)
        vectors = np.array([fock.coherent_vector(a, cutoff) for a in alphas])
        weight = math.exp(-r * r / n_mean) * r * w * (2.0 * np.pi / angular_points)
        rho += (weight / (math.pi * n_mean)) * (vectors.T @ vectors.conj())
    return rho


def rld_fisher_central_differences(theta: ThetaPoint, cutoff: int, step: float = 1e-4) -> np.ndarray:
    """Reference RLD Fisher matrix: central differences of the truncated density."""
    center = np.array([theta.theta1, theta.theta2, theta.n_mean])

    def density(vec):
        point = ThetaPoint(*vec)
        return fock.displaced_thermal_density(point.zeta, point.n_mean, cutoff)

    rho = density(center)
    derivatives = []
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = step
        derivatives.append((density(center + shift) - density(center - shift)) / (2.0 * step))
    solved = [np.linalg.solve(rho, d) for d in derivatives]
    return np.array([[np.trace(s @ d) for d in derivatives] for s in solved])


def annihilation(cutoff: int) -> np.ndarray:
    """Annihilation operator: <m|a|n> = sqrt(n) delta_{m,n-1}, real (float64)."""
    return np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), k=1)


def numeric_rld_fisher(theta: ThetaPoint, cutoff: int) -> np.ndarray:
    """Dense reference RLD Fisher matrix of the truncated family at theta, exact derivatives.

    Moving zeta along delta multiplies D by exp(delta a^dagger - conj(delta) a)
    up to a phase, so the theta1 and theta2 derivatives of D rho_th D^dagger
    are its commutators with (a^dagger - a)/sqrt(2) and i(a^dagger + a)/sqrt(2),
    formed on a window one row taller than the cutoff (for the top-edge term)
    and then truncated; the N derivative is D diag(dp_k/dN) D^dagger.
    J[i, j] = tr(rho^{-1} d_i rho d_j rho) is ordered as the closed-form
    inverses in `bounds`.  It works at the given zeta, with a dense window
    and a solve, where `fock.truncated_rld_inverse` uses displacement
    covariance and sums at zeta = 0: the reference for that argument.
    """
    n_mean = theta.n_mean
    tall = fock.displacement_operator(theta.zeta, cutoff + 1)[:, :cutoff]
    weights = np.diagonal(fock.thermal_density(n_mean, cutoff))
    # dp_k/dN of the thermal weights p_k = N^k / (N + 1)^(k + 1)
    weights_dn = weights * (np.arange(cutoff) - n_mean) / (n_mean * (n_mean + 1.0))
    moved = (tall * weights) @ tall.conj().T
    rho = moved[:cutoff, :cutoff]
    a = annihilation(cutoff + 1)
    x = (a.T - a) / math.sqrt(2.0)
    p = (a.T + a) / math.sqrt(2.0)
    derivatives = [
        (x @ moved - moved @ x)[:cutoff, :cutoff],
        1j * (p @ moved - moved @ p)[:cutoff, :cutoff],
        (tall[:cutoff] * weights_dn) @ tall[:cutoff].conj().T,
    ]
    solved = [np.linalg.solve(rho, d) for d in derivatives]
    return np.array([[np.trace(s @ d) for d in derivatives] for s in solved])


def number_operator(cutoff: int) -> np.ndarray:
    return np.diag(np.arange(cutoff, dtype=float))


def beam_splitter_blocks(phi: float, cutoff: int) -> list[tuple[slice, np.ndarray]]:
    """`fock._beam_splitter_blocks` at phi, from the spectra at cutoff."""
    return fock._beam_splitter_blocks(phi, fock._beam_splitter_spectra(cutoff))


def beam_splitter(phi: float, cutoff: int) -> np.ndarray:
    """The dense two-mode unitary in numpy.kron order: the direct sum of `fock._beam_splitter_blocks`."""
    unitary = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for idx, (_, block) in zip(block_indices(cutoff), beam_splitter_blocks(phi, cutoff)):
        unitary[np.ix_(idx, idx)] = block
    return unitary


def block_indices(cutoff: int) -> list[np.ndarray]:
    """`fock._photon_blocks` as index arrays into the numpy.kron order, m cutoff + n."""
    return [
        np.array([m * cutoff + total - m for m in counts])
        for total, counts in enumerate(fock._photon_blocks(cutoff))
    ]


def stitched_joint(slabs: list[tuple], cutoff: int) -> np.ndarray:
    """The whole matrix in block order from the (start, p, q, slab) of `fock._joint_slabs`.

    Each slab fills its columns from its first row down, and the mirror of
    its rows below its square fills the rows of its square to the right of
    it; an entry that no slab covers stays NaN.
    """
    whole = np.full((cutoff * cutoff,) * 2, np.nan)
    for start, _, _, slab in slabs:
        width = slab.shape[1]
        whole[start:, start : start + width] = slab
        whole[start : start + width, start + width :] = slab[width:].T
    return whole


def partial_trace(op: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one mode of a two-mode operator; keep is "first" or "second".

    The reference for the marginals of `fock._concentration_step`: the
    traced photon count is summed in ascending order, one term at a time
    from zero.  The step adds each marginal entry's terms in ascending
    total photon number, and with the kept counts fixed that is this order.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise DomainError(f"partial_trace expects a square matrix, got shape {op.shape}")
    cutoff = math.isqrt(op.shape[0])
    if cutoff * cutoff != op.shape[0]:
        raise DomainError(f"matrix side {op.shape[0]} is not a perfect square")
    if keep not in ("first", "second"):
        raise DomainError(f'keep must be "first" or "second", got {keep!r}')
    tensor = op.reshape(cutoff, cutoff, cutoff, cutoff)
    marginal = np.zeros((cutoff, cutoff), dtype=op.dtype)
    for j in range(cutoff):
        marginal += tensor[:, j, :, j] if keep == "first" else tensor[j, :, j, :]
    return marginal


def row_norm_bound(d: np.ndarray) -> float:
    """1/2 sum_r ||d[r, :]||_2: the joint bound of `fock._concentration_step`, on a whole matrix."""
    return float(np.sum(np.linalg.norm(d, axis=1))) / 2


def dense_concentration_cascade(
    zeta: complex, n_mean: float, n_copies: int, cutoff: int
) -> list[tuple[fock.ConcentrationReport, float, float]]:
    """Dense reference of `fock.verify_concentration_cascade`, out of place and in numpy.kron order.

    It forms each step's whole input np.kron(carried, fresh), the dense
    unitary U and Y = U input U^T, both triangles of it; its marginals are
    `partial_trace`s, and the joint bound is the row-norm bound of the
    whole D = Y - kron(targets).  Each report comes with the exact joint
    trace distance, from a dense eigensolve, and the rank-Frobenius bound
    (cutoff / 2) ||D||_F.  At a complex zeta it runs in complex128, where
    `fock` runs at |zeta|: the reference for the phase-covariance argument.

    It sums in other orders than `fock`, so the two agree within a rounding
    budget (`within_rounding_budget`), not bit for bit.
    """
    fresh = fock.displaced_thermal_density(zeta, n_mean, cutoff)
    target_second = fock.thermal_density(n_mean, cutoff)
    carried = fresh
    reports = []
    for i in range(1, n_copies):
        phi = fock.concentration_angle(i)
        unitary = beam_splitter(phi, cutoff)
        joint = unitary @ np.kron(carried, fresh) @ unitary.T
        target_first = fock.displaced_thermal_density(
            math.sqrt(i + 1.0) * complex(zeta), n_mean, cutoff
        )
        diff = joint - np.kron(target_first, target_second)
        report = fock.ConcentrationReport(
            cutoff=cutoff,
            phi=phi,
            dist_first=trace_distance(partial_trace(joint, "first"), target_first),
            dist_second=trace_distance(partial_trace(joint, "second"), target_second),
            joint_bound=row_norm_bound(diff),
        )
        exact = trace_distance(diff, np.zeros_like(diff))
        reports.append((report, exact, rank_frobenius_bound(diff) / 2))
        carried = target_first
    return reports


def within_rounding_budget(report: fock.ConcentrationReport, reference: fock.ConcentrationReport) -> bool:
    """Whether two computations of one step's certificates agree up to their rounding.

    Write c for the cutoff and u = 2^-53.  Both compute the same entries of
    Y = U X U^T, X = carried (x) fresh, as sums of the same products in other
    orders, and `fock` reads the entries above its triangle as their
    mirrors, equal in exact arithmetic.  A product whose inner dimension is
    at most c is within gamma_c = c u / (1 - c u) of exact, entry by entry,
    relative to the product of the operands' absolute values; U's blocks are
    at most c wide, so each computed Y is within about 2 c u |U| |X| |U|^T of
    the exact one.  |U|'s blocks have Frobenius norm at most sqrt(c), so
    || |U| |X| |U|^T ||_F <= c ||X||_F <= c, as the densities have trace at
    most 1, and the two Y differ by at most 4 c^2 u in Frobenius norm.
    - A marginal sums c blocks of Y, so the two marginals differ by at most
      sqrt(c) 4 c^2 u, plus the rounding of the sums, 2 c u sqrt(c); a trace
      distance moves by at most half the trace norm of that, at most
      sqrt(c) / 2 times its Frobenius norm: 3 c^3 u with room to spare.
    - The joint bound 1/2 sum_r ||D[r, :]||_2 moves through D by at most
      1/2 sum_r ||D[r, :] - D'[r, :]||_2 <= (c / 2) ||D - D'||_F, by the
      triangle inequality on each row and Cauchy-Schwarz over the c^2 rows:
      (c / 2) 4 c^2 u = 2 c^3 u.  Each computation also rounds its own sum:
      a row's squared norm sums c^2 squares, within c^2 u of itself, which
      the square root halves, and the c^2 roots are summed within c^2 u, so
      each is within 3/2 c^2 u of its bound, and the two within 3 c^2 u.
    A complex product rounds at most about sqrt(2) times as much as a real
    one, so against a complex reference every term at most doubles: the
    budget is 8 c^3 u on each distance (twice 3 c^3 u, rounded up), and
    4 c^3 u + 6 c^2 u joint_bound on the joint bound.
    """
    c, u = report.cutoff, 2.0**-53
    if (report.cutoff, report.phi) != (reference.cutoff, reference.phi):
        return False
    distances = (report.dist_first - reference.dist_first, report.dist_second - reference.dist_second)
    joint = abs(report.joint_bound - reference.joint_bound)
    joint_budget = (4 * c**3 + 6 * c**2 * reference.joint_bound) * u
    return max(map(abs, distances)) <= 8 * c**3 * u and joint <= joint_budget


class TestThermalDensity:
    def test_n1_d2(self):
        rho = fock.thermal_density(1.0, 2)
        assert np.allclose(rho, np.diag([0.5, 0.25]))
        assert fock.tail(1.0, 0.0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_small_n_is_vacuum(self):
        rho = fock.thermal_density(1e-6, 8)
        vacuum = np.zeros((8, 8))
        vacuum[0, 0] = 1.0
        assert np.max(np.abs(rho - vacuum)) < 1e-6

    @pytest.mark.parametrize("n_mean,cutoff", [(0.5, 17), (1.0, 30), (2.0, 46)])
    def test_trace_plus_tail_is_one(self, n_mean, cutoff):
        rho = fock.thermal_density(n_mean, cutoff)
        assert np.trace(rho).real + fock.tail(n_mean, 0.0, cutoff) == pytest.approx(
            1.0, abs=1e-12
        )


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(fock.displacement_operator(0j, 10), np.eye(10))

    def test_vacuum_overlap(self):
        for zeta in (0.5, 0.5 - 1.0j):
            d = fock.displacement_operator(zeta, 40)
            assert d[0, 0] == pytest.approx(math.exp(-abs(zeta) ** 2 / 2.0), abs=1e-14)

    def test_first_column_is_coherent_series(self):
        zeta = 0.4 + 0.3j
        d = fock.displacement_operator(zeta, 30)
        # series oracle: <k|D(zeta)|0> = e^{-|z|^2/2} z^k / sqrt(k!)
        term = math.exp(-abs(zeta) ** 2 / 2.0)
        expected = []
        value = complex(term)
        for k in range(30):
            expected.append(value)
            value = value * zeta / math.sqrt(k + 1)
        assert np.allclose(d[:, 0], expected, atol=1e-13)

    def test_unitary_away_from_edge(self):
        d = fock.displacement_operator(0.5, 40)
        product = d @ d.conj().T
        assert np.max(np.abs(product[:20, :20] - np.eye(20))) < 1e-10


class TestDisplacedThermal:
    def test_zero_displacement_is_thermal(self):
        assert np.allclose(
            fock.displaced_thermal_density(0j, 1.0, 20), fock.thermal_density(1.0, 20)
        )

    def test_diagonal_at_zero_displacement(self):
        rho = fock.displaced_thermal_density(0j, 1.0, 12)
        expected = [0.5 * 0.5**k for k in range(12)]
        assert np.allclose(np.diag(rho).real, expected, atol=1e-14)

    def test_quadrature_cross_check(self):
        direct = fock.displaced_thermal_density(0.5, 0.5, 30)
        quad = displaced_thermal_density_quadrature(0.5, 0.5, 30)
        assert np.max(np.abs(direct - quad)) < 1e-6

    @pytest.mark.parametrize("zeta,n_mean", [(0.5 + 0j, 0.5), (0.3 + 0.4j, 1.0), (1.0 + 0j, 2.0)])
    def test_density_invariants(self, zeta, n_mean):
        cutoff = fock.cutoff_for(n_mean, abs(zeta))
        rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        trace = np.trace(rho).real
        assert trace <= 1.0 + 1e-12
        deficit_bound = fock.tail(n_mean, abs(zeta) ** 2, cutoff) + fock.tail(n_mean, 0.0, cutoff)
        assert trace >= 1.0 - deficit_bound
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_tail_bound_dominates_measured_deficit(self):
        for zeta, n_mean, cutoff in ((0.5, 0.5, 17), (1.0, 0.5, 17), (1.0, 2.0, 46)):
            rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
            deficit = 1.0 - np.trace(rho).real
            bound = fock.tail(n_mean, abs(zeta) ** 2, cutoff) + fock.tail(n_mean, 0.0, cutoff)
            assert 0.0 <= deficit <= bound

    def test_a_real_amplitude_gives_an_exactly_symmetric_density(self):
        # the cascade reads one triangle of each step and refuses a density
        # that is not symmetric to the bit; G G^T of G = D(zeta) sqrt(p) is,
        # and stays within rounding of the conjugation D(zeta) diag(p) D(zeta)^T
        for cutoff in (2, 3, 5, 8, 13, 20, 26, 33, 40, 55, 70):
            for zeta in (0.0, 1e-3, 0.1, -0.5, 0.707, 1.0, 2.0, 3.5):
                for n_mean in (1e-14, 0.05, 0.5, 1.0, 2.0):
                    rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
                    assert np.array_equal(rho, rho.T)
                    dop = fock.displacement_operator(zeta, cutoff)
                    conjugated = dop @ fock.thermal_density(n_mean, cutoff) @ dop.T
                    assert np.max(np.abs(rho - conjugated)) <= 1e-15

    @pytest.mark.parametrize(
        "zeta,dtype",
        [(0.5, np.float64), (-0.5 + 0j, np.float64), (0.3 + 0.4j, np.complex128), (0.4j, np.complex128)],
    )
    def test_dtype_follows_the_amplitude(self, zeta, dtype):
        assert fock.thermal_density(1.0, 8).dtype == np.float64
        assert fock.displacement_operator(zeta, 8).dtype == dtype
        assert fock.displaced_thermal_density(zeta, 1.0, 8).dtype == dtype

    @pytest.mark.parametrize("theta", [0.3, 2.1, -1.0, math.pi / 2, math.pi])
    @pytest.mark.parametrize(
        "r,n_mean,cutoff",
        [(2 * math.sqrt(2), 0.5, 37), (1.2 * math.sqrt(2), 2.0, 69), (0.5, 1.0, 40), (0.2, 0.05, 8)],
    )
    def test_phase_covariance(self, r, theta, n_mean, cutoff):
        # rho(e^{i theta} r) = R rho(r) R^dagger with R = diag(e^{i k theta}),
        # the identity that lets the cascade run at |zeta|; densities, not
        # displacement windows, because the real and complex recurrences
        # round differently in the window's bottom-right corner
        rotated = fock.displaced_thermal_density(cmath.rect(r, theta), n_mean, cutoff)
        phase = np.exp(1j * theta * np.arange(cutoff))
        conjugated = phase[:, None] * fock.displaced_thermal_density(r, n_mean, cutoff) * phase.conj()
        assert np.max(np.abs(rotated - conjugated)) < 1e-15


class TestBeamSplitter:
    def test_zero_angle_is_identity(self):
        assert np.allclose(beam_splitter(0.0, 6), np.eye(36))

    def test_first_cascade_angle_is_pi_over_4(self):
        assert fock.concentration_angle(1) == math.pi / 4.0

    def test_cascade_angles(self):
        for i in (2, 3, 7):
            assert fock.concentration_angle(i) == pytest.approx(
                math.atan(1.0 / math.sqrt(i)), abs=0
            )

    def test_conserves_total_photon_number(self):
        d = 8
        u = beam_splitter(0.6, d)
        n_tot = np.kron(number_operator(d), np.eye(d)) + np.kron(
            np.eye(d), number_operator(d)
        )
        assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10

    def test_unitary_on_retained_blocks(self):
        d = 8
        u = beam_splitter(fock.concentration_angle(1), d)
        totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
        keep = totals <= d - 1
        gram = u.conj().T @ u
        assert np.max(np.abs(gram[np.ix_(keep, keep)] - np.eye(int(keep.sum())))) < 1e-10

    @pytest.mark.parametrize("cutoff", [3, 6, 12, 20])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, -0.6, 2.0])
    def test_matches_dense_expm(self, cutoff, phi):
        expm = pytest.importorskip("scipy.linalg").expm
        a = annihilation(cutoff)
        # scipy's expm of the complex generator agrees with the blocks to a
        # few 1e-14; of the real one, only to a few 1e-13
        generator = (np.kron(a.T, a) - np.kron(a, a.T)).astype(complex)
        u = beam_splitter(phi, cutoff)
        assert u.dtype == np.float64 and u.shape == (cutoff**2, cutoff**2)
        assert np.max(np.abs(u - expm(phi * generator))) < 1e-13

    @pytest.mark.parametrize("cutoff", [26, 40])
    @pytest.mark.parametrize("phi", [math.pi / 4, math.atan(1 / math.sqrt(2)), -0.6, 2.0])
    def test_each_block_matches_expm_of_its_truncated_generator(self, cutoff, phi):
        # every block, the truncated ones (total >= cutoff) included, against
        # the exponential of the generator restricted to its rows and columns
        expm = pytest.importorskip("scipy.linalg").expm
        a = annihilation(cutoff)
        generator = np.kron(a.T, a) - np.kron(a, a.T)
        blocks = beam_splitter_blocks(phi, cutoff)
        assert len(blocks) == 2 * cutoff - 1
        for (rows, block), idx in zip(blocks, block_indices(cutoff)):
            assert block.dtype == np.float64
            reference = expm(phi * generator[np.ix_(idx, idx)].astype(complex))
            assert np.max(np.abs(block - reference)) < 1e-13

    @pytest.mark.parametrize("phi", [math.pi / 4, 2.0])
    def test_orthogonal_on_whole_window(self, phi):
        # the truncated blocks (total >= cutoff) included: the exponential of
        # the truncated antisymmetric generator is still orthogonal
        d = 10
        u = beam_splitter(phi, d)
        assert np.max(np.abs(u.T @ u - np.eye(d * d))) < 1e-13
        assert np.max(np.abs(u @ u.T - np.eye(d * d))) < 1e-13

    @pytest.mark.parametrize("phi", [math.pi / 4, 2.0])
    def test_blocks_at_the_cutoff_limit(self, phi):
        # each block is one real product W (cos + sin)(phi w) W^T with signs,
        # which is the exponential only where cos(phi H) vanishes at odd j + k
        # and sin(phi H) at even j + k
        spectra = fock._beam_splitter_spectra(fock.MAX_CUTOFF)
        for (counts, block), (_, w, v) in zip(fock._beam_splitter_blocks(phi, spectra), spectra):
            assert block.dtype == np.float64 and block.flags.c_contiguous
            assert np.max(np.abs(block.T @ block - np.eye(len(counts)))) < 1e-13
            odd = np.add.outer(np.arange(len(w)), np.arange(len(w))) % 2 == 1
            assert np.max(np.abs(((v * np.cos(phi * w)) @ v.T)[odd]), initial=0.0) < 1e-14
            assert np.max(np.abs(((v * np.sin(phi * w)) @ v.T)[~odd])) < 1e-14

    def test_blocks_reject_small_cutoff(self):
        with pytest.raises(DomainError):
            fock._beam_splitter_spectra(1)

    def test_photon_blocks_partition_the_window(self):
        d = 5
        blocks = block_indices(d)
        assert len(blocks) == 2 * d - 1
        assert [len(b) for b in blocks] == [1, 2, 3, 4, 5, 4, 3, 2, 1]
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d * d))
        for total, idx in enumerate(blocks):
            m, n = np.divmod(idx, d)
            assert np.all(m + n == total) and np.all(np.diff(m) == 1)

    @staticmethod
    def joint_slabs(phi: float, a: np.ndarray, b: np.ndarray) -> list[tuple]:
        """Every (start, p, q, slab) of `fock._joint_slabs`, each slab copied as it arrives."""
        blocks = beam_splitter_blocks(phi, a.shape[0])
        return [(start, p, q, slab.copy()) for start, p, q, slab in fock._joint_slabs(blocks, a, b)]

    def test_block_conjugation_matches_dense(self, monkeypatch):
        # slabs of at most 2 cutoff^2 = 162 entries at cutoff 9: a slab per
        # block up to total 11, from total 2 on each alone above the budget,
        # then totals 12 and 13, then a last, short slab of totals 14 to 16;
        # their triangles and mirrors cover the whole joint output of two
        # symmetric operators, in block order
        monkeypatch.setattr(fock, "_SLAB", 2)
        d = 9
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, d, d))
        a, b = a + a.T, b + b.T
        u = beam_splitter(fock.concentration_angle(2), d)
        slabs = self.joint_slabs(fock.concentration_angle(2), a, b)
        assert [slab.shape[1] for *_, slab in slabs] == list(range(1, 10)) + [8, 7, 6, 9, 6]
        order = np.concatenate(block_indices(d))
        for start, p, q, slab in slabs:
            assert np.array_equal(p * d + q, order[start : start + slab.shape[1]])
        dense = (u @ np.kron(a, b) @ u.T)[np.ix_(order, order)]
        assert np.max(np.abs(stitched_joint(slabs, d) - dense)) < 1e-12

    def test_block_conjugation_matches_dense_at_the_chunk_edges(self, monkeypatch):
        # the slabs of the test above, their column pass in chunks of 7 rows:
        # the first slab's first chunk ends at row 7, inside block 3 (rows 6
        # to 9); the slabs of 28 and 21 rows end with a whole chunk; the last
        # slab has 6 rows, fewer than one chunk
        monkeypatch.setattr(fock, "_SLAB", 2)
        monkeypatch.setattr(fock, "_ROWS", 7)
        d = 9
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, d, d))
        a, b = a + a.T, b + b.T
        u = beam_splitter(fock.concentration_angle(2), d)
        slabs = self.joint_slabs(fock.concentration_angle(2), a, b)
        assert [len(slab) for *_, slab in slabs] == [81, 80, 78, 75, 71, 66, 60, 53, 45, 36, 28, 21, 15, 6]
        assert 7 not in fock._block_order([(counts, None) for counts in fock._photon_blocks(d)])[0]
        order = np.concatenate(block_indices(d))
        dense = (u @ np.kron(a, b) @ u.T)[np.ix_(order, order)]
        assert np.max(np.abs(stitched_joint(slabs, d) - dense)) < 1e-12

    def test_block_conjugation_keeps_a_real_operator_real(self):
        d = 20
        a = fock.displaced_thermal_density(0.5, 1.0, d)
        for *_, slab in fock._joint_slabs(beam_splitter_blocks(math.pi / 4, d), a, a):
            assert slab.dtype == np.float64 and slab.flags.c_contiguous

    def test_block_conjugation_allocates_no_full_size_buffer(self):
        # every slab is a view of one buffer of at most _SLAB cutoff^2
        # entries, a quarter of the 160 000 of a two-mode operator, and holds
        # only the rows from its own first column on
        d = 20
        a = fock.displaced_thermal_density(0.5, 1.0, d)
        slabs = list(fock._joint_slabs(beam_splitter_blocks(math.pi / 4, d), a, a))
        assert [(start, slab.shape) for start, *_, slab in slabs] == [
            (0, (400, 91)), (91, (309, 119)), (210, (190, 190))
        ]
        assert all(slab.size <= fock._SLAB * d * d for *_, slab in slabs)
        assert all(np.shares_memory(slab, slabs[0][-1]) for *_, slab in slabs)


class TestPartialTrace:
    def test_product_state(self):
        rho = fock.displaced_thermal_density(0.3, 0.5, 6)
        sigma = fock.thermal_density(1.0, 6)
        joint = np.kron(rho, sigma)
        assert np.allclose(partial_trace(joint, "first"), rho * np.trace(sigma))
        assert np.allclose(partial_trace(joint, "second"), sigma * np.trace(rho))

    def test_correlated_diagonal_marginals(self):
        # (|00><00| + |11><11|)/2 on two qubits: both marginals are I/2
        joint = np.zeros((4, 4), dtype=complex)
        joint[0, 0] = joint[3, 3] = 0.5
        assert np.allclose(partial_trace(joint, "first"), np.eye(2) / 2)
        assert np.allclose(partial_trace(joint, "second"), np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        joint = a @ a.conj().T
        assert np.trace(partial_trace(joint, "first")) == pytest.approx(
            np.trace(joint), abs=1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            partial_trace(np.eye(5), "first")
        with pytest.raises(DomainError):
            partial_trace(np.eye(4), "both")


class TestConcentration:
    def test_zero_amplitude_gives_thermal_marginals(self):
        report = fock._cascade(0j, 1.0, 2, 27)[0]
        assert report.dist_first < 1e-6
        assert report.dist_second < 1e-6

    def test_spec_point_at_cutoff_30(self):
        report = fock._cascade(0.5, 0.5, 2, 30)[0]
        assert report.phi == math.pi / 4.0
        assert report.dist_first < 1e-6
        assert report.dist_second < 1e-6
        assert report.joint_bound < 1e-5

    def test_automatic_cutoff(self):
        report = fock.verify_concentration_cascade(0.5, 0.5, n_copies=2)[0]
        assert report.dist_first < 1e-7
        assert report.dist_second < 1e-7

    def test_three_mode_cascade(self):
        reports = fock.verify_concentration_cascade(0.5, 0.5, n_copies=3)
        assert len(reports) == 2
        assert reports[0].phi == math.pi / 4.0
        assert reports[1].phi == pytest.approx(math.atan(1.0 / math.sqrt(2.0)))
        for report in reports:
            assert report.dist_first < 1e-6
            assert report.dist_second < 1e-6

    def test_complex_amplitude_n2(self):
        # the cascade runs at |zeta|, and |0.3 + 0.4j| is 0.5 in float64
        report = fock.verify_concentration_cascade(0.3 + 0.4j, 0.5, n_copies=2)[0]
        real = fock.verify_concentration_cascade(0.5, 0.5, n_copies=2)[0]
        assert report.dist_first < 1e-7 and report.dist_second < 1e-7
        assert report.joint_bound < 1e-6
        assert report == real

    def test_complex_amplitude_cascade(self):
        reports = fock.verify_concentration_cascade(0.3 + 0.4j, 0.5, n_copies=3)
        assert len(reports) == 2
        for report in reports:
            assert report.dist_first < 1e-6 and report.dist_second < 1e-6
        assert reports == fock.verify_concentration_cascade(0.5, 0.5, n_copies=3)

    def test_a_complex_cascade_runs_in_float64(self, monkeypatch):
        # no complex array reaches the two-mode layer: every block and
        # density handed to _joint_slabs, and every slab it yields
        seen = []
        joint_slabs = fock._joint_slabs

        def recording(blocks, carried, fresh):
            seen.extend([u for _, u in blocks] + [carried, fresh])
            for start, p, q, slab in joint_slabs(blocks, carried, fresh):
                seen.append(slab)
                yield start, p, q, slab

        monkeypatch.setattr(fock, "_joint_slabs", recording)
        fock._cascade(0.3 + 0.4j, 0.2, 3, 20)
        # two steps, each with 39 blocks, two densities and three slabs
        assert len(seen) == 2 * (39 + 2 + 3)
        assert all(x.dtype == np.float64 for x in seen)

    @staticmethod
    def cascade_peak_mib(zeta: complex, n_copies: int = 2, cutoff: int | None = None) -> float:
        tracemalloc.start()
        try:
            if cutoff is None:
                fock.verify_concentration_cascade(zeta, 1.0, n_copies=n_copies)
            else:
                fock._cascade(zeta, 1.0, n_copies, cutoff)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_real_amplitude_memory(self):
        # cutoff 38: a step holds one slab buffer of at most 96 cutoff^2
        # entries, 1.1 MiB, never a 15.9 MiB two-mode operator
        assert self.cascade_peak_mib(0.5) < 3.5

    def test_complex_amplitude_memory(self):
        # the cascade runs at |zeta|, in the same float64 slabs
        assert self.cascade_peak_mib(0.3 + 0.4j) < 3.5

    def test_three_copy_cascade_memory(self):
        # each step allocates its own slab buffer after the last one's is freed
        assert self.cascade_peak_mib(0.5, n_copies=3) < 3.5

    def test_memory_at_the_cutoff_limit(self):
        # a two-mode operator at cutoff 70 holds 183 MiB; a slab at most
        # 96 cutoff^2 entries, 3.6 MiB, beside 3.5 MiB of beam-splitter
        # blocks and spectra
        assert self.cascade_peak_mib(0.5, cutoff=fock.MAX_CUTOFF) < 11

    def test_the_column_pass_makes_no_slab_tall_product(self):
        # after the first slab, which allocates the slab, scratch and product
        # buffers, a cutoff-70 step's slabs add only their columns of the
        # two densities (0.77 MiB); a product as tall as the slab, of its
        # rows by one block, would raise it to 1.48 MiB
        cutoff = fock.MAX_CUTOFF
        a = fock.displaced_thermal_density(0.5, 1.0, cutoff)
        blocks = beam_splitter_blocks(math.pi / 4, cutoff)
        tracemalloc.start()
        try:
            slabs = fock._joint_slabs(blocks, a, a)
            next(slabs)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in slabs:
                pass
            rise = (tracemalloc.get_traced_memory()[1] - held) / 2**20
        finally:
            tracemalloc.stop()
        assert rise <= 1.0

    @staticmethod
    def assert_matches_dense_reference(zeta: complex, n_mean: float, cutoff: int) -> None:
        # within the rounding budget of the reference at |zeta|, where the
        # cascade runs, and of the complex reference at zeta itself; the
        # slab edges need cutoffs below the truncation budget, so the steps
        # run without the cascade's gate
        reports = fock._cascade(zeta, n_mean, 3, cutoff)
        for z in (abs(zeta), zeta):
            references = [r for r, *_ in dense_concentration_cascade(z, n_mean, 3, cutoff)]
            assert len(reports) == len(references) == 2
            assert all(map(within_rounding_budget, reports, references))

    @pytest.mark.parametrize(
        "cutoff,n_mean,zeta",
        [(8, 0.05, 0.2), (8, 0.05, 0.12 + 0.16j), (14, 0.2, 0.5), (14, 0.2, 0.3 + 0.4j)],
    )
    def test_matches_dense_reference_within_the_rounding_budget(self, cutoff, n_mean, zeta):
        # at the default budget: 64 columns in one slab, and 196 in two
        self.assert_matches_dense_reference(zeta, n_mean, cutoff)

    @pytest.mark.parametrize(
        "cutoff,n_mean,zeta,slab",
        [
            (2, 1e-5, 1e-3, 256),  # one slab of the whole window
            (3, 1e-3, 0.006 + 0.008j, 256),
            (3, 1e-3, 0.01, 1),  # columns of totals 1 and 2 wider than the budget, one slab each
            (8, 0.05, 0.12 + 0.16j, 5),  # ten slabs, the last short
            (14, 0.2, 0.3 + 0.4j, 40),  # four slabs, the last square
            (26, 0.5, 0.5, 256),  # 676 columns: 253, 408 and a last 15
        ],
    )
    def test_matches_dense_reference_at_the_slab_edges(self, monkeypatch, cutoff, n_mean, zeta, slab):
        monkeypatch.setattr(fock, "_SLAB", slab)
        self.assert_matches_dense_reference(zeta, n_mean, cutoff)

    def test_matches_dense_reference_at_the_chunk_edges(self, monkeypatch):
        # the chunk edges of TestBeamSplitter's slab and chunk test, at a
        # complex amplitude
        monkeypatch.setattr(fock, "_SLAB", 2)
        monkeypatch.setattr(fock, "_ROWS", 7)
        self.assert_matches_dense_reference(0.12 + 0.16j, 0.05, 9)

    @pytest.mark.parametrize("cutoff,n_mean", [(14, 0.2), (26, 0.5)])
    def test_joint_bound_is_the_row_norm_bound_of_the_whole_difference(
        self, monkeypatch, cutoff, n_mean
    ):
        # each slab, once the step has subtracted the target from it, is
        # stitched with its mirror into the whole difference D
        slabs = []
        joint_slabs = fock._joint_slabs

        def stitching(blocks, carried, fresh):
            for start, p, q, slab in joint_slabs(blocks, carried, fresh):
                yield start, p, q, slab
                slabs.append((start, p, q, slab.copy()))

        monkeypatch.setattr(fock, "_joint_slabs", stitching)
        report = fock._cascade(0.5, n_mean, 2, cutoff)[0]
        diff = stitched_joint(slabs, cutoff)
        assert not np.any(np.isnan(diff))
        # the same entries summed in two orders: each row's c^2 squares
        # within c^2 2^-53 of the exact sum, which the square root halves,
        # and the c^2 roots within c^2 2^-53, in each computation
        whole = row_norm_bound(diff)
        assert abs(report.joint_bound - whole) <= 3 * cutoff**2 * 2.0**-53 * whole

    @pytest.mark.parametrize(
        "zeta,n_mean,cutoff",
        [(0.3, 0.2, 20), (0.6, 0.2, 20), (0.3, 0.5, 26), (1.0, 0.5, 26), (0.5, 0.8, 30),
         (0.3 + 0.4j, 0.5, 26)],
    )
    def test_joint_bound_dominates_the_exact_distance(self, zeta, n_mean, cutoff):
        # the exact distance is at most the row-norm bound (the triangle
        # inequality over the rows), which is at most the rank-Frobenius
        # bound (Cauchy-Schwarz over them), both from the dense difference
        reports = fock._cascade(zeta, n_mean, 3, cutoff)
        references = dense_concentration_cascade(zeta, n_mean, 3, cutoff)
        for report, (_, exact, frobenius) in zip(reports, references):
            assert exact <= report.joint_bound <= frobenius

    def test_a_step_forms_no_kron(self, monkeypatch):
        # the input is written block by block and the product target is
        # subtracted through the thermal weights: no np.kron in a step
        cutoff, n_mean = 14, 0.2
        expected = fock._cascade(0.5, n_mean, 2, cutoff)
        calls = []
        kron = np.kron

        def counting(a, b):
            calls.append((a, b))
            return kron(a, b)

        monkeypatch.setattr(np, "kron", counting)
        assert fock._cascade(0.5, n_mean, 2, cutoff) == expected
        assert calls == []

    @staticmethod
    def refuse_with_transposes(monkeypatch, transposed) -> None:
        # the column pass right-multiplies by each block's `.T`; `transposed`
        # replaces what that attribute returns
        class Transposed(np.ndarray):
            @property
            def T(self):
                return transposed(self.view(np.ndarray), self.total)

        blocks = fock._beam_splitter_blocks

        def patched(phi, spectra):
            out = []
            for total, (counts, u) in enumerate(blocks(phi, spectra)):
                u = u.view(Transposed)
                u.total = total
                out.append((counts, u))
            return out

        monkeypatch.setattr(fock, "_beam_splitter_blocks", patched)
        with pytest.raises(DomainError, match="the concentration step expects Hermitian operators"):
            fock._cascade(0.5, 1.0, 2, 40)

    def test_an_asymmetric_block_in_the_right_multiplication_is_refused(self, monkeypatch):
        # right-multiplying by u where u^T is due, the exponential at -phi,
        # breaks the joint output's symmetry; the gate sees it in the first
        # slab's square
        self.refuse_with_transposes(monkeypatch, lambda u, total: u)

    def test_a_wrong_sign_block_fails_the_square_gate(self, monkeypatch):
        # one block of the column pass with the wrong sign, total 1: the
        # square's entries between totals 0 and 1 change sign on one side
        self.refuse_with_transposes(monkeypatch, lambda u, total: -u.T if total == 1 else u.T)

    def test_the_gate_reads_each_slab_square_above_the_gate_free_norm(self, monkeypatch):
        # the gate reads the square D[S, S] of each slab, its first rows, once
        # the step has subtracted the target, where the square's norm is above
        # the gate-free norm, and no other: at cutoff 14 in slabs of at most
        # 40 cutoff^2 entries, the last square, far in the tail, is skipped
        monkeypatch.setattr(fock, "_SLAB", 40)
        gated, expected = [], []
        monkeypatch.setattr(fock, "require_hermitian", lambda d, caller: gated.append(d.copy()))
        joint_slabs = fock._joint_slabs
        count = 0

        def recording(blocks, carried, fresh):
            nonlocal count
            for start, p, q, slab in joint_slabs(blocks, carried, fresh):
                yield start, p, q, slab
                count += 1
                square = slab[: slab.shape[1]]
                if np.linalg.norm(square) > fock._GATE_FREE_NORM:
                    expected.append(square.copy())

        monkeypatch.setattr(fock, "_joint_slabs", recording)
        fock._cascade(0.5, 0.2, 2, 14)
        assert 0 < len(expected) < count == 4
        assert len(gated) == len(expected)
        assert all(np.array_equal(g, x) for g, x in zip(gated, expected))

    @pytest.mark.parametrize("which", ["carried", "fresh"])
    def test_a_density_that_is_not_exactly_symmetric_is_refused(self, which):
        # the step reads one triangle, so it needs both inputs symmetric to
        # the bit: one ulp off in one off-diagonal entry is refused
        cutoff, n_mean = 14, 0.2
        fresh = fock.displaced_thermal_density(0.5, n_mean, cutoff)
        densities = {"carried": fresh.copy(), "fresh": fresh.copy()}
        densities[which][3, 2] = np.nextafter(densities[which][3, 2], 1.0)
        target_first = fock.displaced_thermal_density(math.sqrt(2) * 0.5, n_mean, cutoff)
        with pytest.raises(DomainError, match="exactly symmetric densities"):
            fock._concentration_step(
                math.pi / 4, fock._beam_splitter_spectra(cutoff), densities["carried"],
                densities["fresh"], target_first, fock.thermal_density(n_mean, cutoff),
            )

    def test_overflowing_amplitude_is_refused(self):
        # sqrt(3) 1e200 squared overflows float64; the budget's search names it
        with pytest.raises(PreconditionError, match="no finite cutoff .* at amplitude 1.73205e\\+200"):
            fock.verify_concentration_cascade(1e200, 1.0)

    @pytest.mark.parametrize("zeta,n_mean,n_copies", [(0.5, 1.0, 3), (0.5, 0.5, 2), (1.0, 1.5, 2)])
    def test_the_marginals_are_exactly_symmetric(self, monkeypatch, zeta, n_mean, n_copies):
        # each marginal is summed from its lower triangle and mirrored, so it
        # equals its transpose to the bit; both of every step reach trace_distance
        marginals = []
        monkeypatch.setattr(fock, "trace_distance", lambda a, b: marginals.append(a) or 0.0)
        fock.verify_concentration_cascade(zeta, n_mean, n_copies=n_copies)
        assert len(marginals) == 2 * (n_copies - 1)
        assert all(np.array_equal(m, m.T) for m in marginals)


class TestNumericRld:
    def test_2param_matches_closed_inverse(self):
        theta = ThetaPoint(0.0, 0.0, 1.0)
        fisher = numeric_rld_fisher(theta, 40)[:2, :2]
        assert np.max(np.abs(np.linalg.inv(fisher) - rld_inverse_2param(1.0))) < 1e-3

    def test_3param_photon_entry(self):
        theta = ThetaPoint(0.0, 0.0, 1.0)
        fisher = numeric_rld_fisher(theta, fock.cutoff_for(1.0))
        inverse = np.linalg.inv(fisher)
        assert inverse[2, 2].real == pytest.approx(2.0, abs=1e-3)
        assert np.max(np.abs(inverse - rld_inverse_3param(1.0))) < 1e-3

    def test_hermitian(self):
        theta = ThetaPoint.from_zeta(0.3 + 0.4j, 0.5)
        fisher = numeric_rld_fisher(theta, fock.cutoff_for(0.5, 0.5))
        assert np.max(np.abs(fisher - fisher.conj().T)) < 1e-8

    def test_displacement_invariance(self):
        base = numeric_rld_fisher(ThetaPoint(0.0, 0.0, 1.0), 30)[:2, :2]
        moved = numeric_rld_fisher(ThetaPoint.from_zeta(0.3 + 0.4j, 1.0), 30)[:2, :2]
        assert np.max(np.abs(base - moved)) < 1e-4

    @pytest.mark.parametrize(
        "zeta,n_mean,cutoff", [(0.5, 1.0, 27), (0.3 + 0.4j, 0.5, 17), (0.5, 0.5, 30)]
    )
    def test_matches_central_differences(self, zeta, n_mean, cutoff):
        theta = ThetaPoint.from_zeta(zeta, n_mean)
        exact = numeric_rld_fisher(theta, cutoff)
        assert np.max(np.abs(exact - rld_fisher_central_differences(theta, cutoff))) < 1e-8

    def test_deep_cutoff_is_accurate(self):
        # condition ~ 2^44 at this cutoff; the solve stays accurate, and the
        # truncation error of the family is below 1e-10
        fisher = numeric_rld_fisher(ThetaPoint(0.0, 0.0, 1.0), 45)
        assert np.max(np.abs(np.linalg.inv(fisher) - rld_inverse_3param(1.0))) < 1e-9


    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("zeta", [0j, 0.3 + 0.4j, 1.2, 2.0])
    def test_reference_agrees_with_the_sums_at_zeta_0(self, zeta, n_mean):
        # displacement covariance: the dense matrix at zeta, where it has
        # converged (twice the tail-rule cutoff), inverts to the zeta = 0 sums;
        # the worst case is 1.5e-7 at zeta = 2, N = 1
        cutoff = 2 * fock.cutoff_for(n_mean, abs(zeta))
        reference = np.linalg.inv(numeric_rld_fisher(ThetaPoint.from_zeta(zeta, n_mean), cutoff))
        inverse = fock.truncated_rld_inverse(n_mean)
        assert np.max(np.abs(reference - inverse)) < 1e-6 * np.max(np.abs(inverse))


class TestTruncatedRldInverse:
    @staticmethod
    def relative_deviations(n_mean):
        inverse = fock.truncated_rld_inverse(n_mean)
        return [
            np.max(np.abs(block - closed)) / np.max(np.abs(closed))
            for block, closed in (
                (inverse[:2, :2], rld_inverse_2param(n_mean)),
                (inverse, rld_inverse_3param(n_mean)),
            )
        ]

    def test_matches_the_closed_forms_from_subnormal_to_large_n(self):
        # within the check's 1e-9 everywhere the sums converge; 1.3e-13 measured
        grid = list(np.logspace(-14, 3, 341)) + [5e-324, 1e-320, 1e-300, 1e-200]
        worst = max(max(self.relative_deviations(n)) for n in grid)
        assert worst < fock.RLD_TOL == 1e-9

    def test_structure(self):
        inverse = fock.truncated_rld_inverse(0.5)
        assert inverse.shape == (3, 3) and inverse.dtype == np.complex128
        assert np.array_equal(inverse, inverse.conj().T)
        assert np.all(inverse[:2, 2] == 0) and np.all(inverse[2, :2] == 0)

    @pytest.mark.parametrize("n_mean", [1e-14, 0.5, 2.4, 1e4])
    def test_sums_at_the_budget_edge_are_within_their_stated_remainders(self, n_mean):
        # the inverse gives the sums back: S / ((N + 1) / 2) = (N + 1/2) / a and
        # V / (N (N + 1)) = N (N + 1) / inverse[2, 2]; c 2^-53 is the sums'
        # rounding and four more roundings are those of the closed forms
        c = 4 * fock.cutoff_for(n_mean)
        r = n_mean / (n_mean + 1.0)
        inverse = fock.truncated_rld_inverse(n_mean)
        rounding = (c + 4) * 2.0**-53
        s_remainder = r ** (c - 1) * (c + n_mean) / (n_mean + 1.0)
        v_remainder = r**c * (1.0 + c * c / (n_mean * (n_mean + 1.0)))
        assert abs((n_mean + 0.5) / inverse[0, 0].real - 1.0) <= s_remainder + rounding
        assert abs(n_mean * (n_mean + 1.0) / inverse[2, 2].real - 1.0) <= v_remainder + rounding

    def test_cap_refuses_before_allocating(self):
        cutoff = 4 * fock.cutoff_for(1e17)
        tracemalloc.start()
        try:
            message = f"^the RLD check at N = 1e\\+17 needs cutoff {cutoff}, above its cap {2**20}$"
            with pytest.raises(PreconditionError, match=message):
                fock.truncated_rld_inverse(1e17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10


class TestPovmProbabilities:
    def test_heterodyne_center_value(self):
        rho = fock.thermal_density(1.0, 30)
        assert fock.heterodyne_probability_density(rho, 0j) == pytest.approx(
            1.0 / (2.0 * math.pi), abs=1e-9
        )

    def test_ranges(self):
        rho = fock.displaced_thermal_density(0.4 + 0.1j, 0.8, fock.cutoff_for(0.8, 2.5))
        for alpha in (0j, 0.5 + 0.5j, -1.0j, 2.0 + 0j):
            q = fock.heterodyne_probability_density(rho, alpha)
            assert 0.0 <= q <= 1.0 / math.pi + 1e-12
        photon = np.diag(rho).real
        assert np.all((0.0 <= photon) & (photon <= 1.0))


def exact_tails(n_mean: float, mu: float, cutoffs: list[int]) -> list[float]:
    """P(X >= cutoff) for each cutoff, X the photon count of a displaced thermal state.

    From the Laguerre pmf N^n / (N+1)^(n+1) e^{-mu/(N+1)} L_n(-mu / (N (N+1))),
    written as e^{-mu/(N+1)} / (N+1) sum_k C(n, k) N^(n-k) mu^k / ((N+1)^(n+k) k!):
    the terms are all positive and summed in logs, so it holds at N = 1e-300.
    A tail above 1e-3 is 1 minus the pmf below the cutoff; a smaller one is
    the pmf summed from the cutoff over the next 500 counts, which cover it
    to 1e-13 of itself for N up to 10, the largest N that needs them here.
    """
    if mu == 0.0:
        return [(n_mean / (n_mean + 1.0)) ** c for c in cutoffs]
    top = max(cutoffs) + 500
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, top + 1)))])
    n, k = np.arange(top)[:, None], np.arange(top)[None, :]
    above = k > n
    n_k = np.where(above, 0, n - k)
    terms = (log_fact[n] - log_fact[np.where(above, 0, k)] - log_fact[n_k] - log_fact[k]
             + n_k * math.log(n_mean) + k * math.log(mu) - (n + k) * math.log1p(n_mean))
    terms[above] = -np.inf
    peak = terms.max(axis=1, keepdims=True)
    log_pmf = peak[:, 0] + np.log(np.exp(terms - peak).sum(axis=1))
    pmf = np.exp(log_pmf - mu / (n_mean + 1.0) - math.log1p(n_mean))
    tails = []
    for c in cutoffs:
        complement = 1.0 - math.fsum(pmf[:c])
        upper = pmf[c:]
        if complement <= 1e-3:
            # far above the mean the terms fall by a ratio r that shrinks toward
            # N / (N + 1), so what is left beyond the last is at most r / (1 - r) of it
            r = upper[-1] / upper[-2] if upper[-2] > 0 else 0.0
            assert r < 1.0 and upper[-1] * r / (1.0 - r) <= 1e-13 * upper.sum()
        tails.append(complement if complement > 1e-3 else math.fsum(upper))
    return tails


def meets_budget(n_mean: float, amplitude: float, cutoff: int) -> bool:
    """The truncation budget of `fock.cutoff_for`, as its docstring states it."""
    mu = amplitude * amplitude
    vacuum_loss = 2.0 * math.sqrt(fock.tail(0.0, mu, cutoff)) / (n_mean + 1.0)
    return fock.tail(n_mean, mu, cutoff) <= 1e-8 and vacuum_loss <= 1e-7


def bisecting_tail(n_mean: float, mu: float, cutoff: int) -> float:
    """The reference for `fock.tail`: the same bound, minimised by 60 halvings of log s.

    The log bound is convex in u = log s, so its minimiser is where its
    slope s (mu / d^2 + N / d) - cutoff changes sign, with d = 1 - N (s - 1);
    this bisects for it on (0, min(log(cutoff / mu), log1p(1 / N))), and at
    N = 0 takes the Poisson minimiser s = cutoff / mu.  It raises where
    mu / cutoff underflows at N = 0, and near the pole, where
    1 - N (s - 1) cancels, its precision rests on the halving count.
    """
    if mu == 0.0:
        return math.exp(-cutoff * math.log1p(1.0 / n_mean)) if n_mean > 0 else 0.0
    if cutoff <= mu + n_mean:
        return 1.0
    if n_mean == 0.0:
        exponent = cutoff - mu + cutoff * math.log(mu / cutoff)
    else:
        low, high = 0.0, min(math.log(cutoff / mu), math.log1p(1.0 / n_mean))
        for _ in range(60):
            u = (low + high) / 2.0
            t = math.expm1(u)
            d = 1.0 - n_mean * t
            if d > 0.0 and (t + 1.0) * (mu + n_mean * d) < cutoff * d * d:
                low = u
            else:
                high = u
        t = math.expm1(low)
        exponent = mu * t / (1.0 - n_mean * t) - math.log1p(-n_mean * t) - cutoff * low
    return math.exp(min(exponent, 0.0))


def decimal_minimum(n_mean: float, mu: float, cutoff: int) -> float:
    """min_s E[s^X] / s^cutoff in 60-digit decimal arithmetic, by 200 halvings of log s.

    Independent of `fock.tail`'s closed form: it bisects for the sign
    change of the slope, as `bisecting_tail` does, with 60 digits, so
    1 - N (s - 1) keeps its digits up to the pole at any N.
    """
    with decimal.localcontext() as context:
        context.prec = 60
        n, m, c = decimal.Decimal(n_mean), decimal.Decimal(mu), decimal.Decimal(cutoff)

        def slope_is_negative(u):
            s = u.exp()
            d = 1 - n * (s - 1)
            return s * (m / (d * d) + n / d) < c

        low, high = decimal.Decimal(0), (c / m).ln()
        if n:
            high = min(high, (1 + 1 / n).ln())
        for _ in range(200):
            middle = (low + high) / 2
            low, high = (middle, high) if slope_is_negative(middle) else (low, middle)
        t = low.exp() - 1
        d = 1 - n * t
        return float((m * t / d - d.ln() - c * low).exp())


def log_uniform(low: float, high: float):
    """Floats in [low, high], uniform in their logarithm."""
    return st.floats(math.log(low), math.log(high)).map(lambda u: min(max(math.exp(u), low), high))


@st.composite
def tail_inputs(draw):
    """(N, mu, cutoff): N 0 or in [5e-324, 1e200], mu in [1e-300, 1.4e308], cutoff in (mu + N, 1e30]."""
    n_mean = draw(st.one_of(st.just(0.0), log_uniform(5e-324, 1e200)))
    mu = draw(log_uniform(1e-300, 1.4e308))
    assume(mu + n_mean < 1e30)
    return n_mean, mu, draw(log_uniform(mu + n_mean, 1e30).filter(lambda c: c > mu + n_mean))


class TestTail:
    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(inputs=tail_inputs())
    @example(inputs=(5e-324, 1e-300, 1e30))
    @example(inputs=(1e-300, 1e-300, 1e30))
    @example(inputs=(0.0, 1e-300, 1e30))
    def test_never_looser_than_the_bisection(self, inputs):
        # no input raises, every bound is a probability, and none is above
        # the bisected one by more than rounding; the bisection itself
        # raises where mu / cutoff underflows at N = 0
        bound = fock.tail(*inputs)
        assert math.isfinite(bound) and 0.0 <= bound <= 1.0
        try:
            reference = bisecting_tail(*inputs)
        except ValueError:
            assert inputs[0] == 0.0 and inputs[1] / inputs[2] == 0.0
            return
        assert bound <= reference * (1.0 + 1e-12), (inputs, bound, reference)

    def test_where_a_scale_of_the_cutoff_underflows(self):
        # N / cutoff and mu / cutoff both underflow here, which a scale of
        # the cutoff alone turns into a division by zero; the bound reads 0,
        # where the bisection reads 1 and 0
        assert fock.tail(5e-324, 1e-300, 1e30) == 0.0 < bisecting_tail(5e-324, 1e-300, 1e30) == 1.0
        assert fock.tail(1e-300, 1e-300, 1e30) == 0.0 == bisecting_tail(1e-300, 1e-300, 1e30)

    @pytest.mark.parametrize(
        "n_mean,mu,cutoff",
        [
            (1.0, 0.75, 40),
            (0.5, 0.5, 25),
            (1e-14, 0.5, 13),
            (2.0, 0.5, 62),
            (1e-300, 1.0, 30),
            (3.0, 900.0, 1200),
            (1e17, 0.5, 2253578524506428800),
            (1e17, 2.25, 2253578524506428800),
        ],
    )
    def test_matches_a_60_digit_minimum(self, n_mean, mu, cutoff):
        assert fock.tail(n_mean, mu, cutoff) == pytest.approx(decimal_minimum(n_mean, mu, cutoff), rel=2e-13)

    def test_never_below_the_exact_tail(self):
        # N from 1e-300 to 1e3, amplitude 0 to 30, cutoffs up to 200; the
        # bound is at least the exact tail, within the reference's rounding
        ratios = []
        for n_mean in (1e-300, 1e-14, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 1e3):
            for amplitude in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
                mu = amplitude * amplitude
                cutoffs = [2, 5, 10, 20, 40, 70, 100, 150, 200]
                for cutoff, exact in zip(cutoffs, exact_tails(n_mean, mu, cutoffs)):
                    bound = fock.tail(n_mean, mu, cutoff)
                    assert bound >= exact * (1.0 - 1e-9), (n_mean, amplitude, cutoff, bound, exact)
                    if exact > 1e-300:
                        ratios.append(bound / exact)
        # the thermal end is exact; elsewhere the bound is looser
        assert 1.0 - 1e-9 <= min(ratios) and max(ratios) < 1e4

    def test_the_ends_are_exact(self):
        for n_mean, cutoff in ((1e-14, 2), (0.5, 17), (1.0, 27), (1e17, 40)):
            assert fock.tail(n_mean, 0.0, cutoff) == pytest.approx(
                (n_mean / (n_mean + 1.0)) ** cutoff, rel=1e-13
            )
        assert fock.tail(0.0, 0.0, 2) == 0.0
        for mu, cutoff in ((0.5, 13), (2.0, 10), (100.0, 150)):
            poisson = math.exp(-mu) * (math.e * mu / cutoff) ** cutoff
            assert fock.tail(0.0, mu, cutoff) == pytest.approx(poisson, rel=1e-12)
            # the minimiser meets the Poisson end as N falls
            assert fock.tail(1e-300, mu, cutoff) == pytest.approx(poisson, rel=1e-9)

    def test_near_pure_tail_is_the_poisson_bound(self):
        assert fock.tail(1e-14, 0.5, 13) == pytest.approx(1.1e-13, rel=0.1)

    def test_is_one_up_to_the_mean(self):
        assert fock.tail(1.0, 2.0, 3) == 1.0 == fock.tail(0.0, 5.0, 5)
        # and where the exponent is its terms' rounding: cutoff / mu is
        # 1 + 2^-52 here, and the terms of order 1e4 cancel to within about
        # 1e-12 of the exponent, -1.3e-12; capped at 0, the bound reads 1
        assert fock.tail(0.0, 1e20, 10**20 + 16384) == 1.0


class TestCutoffRule:
    def test_search_matches_linear_scan(self):
        # the least cutoff that meets the budget, stepped up from 2
        for n_mean in (1e-300, 1e-14, 0.01, 0.25, 0.5, 1.0, 3.0):
            for amplitude in (0.0, 1e-3, 0.5, 1.0, 1.2247, 2.5, 6.0):
                d = 2
                while not meets_budget(n_mean, amplitude, d):
                    d += 1
                assert fock.cutoff_for(n_mean, amplitude) == d, (n_mean, amplitude)

    def test_the_oracle_workload_and_the_rld_start(self):
        # oracle-check --deep, and --n-mean 0.5: the cascade at sqrt(n) 0.5,
        # the heterodyne grid at 0.5; the RLD check starts at zero amplitude
        assert [fock.cutoff_for(1.0, math.sqrt(3.0) * 0.5), fock.cutoff_for(1.0, 0.5)] == [40, 36]
        assert [fock.cutoff_for(0.5, math.sqrt(2.0) * 0.5), fock.cutoff_for(0.5, 0.5)] == [25, 24]
        assert [fock.cutoff_for(1.0), fock.cutoff_for(0.5)] == [27, 17]

    def test_large_amplitude_search_is_minimal(self):
        amplitude = 1e5
        d = fock.cutoff_for(1.0, amplitude)
        assert 1e10 < d < 1.1e10
        assert meets_budget(1.0, amplitude, d) and not meets_budget(1.0, amplitude, d - 1)

    def test_huge_n_mean_needs_a_finite_cutoff(self):
        # N/(N+1) rounds to 1 here; the search still returns the needed cutoff
        d = fock.cutoff_for(1e17, 0.0)
        assert 1.8e18 < d < 1.9e18 and meets_budget(1e17, 0.0, d)
        with pytest.raises(PreconditionError, match="no finite cutoff .* at n_mean 1e\\+308"):
            fock.cutoff_for(1e308, 0.0)
        with pytest.raises(PreconditionError, match="no finite cutoff .* at amplitude 1e\\+200"):
            fock.cutoff_for(1.0, 1e200)

    @pytest.mark.parametrize(
        "n_mean,amplitude", [(1.0, 1e10), (1e-14, 1e20), (1.0, 1e100), (3.0, 1.2e154)]
    )
    def test_huge_finite_amplitude_needs_a_cutoff_above_its_square(self, n_mean, amplitude):
        # cutoff / mu rounds to within a few ulps of 1 here, where the tail's
        # exponent once overflowed; the search still finds a cutoff
        assert fock.cutoff_for(n_mean, amplitude) > amplitude * amplitude

    def test_a_cutoff_beyond_float64_is_refused(self):
        # mu is finite, but the cutoff the search reaches does not convert to float64
        match = "no finite cutoff .* at n_mean 1e\\+305 and amplitude 1.2e\\+154"
        with pytest.raises(PreconditionError, match=match):
            fock.cutoff_for(1e305, 1.2e154)

    def test_limit_refuses_before_allocating(self):
        # the cascade's budgeted cutoffs at amplitude sqrt(2) 0.5
        amplitude = math.sqrt(2.0) * 0.5
        assert fock.cutoff_for(2.0, amplitude) == 62 <= fock.MAX_CUTOFF
        assert fock.cutoff_for(3.0, amplitude) == 85
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="cutoff of 85, above the limit of 70 "):
                fock.verify_concentration_cascade(0.5, 3.0, n_copies=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_the_readme_ranges_are_the_budgets(self):
        # the figures of the README's "Supported ranges", recomputed from
        # cutoff_for and MAX_CUTOFF; n copies run the cascade at sqrt(n) |zeta|,
        # n = 2 by default and 3 with --deep
        def needs(n_mean, zeta, n_copies=2):
            return fock.cutoff_for(n_mean, math.sqrt(n_copies) * zeta)

        def largest(accepted):
            low, high = 0.01, 10.0
            for _ in range(40):
                middle = (low + high) / 2
                low, high = (middle, high) if accepted(middle) else (low, middle)
            return low

        def n_mean_limit(zeta, n_copies):
            return largest(lambda n: needs(n, zeta, n_copies) <= fock.MAX_CUTOFF)

        def zeta_limit(n_copies):
            return largest(lambda z: needs(1.0, z, n_copies) <= fock.MAX_CUTOFF)

        phrases = [
            f"The largest accepted `N` is about {n_mean_limit(0.5, 2):.2f} at `zeta = 0.5` "
            f"({n_mean_limit(0.5, 3):.2f} with `--deep`) and about {n_mean_limit(2.0, 2):.2f} at "
            f"`|zeta| = 2` ({n_mean_limit(2.0, 3):.2f} with `--deep`); at the default `N = 1` the "
            f"largest `|zeta|` is about {zeta_limit(2):.1f} ({zeta_limit(3):.1f} with `--deep`).",
            f"`N = 3` at `zeta = 0.5` needs cutoff {needs(3.0, 0.5)} and is refused with that number.",
            f"At the defaults the cascade's cutoff is {needs(1.0, 0.5)}, {needs(1.0, 0.5, 3)} with "
            f"`--deep` and {needs(0.5, 0.5)} at `--n-mean 0.5`, and "
            f"`fock.verify_concentration_cascade` at `n_copies = 10` needs {needs(1.0, 0.5, 10)}.",
            f"(`--zeta-re 1e5` needs cutoff {needs(1.0, 1e5)})",
        ]
        readme = " ".join((pathlib.Path(__file__).parents[1] / "README.md").read_text().split())
        assert [phrase for phrase in phrases if phrase not in readme] == []


class TestOracleGrid:
    def test_every_check_passes_or_the_cascade_refuses(self):
        # N x |zeta| x n_copies: every record of oracle_checks passes, or the
        # cascade's gate refuses (exit 2); the heterodyne grid's cutoff is at
        # most the cascade's.  Cells whose cutoff is above 50 are left out for
        # time (a cell up to 50 takes at most about 0.2 s), but for the two
        # with the largest concentration values, 5.8e-7 and 5.6e-7, of a scan
        # up to every N's limit (BENCH_26.json)
        edges = [(0.25, 2.5, 2), (0.275, 2.625, 3)]
        cells = [
            (n_mean, modulus, n_copies)
            for n_mean in (1e-14, 1e-8, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0)
            for modulus in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)
            for n_copies in (2, 3)
        ]
        ran = refused = 0
        for n_mean, modulus, n_copies in dict.fromkeys(cells + edges):
            cutoff = fock.cutoff_for(n_mean, math.sqrt(n_copies) * modulus)
            assert fock.cutoff_for(n_mean, modulus) <= cutoff
            if cutoff > fock.MAX_CUTOFF:
                with pytest.raises(PreconditionError, match=f"cutoff of {cutoff}, above"):
                    fock.oracle_checks(modulus, n_mean, n_copies)
                refused += 1
            elif cutoff <= 50 or (n_mean, modulus, n_copies) in edges:
                checks = fock.oracle_checks(modulus, n_mean, n_copies)
                failing = [c["name"] for c in checks if not c["pass"]]
                assert failing == [], (n_mean, modulus, n_copies, failing)
                assert all(c["cutoff"] == cutoff for c in checks if "cutoff" in c)
                ran += 1
        assert ran > 40 and refused > 5
