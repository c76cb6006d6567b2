import math
import tracemalloc

import numpy as np
import pytest

from dtslab import fock
from dtslab.bounds import ThetaPoint, rld_inverse_2param, rld_inverse_3param
from dtslab.errors import DomainError, PreconditionError


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


class TestAnnihilation:
    def test_matrix_elements_d3(self):
        expected = np.array([[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]])
        assert np.allclose(fock.annihilation(3), expected)

    def test_number_diagonal(self):
        a = fock.annihilation(6)
        assert np.allclose(np.diag(a.conj().T @ a).real, np.arange(6))

    def test_commutator_below_edge(self):
        d = 8
        a = fock.annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[: d - 1, : d - 1], np.eye(d - 1), atol=1e-12)

    def test_rejects_small_cutoff(self):
        with pytest.raises(DomainError):
            fock.annihilation(1)


class TestThermalDensity:
    def test_n1_d2(self):
        rho = fock.thermal_density(1.0, 2)
        assert np.allclose(rho, np.diag([0.5, 0.25]))
        assert fock.thermal_tail(1.0, 2) == pytest.approx(0.25, abs=1e-15)

    def test_small_n_is_vacuum(self):
        rho = fock.thermal_density(1e-6, 8)
        vacuum = np.zeros((8, 8))
        vacuum[0, 0] = 1.0
        assert np.max(np.abs(rho - vacuum)) < 1e-6

    @pytest.mark.parametrize("n_mean,cutoff", [(0.5, 17), (1.0, 30), (2.0, 46)])
    def test_trace_plus_tail_is_one(self, n_mean, cutoff):
        rho = fock.thermal_density(n_mean, cutoff)
        assert np.trace(rho).real + fock.thermal_tail(n_mean, cutoff) == pytest.approx(
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

    def test_warns_on_large_displacement(self):
        with pytest.warns(UserWarning):
            fock.displacement_operator(3.0, 8)


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
        deficit_bound = fock.thermal_tail(n_mean, cutoff) + fock.displaced_thermal_tail_bound(
            n_mean, abs(zeta), cutoff
        )
        assert trace >= 1.0 - deficit_bound
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_tail_bound_dominates_measured_deficit(self):
        for zeta, n_mean, cutoff in ((0.5, 0.5, 17), (1.0, 0.5, 17), (1.0, 2.0, 46)):
            rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
            deficit = 1.0 - np.trace(rho).real
            bound = fock.thermal_tail(n_mean, cutoff) + fock.displaced_thermal_tail_bound(
                n_mean, abs(zeta), cutoff
            )
            assert 0.0 <= deficit <= bound

    def test_tail_bound_reduces_to_thermal_at_zero_amplitude(self):
        assert fock.displaced_thermal_tail_bound(1.0, 0.0, 30) == fock.thermal_tail(1.0, 30)

    @pytest.mark.parametrize(
        "zeta,dtype",
        [(0.5, np.float64), (-0.5 + 0j, np.float64), (0.3 + 0.4j, np.complex128), (0.4j, np.complex128)],
    )
    def test_dtype_follows_the_amplitude(self, zeta, dtype):
        assert fock.thermal_density(1.0, 8).dtype == np.float64
        assert fock.displacement_operator(zeta, 8).dtype == dtype
        assert fock.displaced_thermal_density(zeta, 1.0, 8).dtype == dtype


class TestBeamSplitter:
    def test_zero_angle_is_identity(self):
        assert np.allclose(fock.beam_splitter(0.0, 6), np.eye(36))

    def test_first_cascade_angle_is_pi_over_4(self):
        assert fock.concentration_angle(1) == math.pi / 4.0

    def test_cascade_angles(self):
        for i in (2, 3, 7):
            assert fock.concentration_angle(i) == pytest.approx(
                math.atan(1.0 / math.sqrt(i)), abs=0
            )

    def test_conserves_total_photon_number(self):
        d = 8
        u = fock.beam_splitter(0.6, d)
        n_tot = np.kron(fock.number_operator(d), np.eye(d)) + np.kron(
            np.eye(d), fock.number_operator(d)
        )
        assert np.max(np.abs(u @ n_tot - n_tot @ u)) < 1e-10

    def test_unitary_on_retained_blocks(self):
        d = 8
        u = fock.beam_splitter(fock.concentration_angle(1), d)
        totals = np.add.outer(np.arange(d), np.arange(d)).ravel()
        keep = totals <= d - 1
        gram = u.conj().T @ u
        assert np.max(np.abs(gram[np.ix_(keep, keep)] - np.eye(int(keep.sum())))) < 1e-10

    @pytest.mark.parametrize("cutoff", [3, 6, 12, 20])
    @pytest.mark.parametrize("phi", [0.0, math.pi / 4, -0.6, 2.0])
    def test_matches_dense_expm(self, cutoff, phi):
        expm = pytest.importorskip("scipy.linalg").expm
        a = fock.annihilation(cutoff)
        generator = np.kron(a.conj().T, a) - np.kron(a, a.conj().T)
        u = fock.beam_splitter(phi, cutoff)
        assert u.dtype == np.float64 and u.shape == (cutoff**2, cutoff**2)
        assert np.max(np.abs(u - expm(phi * generator))) < 1e-13

    @pytest.mark.parametrize("phi", [math.pi / 4, 2.0])
    def test_orthogonal_on_whole_window(self, phi):
        # the truncated blocks (total >= cutoff) included: the exponential of
        # the truncated antisymmetric generator is still orthogonal
        d = 10
        u = fock.beam_splitter(phi, d)
        assert np.max(np.abs(u.T @ u - np.eye(d * d))) < 1e-13
        assert np.max(np.abs(u @ u.T - np.eye(d * d))) < 1e-13

    def test_photon_blocks_partition_the_window(self):
        d = 5
        blocks = fock._photon_blocks(d)
        assert len(blocks) == 2 * d - 1
        assert [len(b) for b in blocks] == [1, 2, 3, 4, 5, 4, 3, 2, 1]
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(d * d))
        for total, idx in enumerate(blocks):
            m, n = np.divmod(idx, d)
            assert np.all(m + n == total) and np.all(np.diff(m) == 1)

    def test_block_conjugation_matches_dense(self):
        d = 9
        rng = np.random.default_rng(5)
        x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        x = x + x.conj().T
        u = fock.beam_splitter(fock.concentration_angle(2), d)
        assert np.max(np.abs(fock._conjugate_by_blocks(u, x) - u @ x @ u.T)) < 1e-12

    def test_block_conjugation_keeps_a_real_operator_real(self):
        d = 9
        x = np.random.default_rng(6).normal(size=(d * d, d * d))
        x = x + x.T
        u = fock.beam_splitter(fock.concentration_angle(2), d)
        conjugated = fock._conjugate_by_blocks(u, x)
        assert conjugated.dtype == np.float64
        assert np.max(np.abs(conjugated - u @ x @ u.T)) < 1e-12


class TestPartialTrace:
    def test_product_state(self):
        rho = fock.displaced_thermal_density(0.3, 0.5, 6)
        sigma = fock.thermal_density(1.0, 6)
        joint = np.kron(rho, sigma)
        assert np.allclose(fock.partial_trace(joint, "first"), rho * np.trace(sigma))
        assert np.allclose(fock.partial_trace(joint, "second"), sigma * np.trace(rho))

    def test_correlated_diagonal_marginals(self):
        # (|00><00| + |11><11|)/2 on two qubits: both marginals are I/2
        joint = np.zeros((4, 4), dtype=complex)
        joint[0, 0] = joint[3, 3] = 0.5
        assert np.allclose(fock.partial_trace(joint, "first"), np.eye(2) / 2)
        assert np.allclose(fock.partial_trace(joint, "second"), np.eye(2) / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        joint = a @ a.conj().T
        assert np.trace(fock.partial_trace(joint, "first")) == pytest.approx(
            np.trace(joint), abs=1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            fock.partial_trace(np.eye(5), "first")
        with pytest.raises(DomainError):
            fock.partial_trace(np.eye(4), "both")


class TestConcentration:
    def test_zero_amplitude_gives_thermal_marginals(self):
        report = fock.verify_concentration_cascade(0j, 1.0, n_copies=2, cutoff=27)[0]
        assert report.dist_first < 1e-6
        assert report.dist_second < 1e-6

    def test_spec_point_at_cutoff_30(self):
        report = fock.verify_concentration_cascade(0.5, 0.5, n_copies=2, cutoff=30)[0]
        assert report.phi == math.pi / 4.0
        assert report.dist_first < 1e-6
        assert report.dist_second < 1e-6
        assert report.dist_joint < 1e-5

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
        # a complex amplitude keeps the joint output complex (the complex
        # eigensolver path); a phase rotation leaves every distance unchanged
        report = fock.verify_concentration_cascade(0.3 + 0.4j, 0.5, n_copies=2)[0]
        real = fock.verify_concentration_cascade(0.5, 0.5, n_copies=2)[0]
        assert report.cutoff == real.cutoff
        assert report.dist_first < 1e-7 and report.dist_second < 1e-7
        assert report.dist_joint < 1e-6
        for name in ("dist_first", "dist_second", "dist_joint"):
            assert getattr(report, name) == pytest.approx(getattr(real, name), abs=1e-14)

    def test_complex_amplitude_cascade(self):
        reports = fock.verify_concentration_cascade(0.3 + 0.4j, 0.5, n_copies=3)
        real = fock.verify_concentration_cascade(0.5, 0.5, n_copies=3)
        assert len(reports) == 2
        for report, ref in zip(reports, real):
            assert report.phi == ref.phi
            assert report.dist_first < 1e-6 and report.dist_second < 1e-6
            for name in ("dist_first", "dist_second", "dist_joint"):
                assert getattr(report, name) == pytest.approx(getattr(ref, name), abs=1e-14)

    def test_real_amplitude_memory(self):
        # float64 operators for a real amplitude: 1600-side two-mode operators
        # of 20 MB each, half the complex size
        tracemalloc.start()
        try:
            fock.verify_concentration_cascade(0.5, 1.0, n_copies=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150 * 2**20

    def test_tail_precondition_names_required_cutoff(self):
        with pytest.raises(PreconditionError, match="use cutoff >="):
            fock.verify_concentration_cascade(0.5, 2.0, n_copies=2, cutoff=5)


class TestNumericRld:
    def test_2param_matches_closed_inverse(self):
        theta = ThetaPoint(0.0, 0.0, 1.0)
        fisher = fock.numeric_rld_fisher(theta, 40)[:2, :2]
        assert np.max(np.abs(np.linalg.inv(fisher) - rld_inverse_2param(1.0))) < 1e-3

    def test_3param_photon_entry(self):
        theta = ThetaPoint(0.0, 0.0, 1.0)
        fisher = fock.numeric_rld_fisher(theta, fock.cutoff_for(1.0))
        inverse = np.linalg.inv(fisher)
        assert inverse[2, 2].real == pytest.approx(2.0, abs=1e-3)
        assert np.max(np.abs(inverse - rld_inverse_3param(1.0))) < 1e-3

    def test_hermitian(self):
        theta = ThetaPoint.from_zeta(0.3 + 0.4j, 0.5)
        fisher = fock.numeric_rld_fisher(theta, fock.cutoff_for(0.5, 0.5))
        assert np.max(np.abs(fisher - fisher.conj().T)) < 1e-8

    def test_displacement_invariance(self):
        base = fock.numeric_rld_fisher(ThetaPoint(0.0, 0.0, 1.0), 30)[:2, :2]
        moved = fock.numeric_rld_fisher(ThetaPoint.from_zeta(0.3 + 0.4j, 1.0), 30)[:2, :2]
        assert np.max(np.abs(base - moved)) < 1e-4

    @pytest.mark.parametrize(
        "zeta,n_mean,cutoff", [(0.5, 1.0, 27), (0.3 + 0.4j, 0.5, 17), (0.5, 0.5, 30)]
    )
    def test_matches_central_differences(self, zeta, n_mean, cutoff):
        theta = ThetaPoint.from_zeta(zeta, n_mean)
        exact = fock.numeric_rld_fisher(theta, cutoff)
        assert np.max(np.abs(exact - rld_fisher_central_differences(theta, cutoff))) < 1e-8

    def test_deep_cutoff_is_accurate(self):
        # condition ~ 2^44 at this cutoff; the solve stays accurate, and the
        # truncation error of the family is below 1e-10
        fisher = fock.numeric_rld_fisher(ThetaPoint(0.0, 0.0, 1.0), 45)
        assert np.max(np.abs(np.linalg.inv(fisher) - rld_inverse_3param(1.0))) < 1e-9


class TestPovmProbabilities:
    def test_photon_on_thermal(self):
        rho = fock.thermal_density(1.0, 20)
        assert fock.photon_probability(rho, 0) == pytest.approx(0.5, abs=1e-14)
        assert fock.photon_probability(rho, 25) == 0.0
        with pytest.raises(DomainError):
            fock.photon_probability(rho, -1)

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
        for k in range(10):
            p = fock.photon_probability(rho, k)
            assert 0.0 <= p <= 1.0


class TestCutoffRule:
    def test_tails_below_tolerance(self):
        for n_mean in (0.5, 1.0, 2.0):
            for amplitude in (0.0, 0.7, 3.5):
                d = fock.cutoff_for(n_mean, amplitude)
                assert fock.thermal_tail(n_mean, d) < fock.DEFAULT_TAIL_TOL
                assert fock.poisson_tail_bound(amplitude**2, d) < fock.DEFAULT_TAIL_TOL

    def test_minimality(self):
        d = fock.cutoff_for(1.0, 0.0)
        assert fock.thermal_tail(1.0, d - 1) >= fock.DEFAULT_TAIL_TOL

    @staticmethod
    def linear_scan(n_mean, amplitude, tol, min_cutoff):
        """The rule by definition: step the cutoff up until both tails pass."""
        d = max(min_cutoff, 2)
        while (
            fock.thermal_tail(n_mean, d) >= tol
            or fock.poisson_tail_bound(amplitude**2, d) >= tol
        ):
            d += 1
        return d

    def test_search_matches_linear_scan(self):
        for n_mean in (0.01, 0.5, 1.0, 3.0):
            for amplitude in (0.0, 1e-3, 0.5, 1.0, 1.2247, 2.5, 6.0, 20.0):
                for tol in (1e-12, 1e-8, 0.5, 0.999):
                    for min_cutoff in (2, 40):
                        assert fock.cutoff_for(n_mean, amplitude, tol, min_cutoff) == (
                            self.linear_scan(n_mean, amplitude, tol, min_cutoff)
                        ), (n_mean, amplitude, tol, min_cutoff)

    def test_large_amplitude_search_is_minimal(self):
        mu = 1e10
        d = fock.cutoff_for(1.0, math.sqrt(mu))
        assert fock.poisson_tail_bound(mu, d) < fock.DEFAULT_TAIL_TOL
        assert fock.poisson_tail_bound(mu, d - 1) >= fock.DEFAULT_TAIL_TOL

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            fock.cutoff_for(1.0, 0.0, tol=2.0)

    def test_huge_n_mean_needs_a_finite_cutoff(self):
        # N/(N+1) rounds to 1 here; the rule still returns the needed cutoff
        d = fock.cutoff_for(1e17, 0.0)
        assert 1.8e18 < d < 1.9e18
        with pytest.raises(PreconditionError, match="no finite cutoff"):
            fock.cutoff_for(1e308, 0.0, tol=1e-12)

    def test_limit_refuses_before_allocating(self):
        assert fock.concentration_cutoff(0.5, 2.0, 2) == 69 <= fock.MAX_CUTOFF
        assert fock.concentration_cutoff(0.5, 3.0, 2) == 97
        with pytest.raises(PreconditionError, match="cutoff 97, above the limit 70"):
            fock.verify_concentration_cascade(0.5, 3.0, n_copies=2)
        with pytest.raises(PreconditionError, match="cutoff 71, above the limit 70"):
            fock.verify_concentration_cascade(0.5, 1.0, cutoff=71)

    def test_tail_gate_leaves_the_size_limit_to_two_mode_checks(self):
        # the heterodyne grid at |zeta| = 2.6 needs a single-mode cutoff above
        # the two-mode limit, which the tail rule alone accepts
        cutoff = fock.cutoff_for(1.0, 3.0 + 2.6)
        assert cutoff > fock.MAX_CUTOFF
        fock.require_tails(1.0, 3.0 + 2.6, cutoff)
        with pytest.raises(PreconditionError, match=f"use cutoff >= {cutoff}"):
            fock.require_tails(1.0, 3.0 + 2.6, cutoff - 1)
