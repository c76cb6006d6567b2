import cmath
import math
import tracemalloc

import numpy as np
import pytest

from dtslab import fock
from dtslab.bounds import ThetaPoint, rld_inverse_2param, rld_inverse_3param
from dtslab.errors import DomainError, PreconditionError
from dtslab.linalg import rank_frobenius_bound, trace_distance


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
    """The dense two-mode unitary: the direct sum of `fock._beam_splitter_blocks`."""
    unitary = np.zeros((cutoff * cutoff, cutoff * cutoff))
    for rows, block in beam_splitter_blocks(phi, cutoff):
        unitary[rows, rows] = block
    return unitary


def block_indices(cutoff: int) -> list[np.ndarray]:
    """`fock._photon_blocks` as index arrays."""
    return [np.arange(cutoff * cutoff)[rows] for rows in fock._photon_blocks(cutoff)]


def dense_concentration_cascade(
    zeta: complex, n_mean: float, n_copies: int, cutoff: int
) -> list[tuple[fock.ConcentrationReport, float]]:
    """Out-of-place reference of `fock.verify_concentration_cascade`, to compare bit for bit.

    It assembles the dense unitary, conjugates a fresh `np.kron` input out of
    place by row blocks cut from that unitary, gathered and scattered by
    index arrays where `fock` takes basic slices, and takes the marginal
    distances with `trace_distance` and the joint bound with
    `rank_frobenius_bound` against the `np.kron` targets.  Block products,
    not a dense U K U^T: BLAS sums a dense product in another order, which
    moves the distances by a few 1e-20 at cutoff 14.  Each report comes with
    the exact joint trace distance, from a dense eigensolve.  At a complex
    zeta it runs in complex128, where `fock` runs at |zeta|: the reference
    for the phase-covariance argument.
    """
    fresh = fock.displaced_thermal_density(zeta, n_mean, cutoff)
    target_second = fock.thermal_density(n_mean, cutoff)
    carried = fresh
    reports = []
    for i in range(1, n_copies):
        phi = fock.concentration_angle(i)
        unitary = beam_splitter(phi, cutoff)
        blocks = [(idx, unitary[np.ix_(idx, idx)]) for idx in block_indices(cutoff)]

        def mix_rows(x):
            flat = np.ascontiguousarray(x).view(float)
            out = np.empty_like(flat)
            for idx, u in blocks:
                out[idx] = u @ flat[idx]
            return out.view(x.dtype)

        joint = mix_rows(mix_rows(np.kron(carried, fresh)).T).T
        target_first = fock.displaced_thermal_density(
            math.sqrt(i + 1.0) * complex(zeta), n_mean, cutoff
        )
        dist_first = trace_distance(fock.partial_trace(joint, "first"), target_first)
        dist_second = trace_distance(fock.partial_trace(joint, "second"), target_second)
        # in place, so the difference keeps the joint output's memory order,
        # and with it the order in which the Frobenius norm sums
        joint -= np.kron(target_first, target_second)
        report = fock.ConcentrationReport(
            cutoff=cutoff,
            phi=phi,
            dist_first=dist_first,
            dist_second=dist_second,
            joint_bound=rank_frobenius_bound(joint) / 2,
        )
        reports.append((report, trace_distance(joint, np.zeros_like(joint))))
        carried = target_first
    return reports


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

    def test_block_conjugation_matches_dense(self):
        d = 9
        rng = np.random.default_rng(5)
        x = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        x = x + x.conj().T
        u = beam_splitter(fock.concentration_angle(2), d)
        blocks = beam_splitter_blocks(fock.concentration_angle(2), d)
        assert np.max(np.abs(fock._conjugate_by_blocks(blocks, x.copy()) - u @ x @ u.T)) < 1e-12

    def test_block_conjugation_keeps_a_real_operator_real(self):
        d = 9
        x = np.random.default_rng(6).normal(size=(d * d, d * d))
        x = x + x.T
        u = beam_splitter(fock.concentration_angle(2), d)
        conjugated = fock._conjugate_by_blocks(
            beam_splitter_blocks(fock.concentration_angle(2), d), x.copy()
        )
        assert conjugated.dtype == np.float64
        assert np.max(np.abs(conjugated - u @ x @ u.T)) < 1e-12

    def test_block_conjugation_allocates_no_full_size_buffer(self):
        # the result lives in the operator's own buffer, transposed
        d = 9
        x = np.random.default_rng(7).normal(size=(d * d, d * d))
        blocks = beam_splitter_blocks(fock.concentration_angle(2), d)
        conjugated = fock._conjugate_by_blocks(blocks, x)
        assert np.shares_memory(conjugated, x) and conjugated.T.flags.c_contiguous

    @pytest.mark.parametrize("side", [1, 2, 127, 128, 129, 676, 1600])
    def test_transpose_in_place_is_exact(self, side):
        x = np.random.default_rng(side).normal(size=(side, side))
        expected = x.T.copy()
        fock._transpose_in_place(x)
        assert x.flags.c_contiguous and np.array_equal(x, expected)

    def test_transpose_in_place_needs_one_tile_of_memory(self):
        # a 20 MB operator at side 1600, transposed through one 128 KiB tile
        x = np.arange(1600.0 * 1600).reshape(1600, 1600)
        tracemalloc.start()
        try:
            fock._transpose_in_place(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert x[0, 1] == 1600.0 and x[1, 0] == 1.0


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
        # no complex array reaches the two-mode layer: every np.kron operand
        # and every block and operator handed to _conjugate_by_blocks
        seen = []
        kron, conjugate = np.kron, fock._conjugate_by_blocks

        def recording_kron(a, b):
            seen.extend([a, b])
            return kron(a, b)

        def recording_conjugate(blocks, op):
            seen.extend([u for _, u in blocks] + [op])
            return conjugate(blocks, op)

        monkeypatch.setattr(np, "kron", recording_kron)
        monkeypatch.setattr(fock, "_conjugate_by_blocks", recording_conjugate)
        fock.verify_concentration_cascade(0.3 + 0.4j, 0.2, n_copies=3, cutoff=14)
        # two steps, each with two np.kron operands, 27 blocks and one operator
        assert len(seen) == 2 * (2 + 27 + 1)
        assert all(x.dtype == np.float64 for x in seen)

    @staticmethod
    def cascade_peak_mib(zeta: complex, n_copies: int = 2) -> float:
        tracemalloc.start()
        try:
            fock.verify_concentration_cascade(zeta, 1.0, n_copies=n_copies)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_real_amplitude_memory(self):
        # float64 operators: 1600-side two-mode operators of 19.5 MiB each; a
        # step holds one, its input, which becomes the joint output in place
        assert self.cascade_peak_mib(0.5) < 24

    def test_complex_amplitude_memory(self):
        # the cascade runs at |zeta|, in the same float64 operators
        assert self.cascade_peak_mib(0.3 + 0.4j) < 24

    def test_three_copy_cascade_memory(self):
        # the second step's input is allocated after the first step's output is freed
        assert self.cascade_peak_mib(0.5, n_copies=3) < 24

    @pytest.mark.parametrize(
        "cutoff,n_mean,zeta",
        [(8, 0.05, 0.2), (8, 0.05, 0.12 + 0.16j), (14, 0.2, 0.5), (14, 0.2, 0.3 + 0.4j)],
    )
    def test_matches_dense_reference_bit_for_bit(self, cutoff, n_mean, zeta):
        # bit for bit against the reference at |zeta|, where the cascade runs,
        # and within rounding of the complex reference at zeta itself
        reports = fock.verify_concentration_cascade(zeta, n_mean, n_copies=3, cutoff=cutoff)
        assert reports == [r for r, _ in dense_concentration_cascade(abs(zeta), n_mean, 3, cutoff)]
        for report, (ref, _) in zip(reports, dense_concentration_cascade(zeta, n_mean, 3, cutoff)):
            assert (report.cutoff, report.phi) == (ref.cutoff, ref.phi)
            for name in ("dist_first", "dist_second", "joint_bound"):
                assert abs(getattr(report, name) - getattr(ref, name)) <= 1e-15

    @pytest.mark.parametrize(
        "zeta,n_mean,cutoff",
        [(0.3, 0.2, 20), (0.6, 0.2, 20), (0.3, 0.5, 26), (1.0, 0.5, 26), (0.5, 0.8, 30),
         (0.3 + 0.4j, 0.5, 26)],
    )
    def test_joint_bound_dominates_the_exact_distance(self, zeta, n_mean, cutoff):
        # ||D||_F <= ||D||_1 <= cutoff ||D||_F for D of side cutoff^2, so the
        # bound is at least the exact distance and at most cutoff times it;
        # the ratio itself is not bounded (10 to 16 was measured)
        for report, exact in dense_concentration_cascade(zeta, n_mean, 3, cutoff):
            assert exact <= report.joint_bound <= cutoff * exact

    def test_a_step_calls_kron_once_for_its_input(self, monkeypatch):
        # the product target is subtracted through strided views of the
        # joint output, never formed: the one np.kron is the step's input
        cutoff, n_mean = 14, 0.2
        expected = fock.verify_concentration_cascade(0.5, n_mean, n_copies=2, cutoff=cutoff)
        carried = fock.displaced_thermal_density(0.5, n_mean, cutoff)
        fresh = carried.copy()
        target_first = fock.displaced_thermal_density(math.sqrt(2.0) * 0.5, n_mean, cutoff)
        target_second = fock.thermal_density(n_mean, cutoff)
        calls = []
        kron = np.kron

        def counting(a, b):
            calls.append((a, b))
            return kron(a, b)

        monkeypatch.setattr(np, "kron", counting)
        report = fock._concentration_step(
            fock.concentration_angle(1), fock._beam_splitter_spectra(cutoff),
            carried, fresh, target_first, target_second,
        )
        assert len(calls) == 1
        assert calls[0][0] is carried and calls[0][1] is fresh
        assert [report] == expected

    def test_overflowing_amplitude_at_an_explicit_cutoff_is_refused(self):
        # sqrt(3) 1e200 squared overflows float64; the tail gate names it
        with pytest.raises(PreconditionError, match="no finite cutoff .* at amplitude 1.73205e\\+200"):
            fock.verify_concentration_cascade(1e200, 1.0, cutoff=20)

    def test_tail_precondition_names_required_cutoff(self):
        with pytest.raises(PreconditionError, match="use cutoff >= 46$"):
            fock.verify_concentration_cascade(0.5, 2.0, n_copies=2, cutoff=5)
        fock.require_cutoff(2.0, math.sqrt(2.0) * 0.5, 46)


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

    def test_cap_refuses_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match=f"above its cap {2**20}"):
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
    def linear_scan(n_mean, amplitude, tol):
        """The rule by definition: step the cutoff up until both tails pass."""
        d = 2
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
                    assert fock.cutoff_for(n_mean, amplitude, tol) == (
                        self.linear_scan(n_mean, amplitude, tol)
                    ), (n_mean, amplitude, tol)
        # the Poisson search alone, from the least start and from a raised one
        # (a thermal cutoff above the Poisson one)
        for amplitude in (0.0, 1e-3, 0.5, 1.0, 1.2247, 2.5, 6.0, 20.0):
            for tol in (1e-12, 1e-8, 0.5, 0.999):
                for start in (2, 40):
                    d = start
                    while fock.poisson_tail_bound(amplitude**2, d) >= tol:
                        d += 1
                    assert fock._least_poisson_cutoff(amplitude**2, tol, start) == d, (
                        amplitude, tol, start
                    )

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
        # the cascade's default cutoffs at amplitude sqrt(2) 0.5
        amplitude = math.sqrt(2.0) * 0.5
        assert fock.cutoff_for(2.0, amplitude, fock._DISTANCE_RULE_TOL) == 69 <= fock.MAX_CUTOFF
        assert fock.cutoff_for(3.0, amplitude, fock._DISTANCE_RULE_TOL) == 97
        with pytest.raises(PreconditionError, match="cutoff 97, above the limit 70"):
            fock.verify_concentration_cascade(0.5, 3.0, n_copies=2)
        tracemalloc.start()
        try:
            # the size limit comes before the tail rule, which cutoff 71 passes
            with pytest.raises(PreconditionError, match="cutoff 71, above the limit 70"):
                fock.verify_concentration_cascade(0.5, 1.0, cutoff=71)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_grid_cutoff_stays_small_wherever_the_cascade_gate_accepts(self):
        # oracle_checks runs the heterodyne grid, at amplitude 3 + |zeta|, only
        # after the cascade's gate has accepted (N, zeta, n_copies, cutoff), so
        # the grid needs no size gate of its own; its worst case here is 96
        worst = 0
        for n_mean in (1e-300, 1e-8, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 3.3, 3.4):
            for modulus in np.linspace(0.0, 5.0, 501):
                for n_copies in (2, 3):
                    amplitude = math.sqrt(n_copies) * modulus
                    for cutoff in (2, 10, 20, 27, 30, 40, 46, 50, 60, 69, 70):
                        try:
                            fock.require_cutoff(n_mean, amplitude, cutoff)
                        except PreconditionError:
                            continue
                        worst = max(worst, fock.cutoff_for(n_mean, 3.0 + modulus))
        assert 90 < worst <= 100
