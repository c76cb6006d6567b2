import math

import numpy as np
import pytest
from scipy import stats as sstats

from dtslab import fock, rng
from dtslab.bounds import ThetaPoint, WeightMatrix
from dtslab.errors import DomainError
from dtslab.estimator import ExperimentConfig, ProtocolKind, _chunk_estimates
from dtslab.rng import box_muller, stream_keys, uniform_block
from dtslab.states import heterodyne_from_normal_pairs, heterodyne_pdf, photon_pmf


def geometric_from_uniforms(n_mean, u):
    """Per-copy photon counts by inverse CDF: k = floor(ln(1-u) / ln(N/(N+1))).

    The reference the collective count total is tested against; the log of
    the ratio is formed as log1p(-1/(N+1)), which keeps its precision at any N.
    """
    log_ratio = math.log1p(-1.0 / (n_mean + 1.0))
    return np.floor(np.log1p(-np.asarray(u)) / log_ratio).astype(np.int64)


def uniforms(seed, count):
    return uniform_block(stream_keys(seed, np.asarray([0])), 0, count)[0]


def normal_pairs(seed, stream, count):
    keys = stream_keys(seed, np.asarray([stream]))
    return box_muller(uniform_block(keys, 0, 2 * count)[0].reshape(count, 2))


class TestHeterodynePdf:
    def test_thermal_center_value(self):
        # frozen from the Fock oracle: <0|rho_{0,1}|0> = 1/2, density 1/(2 pi)
        params = ThetaPoint.from_zeta(0j, 1.0)
        assert heterodyne_pdf(params, 0j) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    def test_peak_at_zeta(self):
        params = ThetaPoint.from_zeta(0.7 - 0.2j, 0.5)
        peak = 1.0 / (math.pi * 1.5)
        assert heterodyne_pdf(params, 0.7 - 0.2j) == pytest.approx(peak, abs=1e-14)
        assert heterodyne_pdf(params, 0.9 - 0.2j) < peak

    @pytest.mark.parametrize("zeta,n_mean", [(0j, 1.0), (0.5 + 0.5j, 0.5), (1.0j, 2.0)])
    def test_normalization_by_quadrature(self, zeta, n_mean):
        params = ThetaPoint.from_zeta(zeta, n_mean)
        radius = 8.0 * math.sqrt(n_mean + 1.0)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        radii = 0.5 * radius * (nodes + 1.0)
        wr = 0.5 * radius * weights
        angles = 2.0 * np.pi * np.arange(256) / 256
        total = 0.0
        for r, w in zip(radii, wr):
            ring = sum(
                heterodyne_pdf(params, zeta + r * complex(math.cos(a), math.sin(a)))
                for a in angles
            )
            total += ring * r * w * (2.0 * math.pi / 256)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_matches_fock_oracle_on_grid(self):
        # N <= 2, |zeta| <= 1, |alpha| <= 3
        for zeta, n_mean in ((0j, 2.0), (1.0 + 0j, 0.5), (0.6 - 0.8j, 1.0)):
            cutoff = fock.cutoff_for(n_mean, 3.0 + abs(zeta))
            rho = fock.displaced_thermal_density(zeta, n_mean, cutoff)
            params = ThetaPoint.from_zeta(zeta, n_mean)
            for alpha in (0j, 1.5 + 1.5j, -3.0 + 0j, 3.0j, 2.0 - 2.0j):
                assert heterodyne_pdf(params, alpha) == pytest.approx(
                    fock.heterodyne_probability_density(rho, alpha), abs=1e-6
                )


class TestHeterodyneSampler:
    def test_deterministic_for_fixed_seed(self):
        theta = ThetaPoint.from_zeta(0.3 + 0.1j, 1.0)
        a = heterodyne_from_normal_pairs(theta.zeta, theta.n_mean, normal_pairs(7, 3, 10))
        b = heterodyne_from_normal_pairs(theta.zeta, theta.n_mean, normal_pairs(7, 3, 10))
        assert a.shape == (10,)
        assert np.array_equal(a, b)

    def test_moments(self):
        zeta, n_mean = 0.4 - 0.7j, 1.5
        samples = heterodyne_from_normal_pairs(zeta, n_mean, normal_pairs(2024, 0, 1_000_000))
        band = 4.0 * math.sqrt((n_mean + 1.0) / 1e6)
        assert abs(samples.real.mean() - zeta.real) < band
        assert abs(samples.imag.mean() - zeta.imag) < band
        second = np.mean(np.abs(samples - zeta) ** 2)
        assert second == pytest.approx(n_mean + 1.0, rel=0.01)

    def test_quadrature_distribution_ks(self):
        n_mean = 1.0
        samples = heterodyne_from_normal_pairs(0j, n_mean, normal_pairs(99, 0, 100_000)).real
        result = sstats.kstest(samples, "norm", args=(0.0, math.sqrt((n_mean + 1.0) / 2.0)))
        assert result.statistic < 0.006


class TestPhotonLaw:
    def test_geometric_law_values(self):
        assert photon_pmf(1.0, 0) == pytest.approx(0.5, abs=1e-15)
        assert photon_pmf(1.0, 1) == pytest.approx(0.25, abs=1e-15)

    def test_normalization(self):
        total = sum(photon_pmf(1.0, k) for k in range(201))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError):
            photon_pmf(1.0, -1)

    def test_matches_thermal_diagonal(self):
        for n_mean in (0.5, 1.0, 2.0):
            cutoff = fock.cutoff_for(n_mean)
            rho = fock.thermal_density(n_mean, cutoff)
            for k in range(cutoff):
                assert abs(photon_pmf(n_mean, k) - rho[k, k].real) < 1e-12


class TestPhotonSampler:
    """The per-copy geometric reference sampler follows the photon-count law."""

    def test_cdf_corner(self):
        assert geometric_from_uniforms(1.0, np.array([0.0]))[0] == 0

    def test_scalar_sampler(self):
        k = geometric_from_uniforms(1.0, uniforms(5, 1))
        assert k.dtype == np.int64 and k.shape == (1,) and k[0] >= 0

    def test_moments(self):
        u = uniforms(31, 1_000_000)
        ks = geometric_from_uniforms(1.0, u).astype(float)
        assert ks.mean() == pytest.approx(1.0, rel=0.01)
        assert ks.var() == pytest.approx(2.0, rel=0.02)

    def test_matches_pmf_histogram(self):
        u = uniforms(444, 200_000)
        ks = geometric_from_uniforms(0.7, u)
        for k in range(4):
            freq = np.mean(ks == k)
            assert freq == pytest.approx(photon_pmf(0.7, k), abs=0.004)


class TestConcentrate:
    def test_four_copies(self):
        # concentrating 4 copies leaves amplitude sqrt(4) zeta on the heterodyned
        # mode and centered thermal states with the same N on the 3 counted modes
        theta = ThetaPoint.from_zeta(1.0 + 0j, 0.5)
        config = ExperimentConfig(
            protocol=ProtocolKind.COLLECTIVE_CONCENTRATION,
            theta=theta,
            n_copies=4,
            trials=3,
            seed=8,
            weight=WeightMatrix.identity(3),
        )
        zeta_hat, n_hat = _chunk_estimates(config, 0, 3)
        streams = np.arange(3)
        keys = stream_keys(8, streams)
        u = uniform_block(keys, 0, 2)
        alpha = heterodyne_from_normal_pairs(2.0 * theta.zeta, 0.5, box_muller(u))
        assert np.array_equal(zeta_hat, alpha / 2.0)
        # the 3 counts enter only through their total, Poisson(N G), G ~ Gamma(3, 1)
        total = rng.poisson(keys, 0.5 * rng.gamma(keys, 3.0, 2), 1 << 32)
        assert np.array_equal(n_hat, total / 3.0)


class TestParams:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(DomainError):
            ThetaPoint.from_zeta(0j, 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            ThetaPoint.from_zeta(complex(math.inf, 0), 1.0)
