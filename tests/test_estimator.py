import math
import types

import numpy as np
import pytest
from scipy import stats as sstats

from dtslab import estimator, rng
from dtslab.bounds import ThetaPoint, WeightMatrix
from dtslab.errors import DomainError
from dtslab.estimator import (
    MAX_N_COPIES,
    MAX_N_MEAN,
    ExperimentConfig,
    ProtocolKind,
    _chunk_estimates,
    compare_to_bounds,
    expected_finite_n_trace,
    monte_carlo_mse,
    worker_count,
)
from dtslab.rng import box_muller, uniform_block
from dtslab.states import heterodyne_from_normal_pairs, photon_from_uniforms

THETA = ThetaPoint.from_zeta(0.7071 + 0j, 1.0)


def make_config(protocol, n_copies=100, trials=1000, seed=42, n_mean=1.0):
    theta = ThetaPoint.from_zeta(0.7071 + 0j, n_mean)
    dim = 2 if protocol is ProtocolKind.KNOWN_N_HETERODYNE else 3
    return ExperimentConfig(
        protocol=protocol,
        theta=theta,
        n_copies=n_copies,
        trials=trials,
        seed=seed,
        weight=WeightMatrix.identity(dim),
    )


def single_trial(config, t):
    """(zeta_hat, n_hat) of trial t: a chunk of size 1."""
    zeta_hat, n_hat = _chunk_estimates(config, t, 1)
    return complex(zeta_hat[0]), None if n_hat is None else float(n_hat[0])


def per_copy_estimates(config, seed, count):
    """(zeta_hat, n_hat) of `count` trials that heterodyne every copy.

    The reference for the per-copy protocols: trial t draws the n outcomes
    alpha_i from counters 0 .. 2n-1 of stream t, one normal pair per copy,
    and forms the sample mean and the unbiased spread estimate
    sum |alpha_i - mean|^2 / (n-1) - 1.  n_hat is None for known-n.
    """
    n, theta = config.n_copies, config.theta
    u = uniform_block(seed, np.arange(count), 0, 2 * n)
    pairs = box_muller(u.reshape(count, n, 2))
    alpha = heterodyne_from_normal_pairs(theta.zeta, theta.n_mean, pairs)
    zeta_hat = alpha.mean(axis=1)
    if config.protocol is ProtocolKind.KNOWN_N_HETERODYNE:
        return zeta_hat, None
    centered = alpha - zeta_hat[:, None]
    spread = (centered.real**2 + centered.imag**2).sum(axis=1)
    return zeta_hat, spread / (n - 1.0) - 1.0


def photon_counts(config, t):
    """The n-1 photon counts of collective trial t (counters 2 .. n)."""
    u = uniform_block(config.seed, np.asarray([t]), 2, config.n_copies - 1)
    return photon_from_uniforms(config.theta.n_mean, u[0])


class TestMleGeometric:
    """The collective photon estimate is the geometric maximum-likelihood N."""

    def test_stationary_point(self):
        # the likelihood's stationary point is the sample mean of the counts
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=4)
        for t in range(20):
            counts = photon_counts(config, t)
            assert single_trial(config, t)[1] == counts.astype(float).mean()

    def test_boundary_all_zero(self):
        # at small N most trials count no photon; their estimate sits at the boundary 0
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=3, n_mean=0.01)
        zero_trials = [t for t in range(50) if not photon_counts(config, t).any()]
        assert len(zero_trials) > 25
        assert all(single_trial(config, t)[1] == 0.0 for t in zero_trials)

    def test_single_sample(self):
        # two copies leave one counted mode, whose count is the estimate
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2)
        for t in range(20):
            assert single_trial(config, t)[1] == float(photon_counts(config, t)[0])

    def test_is_the_likelihood_maximizer(self):
        # scan oracle: log-likelihood of the geometric law peaks at the estimate
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=8, n_mean=1.5)
        counts = photon_counts(config, 3)
        khat = single_trial(config, 3)[1]
        assert khat > 0

        def loglik(n):
            return float(
                np.sum(counts * math.log(n / (n + 1.0)) - math.log(n + 1.0))
            )

        best = max(np.linspace(0.05, 8.0, 400), key=loglik)
        assert abs(best - khat) < 0.05


class TestSingleTrials:
    def test_collective_deterministic(self):
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2)
        first = single_trial(config, 0)
        second = single_trial(config, 0)
        assert first == second
        assert first[1] is not None

    def test_known_n_has_no_photon_estimate(self):
        config = make_config(ProtocolKind.KNOWN_N_HETERODYNE)
        zeta_hat, n_hat = _chunk_estimates(config, 0, 1)
        assert zeta_hat.shape == (1,)
        assert n_hat is None

    def test_dispatch_matches_specific_runners(self, monkeypatch):
        # one counter layout: counters 0-1 give the amplitude pair, 2 .. n the
        # photon part (geometric counts, exponentials, or nothing for known-n)
        n = 5
        u = uniform_block(42, np.arange(3), 0, n + 1)
        widths = []

        def recording(seed, streams, start, count):
            widths.append((start, count))
            return uniform_block(seed, streams, start, count)

        monkeypatch.setattr(rng, "uniform_block", recording)
        for protocol in ProtocolKind:
            config = make_config(protocol, n_copies=n, trials=3)
            theta = config.theta
            alpha = heterodyne_from_normal_pairs(
                math.sqrt(n) * theta.zeta, theta.n_mean, box_muller(u[:, :2])
            )
            counts = photon_from_uniforms(theta.n_mean, u[:, 2:])
            gamma = np.sum(-np.log1p(-u[:, 2:]), axis=1)
            want_n = {
                ProtocolKind.COLLECTIVE_CONCENTRATION: counts.mean(axis=1),
                ProtocolKind.SEPARABLE_HETERODYNE: (theta.n_mean + 1.0) * gamma / (n - 1.0) - 1.0,
                ProtocolKind.KNOWN_N_HETERODYNE: None,
            }[protocol]
            zeta_hat, n_hat = _chunk_estimates(config, 0, 3)
            assert np.array_equal(zeta_hat, alpha / math.sqrt(n))
            assert (n_hat is None and want_n is None) or np.array_equal(n_hat, want_n)
        # one uniform_block call per chunk: n + 1 counters, or 2 for known-n
        assert widths == [(0, n + 1), (0, n + 1), (0, 2)]

    def test_collective_moments(self):
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=20000)
        n, n_mean = config.n_copies, config.theta.n_mean
        zs, ns = _chunk_estimates(config, 0, config.trials)
        # E zeta_hat = zeta, E|zeta_hat - zeta|^2 = (N+1)/n
        band = 5.0 * math.sqrt((n_mean + 1.0) / (2 * n * config.trials))
        assert abs(zs.real.mean() - config.theta.zeta.real) < band
        assert abs(zs.imag.mean() - config.theta.zeta.imag) < band
        second = np.mean(np.abs(zs - config.theta.zeta) ** 2)
        assert second == pytest.approx((n_mean + 1.0) / n, rel=0.05)
        # E N_hat = N, Var N_hat = N(N+1)/(n-1)
        assert ns.mean() == pytest.approx(n_mean, abs=0.01)
        assert ns.var() == pytest.approx(n_mean * (n_mean + 1.0) / (n - 1), rel=0.05)

    def test_separable_moments(self):
        config = make_config(ProtocolKind.SEPARABLE_HETERODYNE, trials=20000)
        n, n_mean = config.n_copies, config.theta.n_mean
        zs, ns = _chunk_estimates(config, 0, config.trials)
        band = 5.0 * math.sqrt((n_mean + 1.0) / (2 * n * config.trials))
        assert abs(zs.real.mean() - config.theta.zeta.real) < band
        assert abs(zs.imag.mean() - config.theta.zeta.imag) < band
        second = np.mean(np.abs(zs - config.theta.zeta) ** 2)
        assert 2.0 * n * second == pytest.approx(2.0 * (n_mean + 1.0), rel=0.05)
        assert ns.mean() == pytest.approx(n_mean, abs=0.02)
        # n Var(N_hat) -> (N+1)^2; exact finite-n value n (N+1)^2 / (n-1)
        assert n * ns.var() == pytest.approx(n * (n_mean + 1.0) ** 2 / (n - 1), rel=0.05)

    def test_clip_nonneg_floors_photon_estimate(self):
        # small N and few copies make negative moment estimates common
        theta = ThetaPoint.from_zeta(0j, 0.05)
        base = dict(
            protocol=ProtocolKind.SEPARABLE_HETERODYNE,
            theta=theta,
            n_copies=3,
            trials=400,
            seed=21,
            weight=WeightMatrix.identity(3),
        )
        raw = ExperimentConfig(**base)
        clipped = ExperimentConfig(**base, clip_nonneg=True)
        _, raw_hats = _chunk_estimates(raw, 0, 400)
        _, clip_hats = _chunk_estimates(clipped, 0, 400)
        assert raw_hats.min() < 0.0
        assert clip_hats.min() == 0.0
        assert np.array_equal(clip_hats, np.maximum(raw_hats, 0.0))
        # the Monte Carlo reduction honors the flag too
        mse_raw = monte_carlo_mse(raw)
        mse_clip = monte_carlo_mse(clipped)
        assert mse_clip.n_trace_gv != mse_raw.n_trace_gv


class TestSufficientStatistics:
    """The per-copy protocols draw their sufficient statistics directly.

    Two-sample KS tests against the per-copy reference sampler, on an
    independent seed, at the small n where the laws differ most from normal.
    """

    TRIALS = 20000

    @pytest.mark.parametrize("n_copies", [2, 3, 10])
    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.SEPARABLE_HETERODYNE, ProtocolKind.KNOWN_N_HETERODYNE]
    )
    def test_matches_per_copy_sampler(self, protocol, n_copies):
        config = make_config(protocol, n_copies=n_copies, trials=self.TRIALS, n_mean=0.8)
        zeta_hat, n_hat = _chunk_estimates(config, 0, self.TRIALS)
        ref_zeta, ref_n = per_copy_estimates(config, config.seed + 1, self.TRIALS)
        samples = {"re": (zeta_hat.real, ref_zeta.real), "im": (zeta_hat.imag, ref_zeta.imag)}
        if protocol is ProtocolKind.SEPARABLE_HETERODYNE:
            samples["n_hat"] = (n_hat, ref_n)
        else:
            assert n_hat is None and ref_n is None
        for name, (sample, reference) in samples.items():
            assert sstats.ks_2samp(sample, reference).pvalue > 1e-3, name


class TestMonteCarlo:
    def test_single_trial_rank_one_psd(self):
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=1)
        mse = monte_carlo_mse(config)
        assert mse.trials == 1 and mse.se_trace is None
        eigenvalues = np.linalg.eigvalsh(mse.entries)
        assert eigenvalues.min() > -1e-12
        assert np.sum(eigenvalues > 1e-12) == 1

    def test_entries_psd_and_finite(self):
        for protocol in ProtocolKind:
            config = make_config(protocol, trials=500)
            mse = monte_carlo_mse(config)
            assert np.all(np.isfinite(mse.entries))
            assert np.linalg.eigvalsh(mse.entries).min() > -1e-12
            assert np.allclose(mse.entries, mse.entries.T)

    def test_matches_single_trial_loop_bitwise(self):
        for protocol in ProtocolKind:
            config = make_config(protocol, n_copies=7, trials=25, seed=11)
            collected = {}

            def sink(start, zeta_hat, n_hat, errors):
                for row in range(zeta_hat.shape[0]):
                    collected[start + row] = (
                        complex(zeta_hat[row]),
                        None if n_hat is None else float(n_hat[row]),
                    )

            monte_carlo_mse(config, trial_sink=sink)
            for t in range(config.trials):
                assert collected[t] == single_trial(config, t), (protocol, t)

    def test_reduction_matches_loop_reference(self):
        # the einsum products against the per-entry loops over the same errors;
        # the summation order differs, so agreement is to float64 rounding
        weight = WeightMatrix(np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 0.5]]))
        config = ExperimentConfig(
            protocol=ProtocolKind.SEPARABLE_HETERODYNE,
            theta=THETA,
            n_copies=10,
            trials=9000,
            seed=4,
            weight=weight,
        )
        g, n, d = weight.entries, config.n_copies, 3
        total, sum_q = np.zeros((d, d)), 0.0

        def sink(start, zeta_hat, n_hat, errors):
            nonlocal sum_q
            for i in range(d):
                for j in range(d):
                    total[i, j] += np.sum(errors[:, i] * errors[:, j])
                    sum_q += n * g[i, j] * np.sum(errors[:, i] * errors[:, j])

        mse = monte_carlo_mse(config, trial_sink=sink)
        assert np.allclose(mse.entries, total / config.trials, rtol=1e-12, atol=0.0)
        assert mse.n_trace_gv == pytest.approx(sum_q / config.trials, rel=1e-12)

    def test_thread_count_does_not_change_bits(self):
        config = make_config(ProtocolKind.SEPARABLE_HETERODYNE, trials=5000, seed=3)
        base = monte_carlo_mse(config, threads=1)
        for threads in (2, 5):
            other = monte_carlo_mse(config, threads=threads)
            assert other.n_trace_gv == base.n_trace_gv
            assert other.se_trace == base.se_trace
            assert np.array_equal(other.entries, base.entries)

    def test_sink_called_in_trial_order(self):
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=5000, seed=9)
        starts = []
        monte_carlo_mse(config, threads=4, trial_sink=lambda s, *_: starts.append(s))
        assert starts == sorted(starts)

    def test_threads_clamped_to_chunk_count(self, monkeypatch):
        # n = 10 runs in chunks of 4096 trials, so 10000 trials are three chunks
        config = make_config(ProtocolKind.SEPARABLE_HETERODYNE, n_copies=10, trials=10000, seed=5)
        requested = []

        class RecordingExecutor:
            """Runs each task at submission and records the pool size asked for."""

            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                result = fn(*args)
                return types.SimpleNamespace(result=lambda: result)

        monkeypatch.setattr(estimator, "ThreadPoolExecutor", RecordingExecutor)
        serial = monte_carlo_mse(config, threads=1)
        clamped = monte_carlo_mse(config, threads=64)
        assert requested == [3]
        assert worker_count(config, 64) == 3
        assert np.array_equal(clamped.entries, serial.entries)
        assert clamped.n_trace_gv == serial.n_trace_gv
        for threads in (None, 0, -2, 1):
            assert worker_count(config, threads) == 1
        one_chunk = make_config(ProtocolKind.SEPARABLE_HETERODYNE, n_copies=10, trials=4096)
        assert worker_count(one_chunk, 64) == 1
        monte_carlo_mse(one_chunk, threads=64)
        assert requested == [3]

    def test_collective_finite_n_law(self):
        # n Tr V = 2(N+1) + n N(N+1)/(n-1), checked within 3 SE
        for n_mean, n_copies in ((1.0, 100), (0.5, 10), (2.0, 50)):
            config = make_config(
                ProtocolKind.COLLECTIVE_CONCENTRATION,
                n_copies=n_copies,
                trials=20000,
                n_mean=n_mean,
            )
            mse = monte_carlo_mse(config)
            expected = expected_finite_n_trace(config)
            assert expected == pytest.approx(
                2.0 * (n_mean + 1.0) + n_copies * n_mean * (n_mean + 1.0) / (n_copies - 1)
            )
            assert abs(mse.n_trace_gv - expected) < 3.0 * mse.se_trace

    def test_separable_finite_n_law(self):
        config = make_config(ProtocolKind.SEPARABLE_HETERODYNE, trials=20000)
        mse = monte_carlo_mse(config)
        expected = expected_finite_n_trace(config)
        assert expected == pytest.approx(4.0 + 100.0 * 4.0 / 99.0)
        assert abs(mse.n_trace_gv - expected) < 3.0 * mse.se_trace

    def test_known_n_trace_is_constant_in_n(self):
        for n_copies in (2, 10, 100):
            config = make_config(ProtocolKind.KNOWN_N_HETERODYNE, n_copies=n_copies, trials=20000)
            mse = monte_carlo_mse(config)
            assert abs(mse.n_trace_gv - 4.0) < 3.0 * mse.se_trace

    def test_known_n_isotropic(self):
        config = make_config(ProtocolKind.KNOWN_N_HETERODYNE, trials=50000)
        mse = monte_carlo_mse(config)
        scale = mse.entries[0, 0]
        assert abs(mse.entries[0, 1]) < 0.05 * scale

    def test_collective_approaches_bound_as_n_grows(self):
        ratios = []
        for n_copies in (10, 1000):
            config = make_config(
                ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=n_copies, trials=20000
            )
            comparison = compare_to_bounds(monte_carlo_mse(config), config)
            ratios.append(comparison.ratio)
        assert ratios[1] < ratios[0]
        assert ratios[1] == pytest.approx(1.0, abs=0.02)

    def test_separable_strictly_above_collective(self):
        coll = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=20000)
        sep = make_config(ProtocolKind.SEPARABLE_HETERODYNE, trials=20000)
        mse_c = monte_carlo_mse(coll)
        mse_s = monte_carlo_mse(sep)
        gap = mse_s.n_trace_gv - mse_c.n_trace_gv
        gap_se = math.hypot(mse_c.se_trace, mse_s.se_trace)
        assert gap > 5.0 * gap_se


class TestCompare:
    def test_expected_ratios_at_identity(self):
        coll = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=200)
        sep = make_config(ProtocolKind.SEPARABLE_HETERODYNE, trials=200)
        known = make_config(ProtocolKind.KNOWN_N_HETERODYNE, trials=200)
        assert compare_to_bounds(monte_carlo_mse(coll), coll).expected_ratio_large_n == 1.0
        assert compare_to_bounds(monte_carlo_mse(sep), sep).expected_ratio_large_n == pytest.approx(
            4.0 / 3.0
        )
        assert compare_to_bounds(monte_carlo_mse(known), known).expected_ratio_large_n == 1.0

    def test_bound_values(self):
        coll = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=200)
        known = make_config(ProtocolKind.KNOWN_N_HETERODYNE, trials=200)
        assert compare_to_bounds(monte_carlo_mse(coll), coll).c_r == pytest.approx(6.0)
        assert compare_to_bounds(monte_carlo_mse(known), known).c_r == pytest.approx(4.0)

    def test_non_identity_weight_has_no_expected_ratio(self):
        config = ExperimentConfig(
            protocol=ProtocolKind.COLLECTIVE_CONCENTRATION,
            theta=ThetaPoint.from_zeta(0.7071 + 0j, 1.0),
            n_copies=100,
            trials=200,
            seed=0,
            weight=WeightMatrix(np.diag([2.0, 1.0, 0.5])),
        )
        comparison = compare_to_bounds(monte_carlo_mse(config), config)
        assert comparison.expected_ratio_large_n is None
        # bound for diag(2, 1, 0.5): g0 N(N+1) + 2(N+1/2) g1 + sqrt(g1^2 - g2^2)
        assert comparison.c_r == pytest.approx(0.5 * 2.0 + 3.0 * 1.5 + math.sqrt(1.5**2 - 0.25))


class TestConfigValidation:
    def test_rejects_single_copy(self):
        with pytest.raises(DomainError):
            make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=1)

    def test_rejects_zero_trials(self):
        with pytest.raises(DomainError):
            make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=0)

    def test_rejects_weight_dim_mismatch(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                protocol=ProtocolKind.KNOWN_N_HETERODYNE,
                theta=THETA,
                n_copies=10,
                trials=100,
                seed=0,
                weight=WeightMatrix.identity(3),
            )

    def test_rejects_n_mean_above_sampler_limit(self):
        make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_mean=MAX_N_MEAN)
        for protocol in ProtocolKind:
            with pytest.raises(DomainError, match="at most 1e"):
                make_config(protocol, n_mean=1e17)

    def test_rejects_n_copies_above_chunk_limit(self):
        # refused in the constructor, before any sampling buffer exists
        assert MAX_N_COPIES == 1 << 22
        make_config(ProtocolKind.SEPARABLE_HETERODYNE, n_copies=MAX_N_COPIES)
        for protocol in ProtocolKind:
            with pytest.raises(DomainError, match=f"at most {MAX_N_COPIES}"):
                make_config(protocol, n_copies=MAX_N_COPIES + 1)
