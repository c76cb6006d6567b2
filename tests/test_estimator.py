import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from scipy import stats as sstats

from dtslab import rng
from dtslab.bounds import ThetaPoint, WeightMatrix
from dtslab.errors import DomainError
from dtslab.estimator import (
    MAX_N_COPIES,
    MAX_N_MEAN,
    ExperimentConfig,
    ProtocolKind,
    _chunk_estimates,
    compare_to_bounds,
    monte_carlo_mse,
)
from dtslab.rng import box_muller, uniform_block
from dtslab.states import heterodyne_from_normal_pairs
from test_states import geometric_from_uniforms

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


def expected_finite_n_trace(config):
    """Exact finite-n value of n Tr(G V), for every weight.

    V is diagonal (see `compare_to_bounds`), so n Tr(G V) is
    (N+1)(G11 + G22) + G33 L n/(n-1), with L = N(N+1) for the collective
    count total, (N+1)^2 for the separable spread, and no G33 term for
    known-n.  None for a separable run with clip_nonneg, whose clipped N
    estimate has no closed form; the collective estimate K/(n-1) is never
    negative, so clipping leaves its value.
    """
    protocol = config.protocol
    if config.clip_nonneg and protocol is ProtocolKind.SEPARABLE_HETERODYNE:
        return None
    n, big_n, g = config.n_copies, config.theta.n_mean, config.weight.entries
    amplitude_part = (big_n + 1.0) * float(g[0, 0] + g[1, 1])
    if protocol is ProtocolKind.KNOWN_N_HETERODYNE:
        return amplitude_part
    if protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        photon_var = big_n * (big_n + 1.0)
    else:
        photon_var = (big_n + 1.0) ** 2
    return amplitude_part + float(g[2, 2]) * n * photon_var / (n - 1.0)


def single_trial(config, t):
    """(zeta_hat, n_hat) of trial t: a chunk of size 1."""
    zeta_hat, n_hat = _chunk_estimates(config, t, 1)
    return complex(zeta_hat[0]), None if n_hat is None else float(n_hat[0])


def per_copy_estimates(config, seed, count):
    """(zeta_hat, n_hat) of `count` trials sampled copy by copy.

    The reference for every protocol: trial t draws from counters 0 ..
    2n-1 of stream t.  The collective protocol takes the n-1 counts
    (geometric, one uniform each, counters 2 .. n) of the modes left after
    concentration and estimates N by their sample mean.  The per-copy
    protocols draw n outcomes alpha_i, one normal pair per copy, and form
    the sample mean and the unbiased spread estimate
    sum |alpha_i - mean|^2 / (n-1) - 1.  n_hat is None for known-n.
    """
    n, theta = config.n_copies, config.theta
    u = uniform_block(rng.stream_keys(seed, np.arange(count)), 0, 2 * n)
    if config.protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
        counts = geometric_from_uniforms(theta.n_mean, u[:, 2 : n + 1])
        return None, counts.mean(axis=1)
    pairs = box_muller(u.reshape(count, n, 2))
    alpha = heterodyne_from_normal_pairs(theta.zeta, theta.n_mean, pairs)
    zeta_hat = alpha.mean(axis=1)
    if config.protocol is ProtocolKind.KNOWN_N_HETERODYNE:
        return zeta_hat, None
    centered = alpha - zeta_hat[:, None]
    spread = (centered.real**2 + centered.imag**2).sum(axis=1)
    return zeta_hat, spread / (n - 1.0) - 1.0


def count_total(config, t):
    """The photon count total K of collective trial t: n_hat (n-1), an integer."""
    total = single_trial(config, t)[1] * (config.n_copies - 1)
    assert total == round(total) >= 0
    return round(total)


class TestMleGeometric:
    """The collective photon estimate is the geometric maximum-likelihood N.

    The log-likelihood of n-1 geometric counts with total K is
    K log(N/(N+1)) - (n-1) log(N+1), so the estimate needs only K.
    """

    def test_stationary_point(self):
        # the score K/(N(N+1)) - (n-1)/(N+1) vanishes at the estimate K/(n-1)
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=4)
        for t in range(20):
            total, khat = count_total(config, t), single_trial(config, t)[1]
            if total:
                score = total / (khat * (khat + 1.0)) - 3.0 / (khat + 1.0)
                assert abs(score) < 1e-12 * 3.0 / (khat + 1.0)

    def test_boundary_all_zero(self):
        # at small N most trials count no photon; their estimate sits at the boundary 0
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=3, n_mean=0.01)
        zero_trials = [t for t in range(50) if count_total(config, t) == 0]
        assert len(zero_trials) > 25
        assert all(single_trial(config, t)[1] == 0.0 for t in zero_trials)

    def test_single_sample(self):
        # two copies leave one counted mode, whose count is the estimate
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2)
        estimates = [single_trial(config, t)[1] for t in range(20)]
        assert all(k == count_total(config, t) for t, k in enumerate(estimates))
        assert len(set(estimates)) > 2

    def test_is_the_likelihood_maximizer(self):
        # scan oracle: log-likelihood of the geometric law peaks at the estimate
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=8, n_mean=1.5)
        total = count_total(config, 3)
        khat = single_trial(config, 3)[1]
        assert khat > 0

        def loglik(n):
            return total * math.log(n / (n + 1.0)) - 7 * math.log(n + 1.0)

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
        # one counter layout: counters 0-1 give the amplitude pair, the Gamma
        # draw's attempts start at counter 2 and the Poisson draw's at 2**32
        n, keys = 5, rng.stream_keys(42, np.arange(3))
        u = uniform_block(keys, 0, 2)
        gamma = rng.gamma(keys, n - 1.0, 2)
        blocks = []

        def recording(keys, start, count):
            blocks.append((start, count))
            return uniform_block(keys, start, count)

        monkeypatch.setattr(rng, "uniform_block", recording)
        for protocol in ProtocolKind:
            config = make_config(protocol, n_copies=n, trials=3)
            theta = config.theta
            alpha = heterodyne_from_normal_pairs(
                math.sqrt(n) * theta.zeta, theta.n_mean, box_muller(u)
            )
            if protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
                counts = rng.poisson(keys, theta.n_mean * gamma, 1 << 32)
                want_n = counts / (n - 1.0)
            elif protocol is ProtocolKind.SEPARABLE_HETERODYNE:
                want_n = (theta.n_mean + 1.0) * gamma / (n - 1.0) - 1.0
            else:
                want_n = None
            blocks.clear()
            zeta_hat, n_hat = _chunk_estimates(config, 0, 3)
            assert np.array_equal(zeta_hat, alpha / math.sqrt(n))
            assert (n_hat is None and want_n is None) or np.array_equal(n_hat, want_n)
            # the amplitude pair first; every later block is a sampler attempt's
            assert blocks[0] == (0, 2)
            for start, count in blocks[1:]:
                gamma_attempt = count == 3 and (start - 2) % 3 == 0 and start < 1 << 32
                poisson_attempt = count in (1, 2) and start >= 1 << 32 and start % 2 == 0
                assert gamma_attempt or poisson_attempt, (protocol, start, count)
            if protocol is ProtocolKind.KNOWN_N_HETERODYNE:
                assert blocks == [(0, 2)]

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

    @pytest.mark.parametrize("n_copies", [2, 3, 10])
    @pytest.mark.parametrize("n_mean", [0.8, 5.0])
    def test_collective_matches_per_copy_counts(self, n_copies, n_mean):
        # K/(n-1) with K ~ Poisson(N G) against the mean of n-1 geometric
        # counts; at N = 0.8 most Poisson means are below 10 (inversion), at
        # N = 5 most are above (PTRS)
        config = make_config(
            ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=n_copies, trials=self.TRIALS, n_mean=n_mean
        )
        _, n_hat = _chunk_estimates(config, 0, self.TRIALS)
        _, reference = per_copy_estimates(config, config.seed + 1, self.TRIALS)
        assert sstats.ks_2samp(n_hat, reference).pvalue > 1e-3

    def test_count_total_is_exact_at_the_n_mean_limit(self):
        # at n = 2 the count total is one geometric count of mean N; at
        # N = MAX_N_MEAN = 2**47 it still matches the inverse-CDF reference
        config = make_config(
            ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2, trials=self.TRIALS, n_mean=MAX_N_MEAN
        )
        _, n_hat = _chunk_estimates(config, 0, self.TRIALS)
        _, reference = per_copy_estimates(config, config.seed + 1, self.TRIALS)
        assert np.all(n_hat == np.floor(n_hat)) and n_hat.max() < 2.0**53
        assert sstats.ks_2samp(n_hat, reference).pvalue > 1e-3
        assert abs(n_hat.mean() - MAX_N_MEAN) < 5.0 * MAX_N_MEAN / math.sqrt(self.TRIALS)

    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.COLLECTIVE_CONCENTRATION, ProtocolKind.SEPARABLE_HETERODYNE]
    )
    def test_moments_at_a_million_copies(self, protocol):
        # E n_hat = N; Var n_hat = N(N+1)/(n-1) (collective) or (N+1)^2/(n-1)
        # (separable).  For near-normal samples the SE of the mean is
        # sd/sqrt(T) and that of the variance var sqrt(2/(T-1)); both within 5 SE
        n, trials, n_mean = 10**6, 20000, 1.5
        config = make_config(protocol, n_copies=n, trials=trials, n_mean=n_mean)
        _, n_hat = _chunk_estimates(config, 0, trials)
        if protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
            variance = n_mean * (n_mean + 1.0) / (n - 1)
        else:
            variance = (n_mean + 1.0) ** 2 / (n - 1)
        assert abs(n_hat.mean() - n_mean) < 5.0 * math.sqrt(variance / trials)
        assert abs(n_hat.var(ddof=1) - variance) < 5.0 * variance * math.sqrt(2.0 / (trials - 1))


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

    @pytest.mark.parametrize(
        "protocol", [ProtocolKind.COLLECTIVE_CONCENTRATION, ProtocolKind.SEPARABLE_HETERODYNE]
    )
    def test_chunk_is_concatenation_of_single_trials(self, protocol, monkeypatch):
        # rejection attempts read fixed counters of their own stream, so a
        # trial's draws do not depend on its chunk, even when it needs several
        # attempts; the Gamma shape 1 (n = 2) is accepted least often, and
        # N = 50 sends most Poisson draws through PTRS
        config = make_config(protocol, n_copies=2, trials=600, seed=13, n_mean=50.0)
        zeta_hat, n_hat = _chunk_estimates(config, 0, config.trials)
        retried = {"gamma": 0, "poisson": 0}

        def recording(keys, start, count):
            if start == 5:
                retried["gamma"] += 1
            elif start == (1 << 32) + 2:
                retried["poisson"] += 1
            return uniform_block(keys, start, count)

        monkeypatch.setattr(rng, "uniform_block", recording)
        singles = [_chunk_estimates(config, t, 1) for t in range(config.trials)]
        assert np.array_equal(zeta_hat, np.concatenate([z for z, _ in singles]))
        assert np.array_equal(n_hat, np.concatenate([k for _, k in singles]))
        assert retried["gamma"] >= 10
        if protocol is ProtocolKind.COLLECTIVE_CONCENTRATION:
            assert retried["poisson"] >= 10

    def test_stream_keys_are_mixed_once_per_chunk(self, monkeypatch):
        # n = 2 and N = 50 send Gamma and PTRS draws through several attempts,
        # each of which reuses the chunk's keys
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2, seed=13, n_mean=50.0)
        mixed, attempts = [], []
        stream_keys = rng.stream_keys

        def keys(seed, streams):
            mixed.append(len(streams))
            return stream_keys(seed, streams)

        def recording(keys, start, count):
            attempts.append(start)
            return uniform_block(keys, start, count)

        monkeypatch.setattr(rng, "stream_keys", keys)
        monkeypatch.setattr(rng, "uniform_block", recording)
        _chunk_estimates(config, 0, 600)
        assert mixed == [600]
        assert len(attempts) > 4  # the pair, and more than one attempt of each sampler

    # sha256 of zeta_hat for trials 0 .. 4999 (N = 1, seed 42): the amplitude
    # draws are those of counters 0-1, the same in every protocol and at every n
    ZETA_DIGESTS = {
        10: "dbeba4f6cd65b4c4bf9af5590f789d774a4bd5e293c415fde9062d93e3b4aba0",
        1000: "e74356f3162281b8749e90b23ff475b07d35ca74eecaede48f8caf0ec3c4ec7a",
    }

    @pytest.mark.parametrize("n_copies", sorted(ZETA_DIGESTS))
    def test_zeta_hat_bits_are_unchanged(self, n_copies):
        for protocol in ProtocolKind:
            config = make_config(protocol, n_copies=n_copies, trials=5000)
            zeta_hat, _ = _chunk_estimates(config, 0, config.trials)
            digest = hashlib.sha256(zeta_hat.tobytes()).hexdigest()
            assert digest == self.ZETA_DIGESTS[n_copies], protocol

    @pytest.mark.parametrize("n_copies", [10, 10**6])
    def test_words_per_trial_do_not_grow_with_n(self, n_copies, monkeypatch):
        # 2 amplitude words, 3 per Gamma attempt (accepted more than 95% of
        # the time) and 1 per inversion or 2 per PTRS attempt: about 7.4 on
        # average, whatever n is; a per-copy path would draw n - 1 more
        words = []

        def recording(keys, start, count):
            words.append(len(keys) * count)
            return uniform_block(keys, start, count)

        monkeypatch.setattr(rng, "uniform_block", recording)
        for protocol in ProtocolKind:
            words.clear()
            config = make_config(protocol, n_copies=n_copies, trials=5000, seed=8)
            monte_carlo_mse(config)
            assert sum(words) / config.trials <= 8.0, protocol

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
        base = monte_carlo_mse(config)
        for _ in range(2):
            other = monte_carlo_mse(config)
            assert other.n_trace_gv == base.n_trace_gv
            assert other.se_trace == base.se_trace
            assert np.array_equal(other.entries, base.entries)

    def test_sink_called_in_trial_order(self):
        config = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=5000, seed=9)
        starts = []
        monte_carlo_mse(config, trial_sink=lambda s, *_: starts.append(s))
        assert starts == [0, 4096]

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

    def test_clipped_separable_run_has_no_finite_n_target(self):
        # clipping moves the separable N estimate, which can be negative; the
        # collective estimate K/(n-1) never is, so its target stands.  The
        # large-n target holds for both, since P(N_hat < 0) falls exponentially in n
        for protocol in ProtocolKind:
            config = dataclasses.replace(make_config(protocol, trials=100), clip_nonneg=True)
            raw = make_config(protocol, trials=100)
            expected = expected_finite_n_trace(raw)
            if protocol is ProtocolKind.SEPARABLE_HETERODYNE:
                assert expected_finite_n_trace(config) is None
            else:
                assert expected_finite_n_trace(config) == expected
            large_n = compare_to_bounds(monte_carlo_mse(config), config).expected_ratio_large_n
            assert large_n == compare_to_bounds(monte_carlo_mse(raw), raw).expected_ratio_large_n

    # an anisotropic amplitude weight, and weights whose off-diagonal
    # entries must not enter
    ANISOTROPIC = np.diag([1.6, 0.4, 1.0])
    FULL = np.array([[1.6, 0.3, 0.2], [0.3, 0.4, -0.1], [0.2, -0.1, 1.0]])
    KNOWN_N = np.array([[1.6, 0.3], [0.3, 0.4]])

    @pytest.mark.parametrize(
        "protocol, weight, n_copies",
        [
            (ProtocolKind.COLLECTIVE_CONCENTRATION, ANISOTROPIC, 10),
            (ProtocolKind.COLLECTIVE_CONCENTRATION, ANISOTROPIC, 1000),
            (ProtocolKind.SEPARABLE_HETERODYNE, ANISOTROPIC, 10),
            (ProtocolKind.SEPARABLE_HETERODYNE, ANISOTROPIC, 1000),
            (ProtocolKind.KNOWN_N_HETERODYNE, KNOWN_N, 10),
            (ProtocolKind.SEPARABLE_HETERODYNE, FULL, 10),
        ],
    )
    def test_finite_n_law_for_every_weight(self, protocol, weight, n_copies):
        config = ExperimentConfig(
            protocol=protocol,
            theta=ThetaPoint.from_zeta(0.5 + 0j, 1.0),
            n_copies=n_copies,
            trials=200_000,
            seed=7,
            weight=WeightMatrix(weight),
        )
        mse = monte_carlo_mse(config)
        assert abs(mse.n_trace_gv - expected_finite_n_trace(config)) < 3.0 * mse.se_trace

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
        # bit for bit the identity's limits 1 and (N+3)/(N+2)
        for n_mean, protocol in itertools.product((0.5, 1.0, 2.0), ProtocolKind):
            config = make_config(protocol, trials=200, n_mean=n_mean)
            expected = compare_to_bounds(monte_carlo_mse(config), config).expected_ratio_large_n
            if protocol is ProtocolKind.SEPARABLE_HETERODYNE:
                assert expected == (n_mean + 3.0) / (n_mean + 2.0)
            else:
                assert expected == 1.0

    def test_anisotropic_expected_ratios(self):
        # C_R = 2(N + 1/2) g1 + sqrt(g1^2 - g2^2) + g0 N(N+1) = 3 + 0.8 + 2 = 5.8;
        # plain heterodyne leaves (N+1)(G11 + G22) = 4 over the amplitude part
        for protocol, trace in ((ProtocolKind.COLLECTIVE_CONCENTRATION, 6.0),
                                (ProtocolKind.SEPARABLE_HETERODYNE, 8.0)):
            config = ExperimentConfig(
                protocol=protocol,
                theta=ThetaPoint.from_zeta(0.5 + 0j, 1.0),
                n_copies=10,
                trials=200,
                seed=0,
                weight=WeightMatrix(np.diag([1.6, 0.4, 1.0])),
            )
            comparison = compare_to_bounds(monte_carlo_mse(config), config)
            assert comparison.c_r == pytest.approx(5.8, rel=1e-15)
            assert comparison.expected_ratio_large_n == pytest.approx(trace / 5.8, rel=1e-15)

    def test_bound_values(self):
        coll = make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, trials=200)
        known = make_config(ProtocolKind.KNOWN_N_HETERODYNE, trials=200)
        assert compare_to_bounds(monte_carlo_mse(coll), coll).c_r == pytest.approx(6.0)
        assert compare_to_bounds(monte_carlo_mse(known), known).c_r == pytest.approx(4.0)

    def test_non_identity_weight_has_an_expected_ratio(self):
        config = ExperimentConfig(
            protocol=ProtocolKind.COLLECTIVE_CONCENTRATION,
            theta=ThetaPoint.from_zeta(0.7071 + 0j, 1.0),
            n_copies=100,
            trials=200,
            seed=0,
            weight=WeightMatrix(np.diag([2.0, 1.0, 0.5])),
        )
        comparison = compare_to_bounds(monte_carlo_mse(config), config)
        # bound for diag(2, 1, 0.5): g0 N(N+1) + 2(N+1/2) g1 + sqrt(g1^2 - g2^2)
        c_r = 0.5 * 2.0 + 3.0 * 1.5 + math.sqrt(1.5**2 - 0.25)
        assert comparison.c_r == pytest.approx(c_r)
        # (N+1)(G11 + G22) + G33 N(N+1) = 6 + 1
        assert comparison.expected_ratio_large_n == pytest.approx(7.0 / c_r, rel=1e-15)

    def test_ratio_that_overflows_is_refused(self):
        # G33 alone gives C_R = N(N+1) = 1e-320, and the separable trace is
        # about (N+1)^2 = 1, so the ratio to C_R is past float64
        config = ExperimentConfig(
            protocol=ProtocolKind.SEPARABLE_HETERODYNE,
            theta=ThetaPoint(0.0, 0.0, 1e-320),
            n_copies=10,
            trials=200,
            seed=0,
            weight=WeightMatrix(np.diag([0.0, 0.0, 1.0])),
        )
        with pytest.raises(DomainError, match="overflows float64"):
            compare_to_bounds(monte_carlo_mse(config), config)


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
        # the collective count total has mean N (n-1), which must stay at most
        # 2**47; the per-copy protocols share the bound on N alone
        assert MAX_N_MEAN == 2.0**47
        make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=2, n_mean=MAX_N_MEAN)
        make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=101, n_mean=MAX_N_MEAN / 100)
        make_config(ProtocolKind.SEPARABLE_HETERODYNE, n_copies=101, n_mean=MAX_N_MEAN)
        with pytest.raises(DomainError, match="n_mean \\* \\(n_copies - 1\\) must be at most 1.4"):
            make_config(ProtocolKind.COLLECTIVE_CONCENTRATION, n_copies=101, n_mean=MAX_N_MEAN / 99)
        for protocol in ProtocolKind:
            with pytest.raises(DomainError, match="at most 1.40737e\\+14"):
                make_config(protocol, n_mean=1e17)

    def test_rejects_n_copies_above_chunk_limit(self):
        # refused in the constructor: n - 1 must be exact in float64
        assert MAX_N_COPIES == 1 << 53
        make_config(ProtocolKind.SEPARABLE_HETERODYNE, n_copies=MAX_N_COPIES)
        for protocol in ProtocolKind:
            with pytest.raises(DomainError, match=f"at most {MAX_N_COPIES}"):
                make_config(protocol, n_copies=MAX_N_COPIES + 1)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_rejects_amplitude_whose_rounding_swamps_the_spread(self, protocol):
        # one ulp of theta may be at most 1e-3 of the estimate's standard
        # deviation sqrt((N+1)/n): at N = 1 and n = 10 that is 4.47e-4
        spread = math.sqrt(2.0 / 10)
        largest = 2.0 ** math.floor(math.log2(1e-3 * spread / 2.0**-52))
        ok = ThetaPoint(largest * (2 - 2.0**-52), -1.0, 1.0)
        too_big = ThetaPoint(1.0, -2 * largest, 1.0)
        dim = protocol.n_params
        base = dict(protocol=protocol, n_copies=10, trials=10, seed=0, weight=WeightMatrix.identity(dim))
        ExperimentConfig(theta=ok, **base)
        for theta in (too_big, ThetaPoint(1e308, 0.0, 1.0)):
            with pytest.raises(DomainError, match="too large for simulation"):
                ExperimentConfig(theta=theta, **base)

    def test_rounding_at_the_amplitude_limit_is_below_budget(self):
        # the budget is 2e-5 of the MSE: shift a known-n run to the largest
        # accepted amplitude and compare with the same draws at theta = 0
        def run(theta1):
            config = ExperimentConfig(
                protocol=ProtocolKind.KNOWN_N_HETERODYNE,
                theta=ThetaPoint(theta1, 0.0, 1.0),
                n_copies=10,
                trials=20000,
                seed=6,
                weight=WeightMatrix.identity(2),
            )
            return monte_carlo_mse(config).n_trace_gv

        largest = 2.0 ** math.floor(math.log2(1e-3 * math.sqrt(0.2) / 2.0**-52))
        shifted = run(largest * (2 - 2.0**-52))
        assert shifted == pytest.approx(run(0.0), rel=2e-5)
