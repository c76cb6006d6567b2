import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import stats as sstats

from dtslab import rng
from dtslab.rng import box_muller, uniform_block


def draws(seed, stream, start, count):
    return uniform_block(rng.stream_keys(seed, np.asarray([stream])), start, count)[0]


def test_same_stream_reproduces():
    a = draws(123, 5, 0, 100)
    b = draws(123, 5, 0, 100)
    assert np.array_equal(a, b)


def test_streams_and_seeds_differ():
    base = draws(123, 5, 0, 64)
    assert not np.array_equal(base, draws(123, 6, 0, 64))
    assert not np.array_equal(base, draws(124, 5, 0, 64))


def test_batching_does_not_change_sequence():
    whole = draws(9, 0, 0, 32)
    parts = np.concatenate([draws(9, 0, 0, 5), draws(9, 0, 5, 3), draws(9, 0, 8, 24)])
    assert np.array_equal(whole, parts)


def test_bulk_block_matches_stream_draws():
    block = uniform_block(rng.stream_keys(77, np.arange(4)), 3, 10)
    for idx in range(4):
        assert np.array_equal(block[idx], draws(77, idx, 0, 13)[3:])


def test_uniform_range_and_moments():
    u = draws(2024, 1, 0, 200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_box_muller_pairs_are_standard_normal():
    z = box_muller(draws(5, 0, 0, 200_000).reshape(100_000, 2))
    assert z.shape == (100_000, 2)
    flat = z.ravel()
    assert abs(flat.mean()) < 0.01
    assert abs(flat.var() - 1.0) < 0.02
    # the two coordinates of a pair are uncorrelated
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert abs(corr) < 0.01


def test_box_muller_layout_matches_uniforms():
    # pair i is built from the uniforms at counters 2i and 2i+1
    u = draws(5, 3, 0, 14).reshape(7, 2)
    pairs = box_muller(u)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    angle = 2.0 * np.pi * u[:, 1]
    assert np.array_equal(pairs[:, 0], radius * np.cos(angle))
    assert np.array_equal(pairs[:, 1], radius * np.sin(angle))


def test_negative_seed_accepted():
    a = draws(-1, 0, 0, 4)
    b = draws(-1, 0, 0, 4)
    assert np.array_equal(a, b)


def test_log1pmx_matches_high_precision():
    # both sides of the series switch at |w| = 0.01, and the far ends
    ws = [-0.9, -0.3, -0.01, -0.00999, -1e-5, -1e-12, 1e-300, 1e-9, 0.00999, 0.01, 0.5, 1e6]
    got = rng._log1pmx(np.array(ws))
    with localcontext() as ctx:
        ctx.prec = 700  # 1 + 1e-300 must not round to 1
        for w, value in zip(ws, got):
            exact = float((1 + Decimal(w)).ln() - Decimal(w))
            assert value == pytest.approx(exact, rel=5e-14, abs=0.0), w


def test_log_poisson_pmf_matches_scipy_and_has_no_cancellation():
    for lam in (10.0, 37.5, 1e3):
        k = np.arange(max(0.0, lam - 8 * math.sqrt(lam)) // 1, lam + 8 * math.sqrt(lam))
        got = rng._log_poisson_pmf(k, np.full(k.shape, lam))
        assert np.allclose(got, sstats.poisson.logpmf(k, lam), rtol=0.0, atol=1e-10)
    # consecutive terms differ by log(lam/(k+1)) exactly; the direct formula
    # would lose about lam * 2**-52 = 0.2 at lam = 1e15
    for lam in (12.0, 1e9, 1e15):
        k = np.unique(np.maximum(0.0, np.floor(lam + math.sqrt(lam) * np.linspace(-6, 6, 25))))
        lam_k = np.full(k.shape, lam)
        step = rng._log_poisson_pmf(k + 1, lam_k) - rng._log_poisson_pmf(k, lam_k)
        assert np.allclose(step, np.log(lam / (k + 1)), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("shape", [1.0, 2.5, 1e6, 1e15])
def test_gamma_matches_law(shape):
    g = rng.gamma(rng.stream_keys(5, np.arange(20000)), shape, 2)
    assert sstats.kstest(g, sstats.gamma(shape).cdf).pvalue > 1e-3


@pytest.mark.parametrize("mean", [1e-3, 0.7, 9.99, 10.0, 250.0, 1e12])
def test_poisson_matches_law(mean):
    # inversion below mean 10, PTRS from 10 on; numpy's sampler is the reference
    k = rng.poisson(rng.stream_keys(5, np.arange(20000)), np.full(20000, mean), 1 << 32)
    assert np.array_equal(k, np.floor(k)) and k.min() >= 0
    reference = np.random.default_rng(11).poisson(mean, 20000)
    assert sstats.ks_2samp(k, reference).pvalue > 1e-3
    assert abs(k.mean() - mean) < 5.0 * math.sqrt(mean / 20000)


def marsaglia_tsang_reference(seed, stream, shape, counter_start):
    """One Gamma(shape, 1) draw, transcribed from Marsaglia & Tsang (2000)."""
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    attempt = 0
    while True:
        u = draws(seed, stream, counter_start + 3 * attempt, 3)
        attempt += 1
        x = box_muller(u[:2])[0]
        v = (1.0 + c * x) ** 3
        if v > 0 and math.log1p(-u[2]) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


def ptrs_reference(seed, stream, lam, counter_start):
    """One Poisson(lam) draw, lam >= 10, transcribed from Hoermann (1993)."""
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    attempt = 0
    while True:
        r = draws(seed, stream, counter_start + 2 * attempt, 2)
        attempt += 1
        u, v = r[0] - 0.5, 1.0 - r[1]
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        log_pmf = -lam + k * math.log(lam) - math.lgamma(k + 1.0)
        if math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b) <= log_pmf:
            return k


def inversion_reference(seed, stream, mu, counter):
    """One Poisson(mu) draw by sequential search of the CDF."""
    u = draws(seed, stream, counter, 1)[0]
    k, p = 0, math.exp(-mu)
    cdf = p
    while u >= cdf:
        k += 1
        p *= mu / k
        if cdf + p == cdf:
            break
        cdf += p
    return k


@pytest.mark.parametrize("shape", [1.0, 3.0, 50.0])
def test_gamma_matches_scalar_transcription(shape):
    # same counters, same decisions; v is formed differently, so the values
    # agree to rounding
    got = rng.gamma(rng.stream_keys(21, np.arange(4000)), shape, 2)
    want = [marsaglia_tsang_reference(21, s, shape, 2) for s in range(4000)]
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def test_poisson_matches_scalar_transcriptions():
    # means on both sides of the switch at 10, small enough that the direct
    # log-pmf of the transcription is accurate
    means = np.array([0.2, 3.0, 9.9, 10.0, 10.5, 40.0, 700.0] * 60)
    got = rng.poisson(rng.stream_keys(21, np.arange(means.size)), means, 1 << 32)
    want = [
        inversion_reference(21, s, m, 1 << 32) if m < 10 else ptrs_reference(21, s, m, 1 << 32)
        for s, m in enumerate(means)
    ]
    assert np.array_equal(got, want)
