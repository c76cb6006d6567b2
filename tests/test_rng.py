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


# The samplers as they were before the first attempt read its arrays in
# place and before Gamma formed only the cosine of its normal pair: the
# references the current code must match bit for bit.  Each also returns
# how many attempts every stream took.

def reference_uniform_block(keys, counter_start, count):
    counters = np.arange(counter_start, counter_start + count, dtype=np.uint64)
    z = keys[..., None] + (counters + np.uint64(1)) * rng._GAMMA
    z = (z ^ (z >> np.uint64(30))) * rng._MULT1
    z = (z ^ (z >> np.uint64(27))) * rng._MULT2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def reference_log1pmx(w):
    out = np.log1p(w) - w
    small = np.abs(w) < 0.01
    ws = w[small]
    acc = np.zeros_like(ws)
    for m in range(11, 1, -1):
        acc = acc * ws + (-1.0) ** (m + 1) / m
    out[small] = acc * ws * ws
    return out


def reference_gamma(keys, shape, counter_start):
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(keys.shape[0])
    attempts = np.zeros(keys.shape[0], dtype=np.int64)
    pending = np.arange(keys.shape[0])
    attempt = 0
    while pending.size:
        attempts[pending] += 1
        u = reference_uniform_block(keys[pending], counter_start + 3 * attempt, 3)
        x = box_muller(u[:, :2])[:, 0]
        t = c * x
        w = t * (3.0 + t * (3.0 + t))
        live = w > -1.0
        log_ratio = 0.5 * x * x + d * reference_log1pmx(np.where(live, w, 0.0))
        accept = live & (np.log1p(-u[:, 2]) < log_ratio)
        out[pending[accept]] = d * (1.0 + t[accept]) ** 3
        pending = pending[~accept]
        attempt += 1
    return out, attempts


def reference_log_poisson_pmf(k, lam):
    out = np.empty(k.shape)
    low = k < 10
    kl = k[low]
    out[low] = -lam[low] + kl * np.log(lam[low]) - rng._LOG_FACTORIAL[kl.astype(np.int64)]
    kh = k[~low]
    inv = 1.0 / kh
    inv2 = inv * inv
    series = inv * (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188))))
    out[~low] = kh * reference_log1pmx((lam[~low] - kh) / kh) - rng._HALF_LOG_2PI - 0.5 * np.log(kh) - series
    return out


def reference_poisson_ptrs(keys, lam, counter_start):
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    log_inv_alpha = np.log(1.1239 + 1.1328 / (b - 3.4))
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    out = np.empty(lam.shape)
    attempts = np.zeros(lam.shape[0], dtype=np.int64)
    pending = np.arange(lam.shape[0])
    attempt = 0
    while pending.size:
        attempts[pending] += 1
        r = reference_uniform_block(keys[pending], counter_start + 2 * attempt, 2)
        lp, ap, bp = lam[pending], a[pending], b[pending]
        u = r[:, 0] - 0.5
        v = 1.0 - r[:, 1]
        us = 0.5 - np.abs(u)
        with np.errstate(divide="ignore"):
            k = np.floor((2.0 * ap / us + bp) * u + lp + 0.43)
        accept = (us >= 0.07) & (v <= v_r[pending])
        test = ~accept & (k >= 0) & ~((us < 0.013) & (v > us))
        lhs = np.log(v[test]) + log_inv_alpha[pending][test] - np.log(ap[test] / us[test] ** 2 + bp[test])
        accept[test] = lhs <= reference_log_poisson_pmf(k[test], lp[test])
        out[pending[accept]] = k[accept]
        pending = pending[~accept]
        attempt += 1
    return out, attempts


def reference_poisson(keys, means, counter_start):
    out = np.empty(means.shape)
    attempts = np.ones(means.shape[0], dtype=np.int64)  # inversion takes one uniform
    small = means < 10.0
    out[small] = rng._poisson_inversion(keys[small], means[small], counter_start)
    out[~small], attempts[~small] = reference_poisson_ptrs(keys[~small], means[~small], counter_start)
    return out, attempts


def streams_with_retries(attempts, count=4096):
    """The `count` candidate streams that took the most attempts, in order."""
    return np.sort(np.argsort(-attempts, kind="stable")[:count])


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uniform_block_matches_reference_bits():
    for streams in (0, 1, 7, 4096):
        keys = rng.stream_keys(13, np.arange(streams, dtype=np.uint64) + np.uint64(2**63))
        for start, count in ((0, 0), (0, 1), (3, 2), (2**40, 3), (5, 1000)):
            got = uniform_block(keys, start, count)
            assert got.shape == (streams, count) and got.flags.c_contiguous
            assert_same_bits(got, reference_uniform_block(keys, start, count))


# the most attempts among the 4096 streams chosen from 2**16 candidates;
# from shape 9 on, three attempts are rarer than one stream in 2**16
@pytest.mark.parametrize("shape, most", [
    (1.0, 4), (1.5, 4), (9.0, 2), (99.0, 2), (999.0, 1), (1e6, 1),
])
def test_gamma_matches_reference_bits(shape, most):
    candidates = rng.stream_keys(21, np.arange(1 << 16))
    want, attempts = reference_gamma(candidates, shape, 2)
    chosen = streams_with_retries(attempts)
    assert attempts[chosen].max() == most
    assert_same_bits(rng.gamma(candidates[chosen], shape, 2), want[chosen])


@pytest.mark.parametrize("mean", [0.5, 9.99, 10.0, 20.0, 200.0, 2000.0, 1e6])
def test_poisson_matches_reference_bits(mean):
    candidates = rng.stream_keys(21, np.arange(1 << 16))
    means = np.full(candidates.shape, mean)
    want, attempts = reference_poisson(candidates, means, 1 << 32)
    chosen = streams_with_retries(attempts)
    assert attempts[chosen].max() >= (3 if mean >= 10.0 else 1)
    assert_same_bits(rng.poisson(candidates[chosen], means[chosen], 1 << 32), want[chosen])


def test_poisson_of_mixed_means_matches_reference_bits():
    keys = rng.stream_keys(4, np.arange(4096))
    means = np.exp(np.linspace(math.log(1e-3), math.log(1e7), 4096))
    assert_same_bits(rng.poisson(keys, means, 3), reference_poisson(keys, means, 3)[0])


def test_log1pmx_matches_reference_bits():
    draw = np.random.default_rng(9)
    w = np.concatenate([
        np.linspace(-0.999, 3.0, 40001),
        draw.uniform(-0.012, 0.012, 40000),
        [-0.01, -0.00999, -1e-300, 0.0, 1e-300, 0.00999, 0.01],
    ])
    assert_same_bits(rng._log1pmx(w), reference_log1pmx(w))


def test_log_poisson_pmf_matches_reference_bits():
    draw = np.random.default_rng(8)
    for lam in (10.0, 20.0, 1e3, 1e9):
        k = np.floor(draw.uniform(0.0, 3.0 * lam, 4096))
        lam_k = np.full(k.shape, lam)
        for pick in (k >= 0, k >= 10, k < 10):  # both forms, only Stirling's, only the table
            assert_same_bits(rng._log_poisson_pmf(k[pick], lam_k[pick]),
                             reference_log_poisson_pmf(k[pick], lam_k[pick]))


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
