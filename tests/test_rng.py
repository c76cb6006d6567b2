import numpy as np

from dtslab.rng import box_muller, uniform_block


def draws(seed, stream, start, count):
    return uniform_block(seed, np.asarray([stream]), start, count)[0]


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
    block = uniform_block(77, np.arange(4), 3, 10)
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
