import csv
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtslab import cli, csvtext
from dtslab.bounds import ThetaPoint, WeightMatrix
from dtslab.estimator import _CHUNK_TRIALS, ExperimentConfig, ProtocolKind, monte_carlo_mse


_M32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)


def _mul_high(a1, a0, b1, b0):
    """The high 64-bit word of a b, for a = a1 2^32 + a0, b = b1 2^32 + b0."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _round_to_odd(g, cp):
    """floor(cp g / 2^128), its lowest bit set when bits 64 .. 127 exceed 1."""
    g_high, g_low = g
    g3, g2, g1, g0 = g_high >> _U32, g_high & _M32, g_low >> _U32, g_low & _M32
    cp1, cp0 = cp >> _U32, cp & _M32
    x_high = _mul_high(g1, g0, cp1, cp0)
    z = g_high * cp + x_high  # bits 64 .. 127, modulo 2^64
    return (_mul_high(g3, g2, cp1, cp0) + (z < x_high)) | (z > np.uint64(1))


def reference_shortest(x):
    """Schubfach with one 128-bit round-to-odd product for v and for each
    bound of its rounding interval: the reference for `csvtext.shortest`."""
    u1, u2 = np.uint64(1), np.uint64(2)
    bits = x.view(np.uint64)
    biased = bits >> np.uint64(52)
    fraction = bits & np.uint64((1 << 52) - 1)
    c = fraction | np.uint64(1 << 52)
    q = biased.astype(np.int64) - 1075
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 1262611 - irregular * 524031) >> 22
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g = [word[292 - k] for word in csvtext._pow10_table()]
    cb = c << u2
    vb = _round_to_odd(g, cb << h)
    odd = c & u1
    lower = _round_to_odd(g, (cb - u2 + irregular) << h) + odd
    upper = _round_to_odd(g, (cb + u2) << h) - odd
    s = vb >> u2
    sp = s // np.uint64(10)
    sp_in = lower <= sp * np.uint64(40)
    tp_in = sp * np.uint64(40) + np.uint64(40) <= upper
    fewer = sp_in != tp_in
    s4 = s << u2
    s_in = lower <= s4
    t_in = s4 + np.uint64(4) <= upper
    nearer_t = (vb > s4 + u2) | ((vb == s4 + u2) & (s & u1 == 1))
    d = np.where(fewer, sp + tp_in, s + np.where(s_in != t_in, t_in, nearer_t))
    return d, k + fewer


def test_shortest_matches_three_product_reference():
    # one 192-bit product and two exact sums in place of three products:
    # the same (d, e) on 10^6 random positive normal doubles and on edge
    # families, powers of two (whose lower bound is g 2^h below, not
    # g 2^(h+1)) among them
    rng = np.random.default_rng(14)
    count = 10**6
    bits = rng.integers(1, 2047, count, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2**52, count, dtype=np.uint64)
    powers_of_two = np.ldexp(1.0, np.arange(-1022, 1024))
    powers_of_ten = np.array([float(f"1e{e}") for e in range(-307, 309)])
    families = np.concatenate([
        powers_of_two,
        np.nextafter(powers_of_two[1:], 0.0),
        np.nextafter(powers_of_two[:-1], np.inf),
        powers_of_ten,
        np.nextafter(powers_of_ten[1:], 0.0),
        np.nextafter(powers_of_ten[:-1], np.inf),
        np.arange(1.0, 200001.0),
        np.arange(1, 100001) / 1000.0,
        np.arange(1, 100001) / 7.0,
    ])
    values = np.concatenate([bits.view(np.float64), families])
    assert (values >= np.finfo(np.float64).tiny).all() and np.isfinite(values).all()
    irregular = 0
    for chunk in np.array_split(values, 16):
        d, e = csvtext.shortest(chunk.copy())
        d_ref, e_ref = reference_shortest(chunk)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(e, e_ref)
        bits = chunk.view(np.uint64)
        irregular += np.count_nonzero((bits << np.uint64(12) == 0) & (bits >> np.uint64(52) > 1))
    assert irregular >= 2045  # 2^-1021 .. 2^1023 at least


def test_round_to_odd_sums_are_exact():
    # the two 192-bit sums against integer arithmetic, with the carries and
    # borrows that cross a whole word and middle words of 0, 1 and 2 (the
    # round-to-odd bit) made to occur
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(300):
        g = 1 << 127 | int(rng.integers(0, 2**63, dtype=np.uint64)) << 64
        g |= int(rng.integers(0, 2**64, dtype=np.uint64))
        shift = int(rng.integers(1, 6))
        d = g << shift
        d1, d0 = d >> 64 & (2**64 - 1), d & (2**64 - 1)
        high = int(rng.integers(64, 2**59, dtype=np.uint64)) << 128
        noise = int(rng.integers(0, 2**64, dtype=np.uint64))
        for subtract in (False, True):
            sign = -1 if subtract else 1
            # middle +- d1 is t before the carry or borrow from the low word
            middles = [noise] + [(t - sign * d1) % 2**64 for t in (0, 1, 2, 2**64 - 1)]
            for middle in middles:
                for low in (0, noise, 2**64 - 1, d0, (d0 - 1) % 2**64):
                    cases.append((high | middle << 64 | low, g, shift, subtract))

    def words(values, count):
        return [np.array([v >> 64 * i & (2**64 - 1) for v in values], dtype=np.uint64)
                for i in reversed(range(count))]

    for subtract in (False, True):
        p, g, shift = zip(*(case[:3] for case in cases if case[3] == subtract))
        got = csvtext._round_to_odd_sum(*words(p, 3), *words(g, 2),
                                        np.array(shift, dtype=np.uint64), subtract)
        for p_value, g_value, s, result in zip(p, g, shift, got.tolist()):
            x = p_value - (g_value << s) if subtract else p_value + (g_value << s)
            assert result == x >> 128 | (x >> 64 & (2**64 - 1) > 1)


def encoded_fields(values) -> list[bytes]:
    """The CSV field of each value, from rows `index, value`."""
    out = io.BytesIO()
    csvtext.RowWriter(out, ["i", "x"]).write(0, [np.asarray(values, dtype=np.float64)])
    lines = out.getvalue().split(b"\r\n")
    assert lines[0] == b"i,x" and lines[-1] == b""
    return [line.split(b",", 1)[1] for line in lines[1:-1]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_field_is_repr(values):
    # st.floats() draws nan, +-inf, +-0, subnormals and the largest finite values
    assert encoded_fields(values) == [repr(v).encode() for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_field_of_any_bit_pattern_is_repr(patterns):
    values = [struct.unpack("<d", struct.pack("<Q", p))[0] for p in patterns]
    assert encoded_fields(values) == [repr(v).encode() for v in values]


@pytest.mark.parametrize(
    "values",
    [
        # powers of two (the lower neighbour is closer), powers of ten and
        # their neighbours, every decpt at the positional/exponent switch
        np.ldexp(1.0, np.arange(-1022, 1024)),
        np.array([float(f"1e{e}") for e in range(-307, 309)]),
        np.nextafter(np.array([float(f"1e{e}") for e in range(-307, 309)]), np.inf),
        np.array([1e16, 9999999999999998.0, 1.5e16, 1e-4, 9.999999999999999e-05, 0.00012]),
        np.arange(1.0, 20001.0),
        np.arange(1, 20001) / 1000.0,
    ],
)
def test_edge_values_are_repr(values):
    assert encoded_fields(values) == [repr(v).encode() for v in values.tolist()]


def test_rows_match_csv_writer_across_blocks():
    rng = np.random.default_rng(3)
    rows = 2 * csvtext.BLOCK_ROWS + 7
    columns = [rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 20, rows) for _ in range(3)]
    columns.insert(1, None)
    header = ["trial", "a", "blank", "b", "c"]
    out = io.BytesIO()
    csvtext.RowWriter(out, header).write(10**15 - 3, columns)
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(range(10**15 - 3, 10**15 - 3 + rows), columns[0].tolist(),
                         [""] * rows, *(c.tolist() for c in columns[2:])))
    assert out.getvalue() == text.getvalue().encode()


def expected_rows(header, start, columns) -> bytes:
    """The rows as csv.writer writes them, a None column as empty fields."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    rows = next(len(column) for column in columns if column is not None)
    fields = [[""] * rows if column is None else column.tolist() for column in columns]
    writer.writerows(zip(range(start, start + rows), *fields))
    return text.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 2 * csvtext.BLOCK_ROWS + 3),
    digits=st.integers(0, 16),
    present=st.lists(st.booleans(), min_size=6, max_size=6).filter(any),
    pool=st.lists(st.floats(), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=csvtext.BLOCK_ROWS + 1, digits=3, present=[True, False, True, True, False, False],
         pool=[0.0, -2.5e-7, float("nan"), 1e16, -5e-324], seed=0)
@example(rows=2 * csvtext.BLOCK_ROWS + 3, digits=16, present=[True] * 6,
         pool=[1.0, -0.1, 123456.789, 1e-5, float("-inf")], seed=1)
def test_rows_match_csv_writer_at_block_edges(rows, digits, present, pool, seed):
    # the row indices cross 10^digits halfway, so the index width changes
    # inside the rows; the fields are drawn from a pool of st.floats()
    start = max(0, 10**digits - rows // 2)
    rng = np.random.default_rng(seed)
    columns = [rng.choice(np.array(pool), rows) if keep else None for keep in present]
    header = ["trial", *(f"x{j}" for j in range(6))]
    out = io.BytesIO()
    csvtext.RowWriter(out, header).write(start, columns)
    assert out.getvalue() == expected_rows(header, start, columns)


def test_blank_fields_take_no_float_work(monkeypatch):
    rows = 2 * csvtext.BLOCK_ROWS + 5
    handed = []

    def spy(x):
        handed.append(x.size)
        return shortest(x)

    shortest = csvtext.shortest
    monkeypatch.setattr(csvtext, "shortest", spy)
    rng = np.random.default_rng(2)
    columns = [rng.standard_normal(rows) for _ in range(4)]
    columns[2:2] = [None]
    columns.append(None)
    header = ["trial", *(f"x{j}" for j in range(6))]
    out = io.BytesIO()
    csvtext.RowWriter(out, header).write(0, columns)
    assert sum(handed) == 4 * rows
    assert out.getvalue() == expected_rows(header, 0, columns)


def test_columns_may_change_presence_between_writes():
    # a slot keeps the bytes of its last value; a blank field must still
    # write only its ","
    rng = np.random.default_rng(5)
    header = ["trial", "a", "b", "c"]
    calls = [
        (0, [-rng.random(9) * 1e-3, rng.random(9), np.full(9, 5e-324)]),
        (9, [None, rng.random(4), None]),
        (13, [rng.random(3), None, -rng.random(3) * 1e300]),
    ]
    out = io.BytesIO()
    writer = csvtext.RowWriter(out, header)
    for start, columns in calls:
        writer.write(start, columns)
    want = [expected_rows(header, start, columns) for start, columns in calls]
    want[1:] = [rows.split(b"\r\n", 1)[1] for rows in want[1:]]  # one header
    assert out.getvalue() == b"".join(want)


def test_index_has_at_most_17_digits():
    out = io.BytesIO()
    writer = csvtext.RowWriter(out, ["i", "x"])
    writer.write(10**17 - 2, [np.ones(2)])
    assert out.getvalue() == b"i,x\r\n99999999999999998,1.0\r\n99999999999999999,1.0\r\n"
    with pytest.raises(ValueError, match="row indices"):
        writer.write(10**17 - 1, [np.ones(2)])


@pytest.mark.parametrize(
    "header,columns,message",
    [
        (["i", "x", "y"], [None, None], "at least one column"),
        (["i", "x"], [np.ones(2), np.ones(2)], "expected 1 columns"),
        (["i", "x", "y"], [np.ones(1)], "expected 2 columns"),
        # within one block, so the longer column would lose its last value
        (["i", "x", "y"], [np.ones(1024), np.ones(1025)], "equal lengths"),
    ],
    ids=["all-none", "too-many", "too-few", "unequal-lengths"],
)
def test_malformed_columns_are_refused(header, columns, message):
    out = io.BytesIO()
    with pytest.raises(ValueError, match=message):
        csvtext.RowWriter(out, header).write(0, columns)
    assert out.getvalue() == (",".join(header) + "\r\n").encode()


def reference_trial_csv(config: ExperimentConfig) -> bytes:
    """The trial CSV of a run as csv.writer writes it, the numpy encoder's reference."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(cli.CSV_COLUMNS)

    def sink(start, zeta_hat, n_hat, errors):
        count = zeta_hat.shape[0]
        blank = [""] * count
        columns = [
            range(start, start + count),
            zeta_hat.real.tolist(),
            zeta_hat.imag.tolist(),
            blank if n_hat is None else n_hat.tolist(),
            *(errors * errors).T.tolist(),
        ]
        if errors.shape[1] == 2:
            columns.append(blank)
        writer.writerows(zip(*columns))

    monte_carlo_mse(config, trial_sink=sink)
    return text.getvalue().encode()


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_trial_csv_matches_csv_writer_over_chunks(tmp_path, protocol):
    # three chunks, the last one partial, so block and chunk edges both occur
    trials = 10000
    assert trials > 2 * _CHUNK_TRIALS and trials % _CHUNK_TRIALS
    path = tmp_path / "trials.csv"
    code = cli.main([
        "simulate", "--protocol", protocol.value, "--n-mean", "1", "--zeta-re", "0.5",
        "--n-copies", "10", "--trials", str(trials), "--seed", "11", "--trial-csv", str(path),
    ])
    assert code == 0
    config = ExperimentConfig(
        protocol=protocol,
        theta=ThetaPoint.from_zeta(0.5 + 0j, 1.0),
        n_copies=10,
        trials=trials,
        seed=11,
        weight=WeightMatrix.identity(protocol.n_params),
    )
    assert path.read_bytes() == reference_trial_csv(config)


def test_sink_memory_is_a_few_blocks():
    # a 4096-row chunk laid out at once would take 1.8 MiB of text and mask;
    # block by block the encoder's temporaries stay below 1 MiB, with every
    # field present (collective, separable) and with two blank (known-n)
    rng = np.random.default_rng(1)
    columns = [rng.standard_normal(_CHUNK_TRIALS) for _ in range(6)]
    for layout in (columns, [*columns[:2], None, *columns[3:5], None]):
        with open(os.devnull, "wb") as fh:
            writer = csvtext.RowWriter(fh, cli.CSV_COLUMNS)
            writer.write(0, layout)  # builds the tables
            tracemalloc.start()
            try:
                writer.write(_CHUNK_TRIALS, layout)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2**20
