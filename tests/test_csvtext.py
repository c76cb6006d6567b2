import csv
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtslab import cli, csvtext
from dtslab.bounds import ThetaPoint, WeightMatrix
from dtslab.estimator import _CHUNK_TRIALS, ExperimentConfig, ProtocolKind, monte_carlo_mse


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


def test_index_has_at_most_17_digits():
    out = io.BytesIO()
    writer = csvtext.RowWriter(out, ["i", "x"])
    writer.write(10**17 - 2, [np.ones(2)])
    assert out.getvalue() == b"i,x\r\n99999999999999998,1.0\r\n99999999999999999,1.0\r\n"
    with pytest.raises(ValueError, match="row indices"):
        writer.write(10**17 - 1, [np.ones(2)])


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
    # a 4096-row chunk laid out at once would take 2.7 MiB of text and mask;
    # block by block the encoder's temporaries stay below 1 MiB
    rng = np.random.default_rng(1)
    columns = [rng.standard_normal(_CHUNK_TRIALS) for _ in range(6)]
    with open(os.devnull, "wb") as fh:
        writer = csvtext.RowWriter(fh, cli.CSV_COLUMNS)
        writer.write(0, columns)  # builds the tables
        tracemalloc.start()
        try:
            writer.write(_CHUNK_TRIALS, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20
