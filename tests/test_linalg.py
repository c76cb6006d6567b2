import numpy as np
import pytest

from dtslab.errors import DomainError
from dtslab.linalg import (
    rank_frobenius_bound,
    sqrt_psd,
    trace_distance,
    trace_norm,
)


def test_sqrt_psd_diagonal():
    assert np.allclose(sqrt_psd(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-14)


def test_sqrt_psd_identity():
    assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-14)


def test_sqrt_psd_squares_back():
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    root = sqrt_psd(m)
    assert np.linalg.norm(root @ root - m) < 1e-10
    assert np.allclose(root, root.T)


def test_sqrt_psd_random_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        m = a @ a.T
        root = sqrt_psd(m)
        assert np.linalg.norm(root @ root - m) < 1e-9 * max(1.0, np.linalg.norm(m))


def test_sqrt_psd_rejects_asymmetric():
    with pytest.raises(DomainError):
        sqrt_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sqrt_psd_rejects_indefinite():
    with pytest.raises(DomainError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_trace_norm_antisymmetric():
    assert trace_norm(np.array([[0.0, 0.5], [-0.5, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_trace_norm_padded_antisymmetric_against_eigen_oracle():
    m = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # independent oracle: for real antisymmetric m, singular values are the
    # absolute eigenvalues of the Hermitian matrix i*m
    oracle = float(np.abs(np.linalg.eigvalsh(1j * m)).sum())
    assert oracle == pytest.approx(1.0, abs=1e-14)
    assert trace_norm(m) == pytest.approx(oracle, abs=1e-12)


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(DomainError):
        trace_norm(np.zeros((2, 3)))


def near_hermitian(n, dtype):
    # a Hermitian matrix plus a skew part inside the 1e-9 tolerance
    rng = np.random.default_rng(11)
    a = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=(n, n))
    return a + a.conj().T + 1e-12 * rng.normal(size=(n, n))


@pytest.mark.parametrize("n", [4, 150])
@pytest.mark.parametrize("dtype", [float, complex])
def test_trace_distance_takes_the_hermitian_part(n, dtype):
    # the skew part is dropped exactly as by (a + conj(a.T)) / 2: IEEE
    # addition commutes, so the order of the two terms moves no bit
    a = near_hermitian(n, dtype)
    h = (a + a.conj().T) / 2
    assert np.array_equal(h, (a.conj().T + a) / 2)
    assert trace_distance(a, np.zeros((n, n))) == float(np.abs(np.linalg.eigvalsh(h)).sum()) / 2


def test_trace_distance_rejects_a_skew_entry():
    a = np.eye(150)
    a[3, 148] = 1e-6
    with pytest.raises(DomainError):
        trace_distance(a, np.eye(150))


@pytest.mark.parametrize("row,col", [(1, 0), (149, 140), (3, 148)])
def test_rank_frobenius_bound_rejects_a_skew_entry_in_any_strip(row, col):
    # 150 rows span three strips, the last one short
    a = np.eye(150)
    a[row, col] = 1e-6
    with pytest.raises(DomainError):
        rank_frobenius_bound(a)


def strip_gate_raises(d):
    # the Hermiticity gate of rank_frobenius_bound, run on every input
    scale = skew = 0.0
    for start in range(0, d.shape[0], 64):
        upper = d[start : start + 64, start:]
        lower = d[start:, start : start + 64]
        scale = max(scale, float(np.max(np.abs(upper))), float(np.max(np.abs(lower))))
        skew = max(skew, float(np.max(np.abs(upper - np.conjugate(lower.T)))) / 2)
    return skew > 1e-9 * max(1.0, scale)


def gate_cases(dtype):
    # side-150 matrices at Frobenius norms from 1e-11 to 1e-6, their skew
    # part spread out or in one entry pair, on both sides of the gate
    rng = np.random.default_rng(21)
    n = 150
    for norm in np.logspace(-11, -6, 31):
        for skew_share in (1e-3, 0.05, 0.3, 1.0):
            h = rng.normal(size=(n, n)).astype(dtype)
            s = rng.normal(size=(n, n)).astype(dtype)
            if dtype is complex:
                h += 1j * rng.normal(size=(n, n))
                s += 1j * rng.normal(size=(n, n))
            h += h.conj().T
            s -= s.conj().T
            concentrated = np.zeros_like(s)
            concentrated[7, 120] = s[7, 120]
            for skew in (s, concentrated):
                d = h / np.linalg.norm(h) + skew_share * skew / np.linalg.norm(skew)
                d *= norm / np.linalg.norm(d)
                yield d


@pytest.mark.parametrize("dtype", [float, complex])
def test_rank_frobenius_bound_raises_exactly_where_the_strip_gate_does(dtype):
    # the gate is skipped at small norms; it must not change a verdict
    verdicts = []
    for d in gate_cases(dtype):
        raises = strip_gate_raises(d)
        verdicts.append(raises)
        if raises:
            with pytest.raises(DomainError):
                rank_frobenius_bound(d)
        else:
            assert rank_frobenius_bound(d) == float(np.sqrt(d.shape[0]) * np.linalg.norm(d))
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("dtype", [float, complex])
def test_trace_distance_raises_exactly_where_the_strip_gate_does(dtype):
    # trace_distance runs the same gate on the difference, at every norm
    for d in gate_cases(dtype):
        zero = np.zeros_like(d)
        if strip_gate_raises(d):
            with pytest.raises(DomainError):
                trace_distance(d, zero)
        else:
            trace_distance(d, zero)


def test_rank_frobenius_bound_and_trace_distance_reject_nonsquare():
    for f in (rank_frobenius_bound, lambda d: trace_distance(d, d)):
        with pytest.raises(DomainError):
            f(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [4, 150])
@pytest.mark.parametrize("dtype", [float, complex])
def test_rank_frobenius_bound_holds_and_leaves_its_argument(n, dtype):
    a = near_hermitian(n, dtype)
    a0 = a.copy()
    bound = rank_frobenius_bound(a)
    assert np.array_equal(a, a0)
    assert bound == float(np.sqrt(n) * np.linalg.norm(a))
    exact = 2 * trace_distance(a, np.zeros((n, n)))
    # ||d||_1 <= sqrt(n) ||d||_F <= sqrt(n) ||d||_1
    assert exact <= bound <= np.sqrt(n) * exact


def test_rank_frobenius_bound_is_tight_at_equal_moduli():
    d = np.diag([1.0, -1.0, 1.0, -1.0])
    assert rank_frobenius_bound(d) == 4.0 == 2 * trace_distance(d, np.zeros((4, 4)))


def test_trace_distance_basic():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(0.5, abs=1e-14)
    assert trace_distance(a, a) == 0.0


def test_trace_distance_zero_imaginary_part_matches_real():
    # a complex operator whose imaginary part is exactly zero runs the complex
    # Hermitian eigensolver and must agree with the real one on its real part
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 30))
    y = rng.normal(size=(30, 30))
    a, b = x + x.T, y + y.T
    real = trace_distance(a, b)
    assert trace_distance(a.astype(complex), b.astype(complex)) == pytest.approx(real, rel=1e-15)


def test_trace_distance_leaves_its_inputs_untouched():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(70, 70)), rng.normal(size=(70, 70))
    a, b = x + x.T, y + y.T
    a0, b0 = a.copy(), b.copy()
    trace_distance(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
