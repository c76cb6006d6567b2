import numpy as np
import pytest

from dtslab.errors import DomainError
from dtslab.linalg import (
    hermitian_part,
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


def test_hermitian_decomposition_recombines():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian_part(a)
    k = a - h  # the anti-Hermitian complement
    assert np.allclose(h, h.conj().T)
    assert np.allclose(k, -k.conj().T)
    assert np.allclose(k, (a - a.conj().T) / 2, rtol=0, atol=1e-15)
    assert h.shape == a.shape and k.shape == a.shape


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
