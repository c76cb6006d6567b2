import collections
import decimal
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dtslab.bounds import (
    ThetaPoint,
    WeightMatrix,
    _integer_matrix,
    _integers,
    _psd_rank,
    _radical,
    c_r_closed_2param,
    c_r_closed_3param,
    c_r_general,
    load_weight,
    optimal_gaussian_tradeoff,
    rld_inverse_2param,
    rld_inverse_3param,
)
from dtslab.errors import DomainError


def random_psd_2(rng):
    a = rng.normal(size=(2, 2))
    return WeightMatrix(a @ a.T)


def random_block_3(rng):
    g1 = rng.uniform(0.1, 2.0)
    mag = rng.uniform(0.0, 0.95) * g1
    ang = rng.uniform(0.0, 2.0 * math.pi)
    g0 = rng.uniform(0.0, 2.0)
    return g0, g1, mag * math.cos(ang), mag * math.sin(ang)


class TestThetaPoint:
    def test_zeta_accessor_exact(self):
        theta = ThetaPoint(0.3, -1.2, 1.0)
        assert theta.zeta == complex(0.3, -1.2) / math.sqrt(2.0)

    def test_from_zeta_roundtrip(self):
        theta = ThetaPoint.from_zeta(0.3 + 0.4j, 0.5)
        assert theta.zeta == pytest.approx(0.3 + 0.4j, abs=1e-15)
        assert theta.n_mean == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_n(self, bad):
        with pytest.raises(DomainError):
            ThetaPoint(0.0, 0.0, bad)

    def test_infinite_n_is_refused_by_name(self):
        with pytest.raises(DomainError, match="^n_mean must be finite, got inf$"):
            ThetaPoint(0.0, 0.0, math.inf)
        with pytest.raises(DomainError, match="theta components"):
            ThetaPoint(math.inf, 0.0, 1.0)


class TestWeightMatrix:
    def test_two_param_decomposition_roundtrip(self):
        w = WeightMatrix(np.array([[1.2 + 0.3, -0.4], [-0.4, 1.2 - 0.3]]))
        assert w.two_param_gs() == pytest.approx((1.2, 0.3, -0.4), abs=1e-15)
        assert np.allclose(w.entries, [[1.5, -0.4], [-0.4, 0.9]])
        # the matrix round-trip is exact
        g1, g2, g3 = w.two_param_gs()
        again = WeightMatrix(np.array([[g1 + g2, g3], [g3, g1 - g2]]))
        assert np.array_equal(again.entries, w.entries)

    def test_three_param_block_roundtrip(self):
        w = WeightMatrix(np.array([[1.2, 0.1, 0.0], [0.1, 0.8, 0.0], [0.0, 0.0, 0.7]]))
        assert w.three_param_gs() == pytest.approx((0.7, 1.0, 0.2, 0.1), abs=1e-15)

    def test_off_block_entries_leave_closed_form_equal_to_general(self):
        # G13 and G23 never enter C_R: the closed form of the block and the
        # (3,3) entry is the bound of the full weight
        m = np.array([[1.5, 0.25, 0.5], [0.25, 0.75, -0.375], [0.5, -0.375, 1.25]])
        w = WeightMatrix(m)
        block = WeightMatrix(np.array([[1.5, 0.25, 0.0], [0.25, 0.75, 0.0], [0.0, 0.0, 1.25]]))
        assert w.three_param_gs() == (1.25, 1.125, 0.375, 0.25)
        for n_mean in (1e-12, 0.5, 1.0, 7.3, 1e150):
            general = c_r_general(w, n_mean)
            assert c_r_closed_3param(*w.three_param_gs(), n_mean) == pytest.approx(
                general, rel=4 * 2.0**-53
            )
            assert general == c_r_general(block, n_mean)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            WeightMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            WeightMatrix(np.diag([1.0, -0.1]))

    def test_rejects_wrong_dim(self):
        with pytest.raises(DomainError):
            WeightMatrix(np.eye(4))

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 0.25 + 1e-14], [0.25, 1.0]])
        w = WeightMatrix(m)
        assert np.allclose(w.entries, w.entries.T)

    def test_symmetric_input_keeps_its_bits(self):
        m = np.diag([5e-324, 1.5e-323])  # halving and summing would give 0 and 2e-323
        assert np.array_equal(WeightMatrix(m).entries, m)

    def test_averages_only_the_pairs_that_differ(self):
        m = np.array([[1.0, 0.25 + 2**-50, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 1.5e-323]])
        g = WeightMatrix(m).entries
        assert g[0, 1] == g[1, 0] == 0.25 + 2**-51
        assert g[2, 2] == 1.5e-323

    @pytest.mark.parametrize("m", [[[1.0, 1e-10], [-1e-10, 1.0]], [[1.0, 5e-324], [0.0, 1.0]],
                                   [[1e300, 1e300], [-1e300, 1e300]]])
    def test_symmetry_is_relative_to_each_pair(self, m):
        with pytest.raises(DomainError, match="^weight matrix must be symmetric$"):
            WeightMatrix(np.array(m))
        big = 2e299 * (1 + 2e-10)  # within 1e-9 of the pair, at any scale
        assert WeightMatrix(np.array([[1e300, 2e299], [big, 1e300]])).entries[0, 1] == 2e299 / 2 + big / 2


class TestPsdRank:
    def test_three_answers(self):
        assert _psd_rank([[1, 0], [0, 1]]) == "full rank"
        assert _psd_rank([[1, 1], [1, 1]]) == "rank-deficient"
        assert _psd_rank([[1, 2], [2, 1]]) == "not PSD"
        assert _psd_rank([[0, 0, 0], [0, 1, 0], [0, 0, -1]]) == "not PSD"

    def test_small_integer_matrices_against_eigenvalues(self):
        # every symmetric 2x2 matrix with entries in -2..2 and 3x3 in -1..1;
        # a nonzero determinant of such a matrix keeps its eigenvalues off 0
        cases = [[[a, b], [b, d]] for a, b, d in itertools.product(range(-2, 3), repeat=3)]
        cases += [
            [[a, b, c], [b, d, e], [c, e, f]]
            for a, b, c, d, e, f in itertools.product(range(-1, 2), repeat=6)
        ]
        for g in cases:
            low = np.linalg.eigvalsh(np.array(g, dtype=float)).min()
            expected = "not PSD" if low < -1e-9 else "full rank" if low > 1e-9 else "rank-deficient"
            assert _psd_rank(g) == expected, g
            assert _psd_rank([[x << 3000 for x in row] for row in g]) == expected, g

    def test_tolerance_is_relative_to_each_minor(self):
        # [[1, 0.1], [0.1, 0.01]] has determinant -9.0e-19 in binary, within
        # 1e-12 of its terms; moving G22 by 1e-10 is not
        assert _psd_rank(_integer_matrix(np.array([[1.0, 0.1], [0.1, 0.01]]))) == "rank-deficient"
        assert _psd_rank(_integer_matrix(np.array([[1.0, 0.1], [0.1, 0.01 - 1e-10]]))) == "not PSD"
        assert _psd_rank(_integer_matrix(np.array([[1.0, 0.1], [0.1, 0.01 + 1e-10]]))) == "full rank"


class TestRldInverse:
    def test_2param_at_n1(self):
        expected = np.array([[1.5, 0.5j], [-0.5j, 1.5]])
        assert np.allclose(rld_inverse_2param(1.0), expected, atol=1e-15)

    def test_2param_at_half(self):
        expected = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        assert np.allclose(rld_inverse_2param(0.5), expected, atol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_rejects_nonpositive_n(self, bad):
        with pytest.raises(DomainError):
            rld_inverse_2param(bad)
        with pytest.raises(DomainError):
            rld_inverse_3param(bad)

    def test_3param_block(self):
        m = rld_inverse_3param(1.0)
        assert np.allclose(m[:2, :2], rld_inverse_2param(1.0))
        assert m[2, 2] == pytest.approx(2.0)
        assert np.allclose(m[2, :2], 0) and np.allclose(m[:2, 2], 0)

    def test_3param_n2_entry(self):
        assert rld_inverse_3param(2.0)[2, 2] == pytest.approx(6.0)

    def test_3param_refuses_an_overflowing_entry(self):
        # N(N+1) is finite up to sqrt(max float) = 1.3408e154 and inf above
        assert np.isfinite(rld_inverse_3param(1.34e154)[2, 2])
        with pytest.raises(DomainError, match="at most 1.34e154"):
            rld_inverse_3param(1.35e154)

    @pytest.mark.parametrize("n_mean", [0.3, 0.5, 1.0, 2.0, 7.5])
    def test_hermitian_with_psd_real_part(self, n_mean):
        for m in (rld_inverse_2param(n_mean), rld_inverse_3param(n_mean)):
            assert np.allclose(m, m.conj().T)
            assert m[-1, -1].imag == 0.0
            assert np.linalg.eigvalsh(m.real).min() > 0


class TestCrGeneral:
    def test_identity2(self):
        assert c_r_general(WeightMatrix.identity(2), 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_identity3(self):
        assert c_r_general(WeightMatrix.identity(3), 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_zero_weight(self):
        assert c_r_general(WeightMatrix(np.zeros((2, 2))), 1.0) == 0.0

    def test_overflowing_bound_is_refused(self):
        weight = WeightMatrix(np.eye(2) * 1e10)
        with pytest.raises(DomainError, match="overflows"):
            c_r_general(weight, 1e300)
        with pytest.raises(DomainError, match="overflows"):
            c_r_closed_2param(1e10, 0.0, 0.0, 1e300)

    # at the identity weight Tr |sqrt(G) Im Jinv sqrt(G)| is the trace norm
    # of Im Jinv = [[0, 1/2], [-1/2, 0]] (padded by a zero row and column for
    # three parameters)
    def test_imaginary_term_of_an_antisymmetric_matrix(self):
        assert c_r_general(WeightMatrix.identity(2), 0.5) - 2.0 == pytest.approx(1.0, abs=1e-14)

    def test_imaginary_term_of_a_zero_matrix(self):
        assert c_r_general(WeightMatrix(np.zeros((3, 3))), 1.0) == 0.0

    def test_imaginary_term_padded_antisymmetric_against_eigen_oracle(self):
        # independent oracle: for real antisymmetric m, singular values are the
        # absolute eigenvalues of the Hermitian matrix i*m
        oracle = float(np.abs(np.linalg.eigvalsh(1j * rld_inverse_3param(1.0).imag)).sum())
        assert oracle == pytest.approx(1.0, abs=1e-14)
        real_term = 2.0 * 1.5 + 1.0 * 2.0  # Tr Re Jinv at N = 1
        imag_term = c_r_general(WeightMatrix.identity(3), 1.0) - real_term
        assert imag_term == pytest.approx(oracle, abs=1e-12)

    def test_value_nonnegative_on_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            w = random_psd_2(rng)
            assert c_r_general(w, 0.7) >= 0.0


class TestRadical:
    # Y = (2^53 + 1) 2^60 lies halfway between the floats 2^113 and
    # (2^53 + 2) 2^60, so sqrt(Y^2 +- 1) must round away from the tie
    Y = (2**53 + 1) << 60

    def test_just_above_a_tie_rounds_up(self):
        assert _radical(self.Y * self.Y + 1, 1, 0, 0) == float((2**53 + 2) << 60)

    def test_just_below_a_tie_rounds_down(self):
        assert _radical(self.Y * self.Y - 1, 1, 0, 0) == 2.0**113

    def test_subnormal_result_is_rounded_once(self):
        # sqrt(10) / 2 = 1.58 units of 2^-1074 rounds to 2 units, sqrt(4) / 2 to 1
        assert _radical(10, 1, 0, 1075) == 2 * 2.0**-1074
        assert _radical(4, 1, 0, 1075) == 2.0**-1074

    def test_negative_radicand_counts_as_zero(self):
        assert _radical(1, 1, 2, 0) == 0.0


def reference_domain(m):
    """The refusal of a raw matrix m by an exact rule of its own: a message, or None.

    Each off-diagonal pair is compared in Fractions, relative to its larger
    entry.  A pair that differs is replaced by its average rounded to a
    float, and then every principal minor is written out in Fractions and
    must be at least -1e-12 times the sum of its terms' magnitudes
    (Sylvester's criterion for a positive semidefinite matrix).
    """
    f = [[Fraction(float(x)) for x in row] for row in m]
    for i, j in itertools.combinations(range(len(f)), 2):
        if abs(f[i][j] - f[j][i]) > Fraction(1e-9) * max(abs(f[i][j]), abs(f[j][i])):
            return "weight matrix must be symmetric"
        f[i][j] = f[j][i] = Fraction(float((f[i][j] + f[j][i]) / 2))
    minors = [[f[i][i]] for i in range(len(f))]
    minors += [[f[i][i] * f[j][j], -f[i][j] ** 2] for i, j in itertools.combinations(range(len(f)), 2)]
    if len(f) == 3:
        (a, b, c), (_, d, e), (_, _, g) = f
        minors.append([a * d * g, 2 * b * c * e, -a * e * e, -d * c * c, -g * b * b])
    if any(sum(terms) < -Fraction(1e-12) * sum(map(abs, terms)) for terms in minors):
        return "weight matrix must be positive semidefinite"
    return None


def reference_c_r_general(g, n_mean):
    """C_R(G) for the symmetric entries g of a weight, by the matrix formula.

    Jinv is chosen by dimension, the square root of G comes from an `eigh`
    (its eigenvalues clipped at 0), and the imaginary term is an SVD trace
    norm: the eigensolve and the SVD that `c_r_general` replaces by the
    identity Tr |sqrt(G) Im Jinv sqrt(G)| = sqrt(G11 G22 - G12^2).  A bound
    that overflows is refused with the package's message.
    """
    j_inv = rld_inverse_2param(n_mean) if len(g) == 2 else rld_inverse_3param(n_mean)
    w, v = np.linalg.eigh(g)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    root = (root + root.T) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        real_term = float(np.trace(g @ j_inv.real))
    value = real_term + float(np.linalg.svd(root @ j_inv.imag @ root, compute_uv=False).sum())
    if not math.isfinite(value):
        raise DomainError("the bound overflows float64 for this weight and n_mean")
    return value


def reference_grid():
    """Seeded weights: both dimensions, scales 10^-200..10^300, full rank,
    rank one, diagonal with a zero, indefinite and slightly asymmetric."""
    rng = np.random.default_rng(41)
    for dim in (2, 3):
        for exponent in (-200, -100, -8, 0, 8, 100, 154, 200, 300):
            scale = 10.0**exponent
            for _ in range(4):
                a = rng.normal(size=(dim, dim))
                v = rng.normal(size=dim)
                yield scale * (a @ a.T)
                yield scale * np.outer(v, v)
                yield scale * np.diag(np.abs(v) * (np.arange(dim) > 0))
                yield scale * (a @ a.T - 2.0 * np.abs(a).sum() ** 2 * np.eye(dim))
                yield scale * (a @ a.T + np.triu(np.full((dim, dim), 1e-6), 1))


def exact_c_r(g, n_mean):
    """(C_R, its radical, the sum of its terms' magnitudes) to 80 digits.

    The terms are (N + 1/2) G11, (N + 1/2) G22, N(N + 1) G33 and
    sqrt(G11 G22 - G12^2) of the validated entries g; a radicand below 0
    (a weight indefinite within the PSD tolerance) counts as 0.
    """
    with decimal.localcontext(decimal.Context(prec=80)):
        g = [[decimal.Decimal(float(x)) for x in row] for row in g]
        n = decimal.Decimal(n_mean)
        terms = [(n + decimal.Decimal("0.5")) * g[0][0], (n + decimal.Decimal("0.5")) * g[1][1]]
        if len(g) == 3:
            terms.append(n * (n + 1) * g[2][2])
        radical = max(g[0][0] * g[1][1] - g[0][1] ** 2, decimal.Decimal(0)).sqrt()
        terms.append(radical)
        return sum(terms), radical, sum(map(abs, terms))


# the reference's worst error on `reference_grid` is 6.2e-8, from its eigensolve
REFERENCE_REL_ERROR = decimal.Decimal("1e-7")


class TestCrGeneralMatchesReference:
    # The radical is bit for bit the 80-digit value rounded once.  The bound
    # adds three rounded products to it and stays within 4 ulps of the sum
    # of its terms' magnitudes, which is the bound itself: every accepted
    # weight has a nonnegative diagonal.  A grid point is refused exactly
    # where `reference_domain` or the reference's overflow refuses it, with
    # the same message; the grid's indefinite and asymmetric points are
    # refused at every scale.
    @pytest.mark.parametrize("n_mean", [1e-12, 0.5, 1.0, 7.3, 1e150])
    def test_bit_for_bit(self, n_mean):
        outcomes = collections.Counter()
        for m in reference_grid():
            refusal = reference_domain(m)
            if refusal is None:
                g = WeightMatrix(m).entries
                assert np.array_equal(g, m), m  # the accepted grid points are symmetric
                try:
                    expected = reference_c_r_general(g, n_mean)
                except DomainError as exc:
                    refusal = str(exc)
            if refusal is not None:
                with pytest.raises(DomainError) as info:
                    c_r_general(WeightMatrix(m), n_mean)
                assert str(info.value) == refusal, m
                outcomes[refusal] += 1
                continue
            exact, radical, magnitude = exact_c_r(g, n_mean)
            assert magnitude == exact, m
            (g11, g22, g12), k = _integers(g[0, 0], g[1, 1], g[0, 1])
            assert _radical(g11, g22, g12, k) == float(radical), m
            error = abs(decimal.Decimal(c_r_general(WeightMatrix(m), n_mean)) - exact)
            assert error <= decimal.Decimal(4 * 2.0**-53) * exact, m
            assert abs(decimal.Decimal(expected) - exact) <= REFERENCE_REL_ERROR * exact, m
            outcomes["value"] += 1
        assert outcomes["value"] > 0
        assert outcomes["weight matrix must be symmetric"] == 72
        assert outcomes["weight matrix must be positive semidefinite"] == 72


class TestClosedForms:
    def test_identity_values(self):
        assert c_r_closed_2param(1.0, 0.0, 0.0, 1.0) == pytest.approx(4.0, abs=1e-14)
        assert c_r_closed_3param(1.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(6.0, abs=1e-14)

    def test_degenerate_weight(self):
        # G = diag(2, 0): radical vanishes
        assert c_r_closed_2param(1.0, 1.0, 0.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_g0_zero_reduces_to_2param(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, g1, g2, g3 = random_block_3(rng)
            n = rng.uniform(0.2, 3.0)
            v3 = c_r_closed_3param(0.0, g1, g2, g3, n)
            v2 = c_r_closed_2param(g1, g2, g3, n)
            assert v3 == pytest.approx(v2, abs=1e-14)

    def test_psd_violation_rejected(self):
        with pytest.raises(DomainError):
            c_r_closed_2param(1.0, 1.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            c_r_closed_3param(-0.5, 1.0, 0.0, 0.0, 1.0)

    def test_small_negative_weights_are_refused(self):
        # a negative diagonal entry is refused however small
        with pytest.raises(DomainError, match="must be positive semidefinite"):
            c_r_closed_2param(-1e-13, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="must be positive semidefinite"):
            c_r_closed_3param(-1e-13, 1.0, 0.0, 0.0, 1.0)

    def test_non_finite_gs_are_refused(self):
        with pytest.raises(DomainError, match="finite"):
            c_r_closed_2param(math.nan, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            c_r_closed_3param(math.inf, 1.0, 0.0, 0.0, 1.0)

    def test_exact_halves_give_the_general_bound(self):
        # (1 + 1e-20)/2 is not a float; the exact halves keep G22 = 1e-20
        w = WeightMatrix(np.diag([1.0, 1e-20]))
        g1, g2, g3 = w.two_param_gs()
        assert (g1 + g2, g1 - g2, g3) == (1.0, 1e-20, 0.0)
        assert c_r_closed_2param(g1, g2, g3, 0.5) == c_r_general(w, 0.5) == 1.0 + 1e-10

    def test_other_rationals_are_read_as_floats(self):
        # only a power-of-two denominator is exact in the integers over 2**k
        assert c_r_closed_2param(Fraction(1, 3), 0, 0, 1.0) == c_r_closed_2param(1 / 3, 0.0, 0.0, 1.0)

    def test_kinds(self):
        # every bound formula returns a plain float
        assert type(c_r_closed_2param(1.0, 0.0, 0.0, 1.0)) is float
        assert type(c_r_closed_3param(0.0, 1.0, 0.0, 0.0, 1.0)) is float
        assert type(c_r_general(WeightMatrix.identity(2), 1.0)) is float

    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0])
    def test_matches_general_2param(self, n_mean):
        rng = np.random.default_rng(17)
        for _ in range(100):
            w = random_psd_2(rng)
            g1, g2, g3 = w.two_param_gs()
            closed = c_r_closed_2param(g1, g2, g3, n_mean)
            general = c_r_general(w, n_mean)
            assert abs(closed - general) < 1e-10

    @pytest.mark.parametrize("n_mean", [0.5, 1.0, 2.0])
    def test_matches_general_3param_block(self, n_mean):
        rng = np.random.default_rng(19)
        for _ in range(100):
            g0, g1, g2, g3 = random_block_3(rng)
            w = WeightMatrix(np.array([[g1 + g2, g3, 0.0], [g3, g1 - g2, 0.0], [0.0, 0.0, g0]]))
            closed = c_r_closed_3param(g0, g1, g2, g3, n_mean)
            general = c_r_general(w, n_mean)
            assert abs(closed - general) < 1e-10


class TestBoundProperties:
    def test_homogeneity(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            w = random_psd_2(rng)
            c = rng.uniform(0.0, 3.0)
            scaled = WeightMatrix(c * w.entries)
            assert c_r_general(scaled, 0.8) == pytest.approx(
                c * c_r_general(w, 0.8), rel=1e-10, abs=1e-12
            )

    def test_superadditivity(self):
        # from the variational form inf{Tr G V : V >= Jinv}: the infimum of a
        # sum dominates the sum of infima, so C_R(G1 + G2) >= C_R(G1) + C_R(G2)
        rng = np.random.default_rng(29)
        for _ in range(50):
            w1 = random_psd_2(rng)
            w2 = random_psd_2(rng)
            total = WeightMatrix(w1.entries + w2.entries)
            lhs = c_r_general(total, 1.3)
            rhs = c_r_general(w1, 1.3) + c_r_general(w2, 1.3)
            assert lhs >= rhs - 1e-10


class TestGaussianTradeoff:
    def test_isotropic_needs_no_squeezing(self):
        for n_mean in (0.5, 1.0, 2.0):
            t = optimal_gaussian_tradeoff(1.0, 0.0, 0.0, n_mean)
            assert abs(t.squeeze_r) < 1e-6
            assert t.achieved == pytest.approx(2.0 * (n_mean + 0.5) + 1.0, abs=1e-9)

    def test_anisotropic_squeeze_against_calculus_oracle(self):
        # minimizing A e^{2r} + B e^{-2r} gives e^{2 r*} = sqrt(B / A), i.e.
        # e^{2 r*} = sqrt((g1 - g2) / (g1 + g2)) for g3 = 0, and the value
        # 2 (N + 1/2) g1 + sqrt(g1^2 - g2^2)
        g1, g2, n_mean = 1.0, 0.6, 1.0
        t = optimal_gaussian_tradeoff(g1, g2, 0.0, n_mean)
        assert math.exp(2.0 * t.squeeze_r) == pytest.approx(
            math.sqrt((g1 - g2) / (g1 + g2)), abs=1e-6
        )
        assert t.achieved == pytest.approx(
            2.0 * (n_mean + 0.5) * g1 + math.sqrt(g1 * g1 - g2 * g2), abs=1e-9
        )

    def test_grid_scan_never_beats_optimum(self):
        g1, g2, g3, n_mean = 1.1, 0.4, -0.3, 0.7
        closed = c_r_closed_2param(g1, g2, g3, n_mean)
        t = optimal_gaussian_tradeoff(g1, g2, g3, n_mean)
        assert t.achieved == pytest.approx(closed, abs=1e-6)
        g = WeightMatrix(np.array([[g1 + g2, g3], [g3, g1 - g2]])).entries
        sigma_rho = (n_mean + 0.5) * np.eye(2)
        for r in np.linspace(-2.0, 2.0, 41):
            for phi in np.linspace(0.0, math.pi, 37):
                c, s = math.cos(phi), math.sin(phi)
                rot = np.array([[c, -s], [s, c]])
                sigma_m = 0.5 * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
                probe = float(np.trace(g @ (sigma_rho + sigma_m)))
                assert probe >= closed - 1e-9

    @pytest.mark.parametrize("n_mean", [1.0, 1e4, 1e8, 1e12, 1e16, 1e200])
    def test_squeeze_is_exact_at_any_n(self, n_mean):
        # e^{4 r*} = low / high = (g1 - g2) / (g1 + g2), whatever N adds to the objective
        t = optimal_gaussian_tradeoff(1.0, 0.6, 0.0, n_mean)
        assert t.squeeze_r == pytest.approx(0.25 * math.log(0.25), abs=1e-12)
        assert t.achieved == pytest.approx(c_r_closed_2param(1.0, 0.6, 0.0, n_mean), rel=1e-15)

    # v v^T for v = (0.51, 0.08) rounds to a smaller eigenvalue of 1.4e-17, not 0
    ROUNDED_RANK_ONE = WeightMatrix(np.array([[0.2601, 0.0408], [0.0408, 0.0064]])).two_param_gs()

    @pytest.mark.parametrize("gs", [(0.5, 0.5, 0.0), (1.0, 0.0, 1.0), ROUNDED_RANK_ONE])
    def test_rank_one_has_no_finite_squeeze(self, gs):
        with pytest.raises(DomainError, match="rank-one"):
            optimal_gaussian_tradeoff(*gs, 1.0)

    def test_squeeze_of_a_nearly_singular_weight_is_exact(self):
        w = WeightMatrix(np.diag([1.0, 1e-18]))
        t = optimal_gaussian_tradeoff(*w.two_param_gs(), 1.0)
        assert t.squeeze_r == pytest.approx(0.25 * math.log(1e-18), rel=1e-15)
        assert t.achieved == pytest.approx(c_r_general(w, 1.0), rel=1e-15)

    def test_squeeze_across_the_float64_range(self):
        # low / high = 5e-324 / 1e308 is far below the smallest float
        w = WeightMatrix(np.diag([1e308, 5e-324]))
        t = optimal_gaussian_tradeoff(*w.two_param_gs(), 1e-300)
        assert t.squeeze_r == pytest.approx(0.25 * (math.log(5e-324) - math.log(1e308)), rel=1e-14)
        assert t.achieved == c_r_general(w, 1e-300)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            optimal_gaussian_tradeoff(0.0, 0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            optimal_gaussian_tradeoff(1.0, 0.0, 0.0, -1.0)
        with pytest.raises(DomainError):
            optimal_gaussian_tradeoff(1.0, 2.0, 0.0, 1.0)


class TestLoadWeight:
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_is_domain_error(self, tmp_path, bad):
        path = tmp_path / "w.txt"
        path.write_text(f"2\n{bad} 0\n0 1\n")
        with pytest.raises(DomainError, match="finite"):
            load_weight(str(path))

    def test_presets(self):
        assert np.array_equal(load_weight("identity2").entries, np.eye(2))
        assert np.array_equal(load_weight("identity3").entries, np.eye(3))

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("2\n1.5 -0.4\n-0.4 0.9\n")
        w = load_weight(str(path))
        assert np.allclose(w.entries, [[1.5, -0.4], [-0.4, 0.9]])

    def test_missing_file(self):
        with pytest.raises(ValueError):
            load_weight("no/such/file.txt")

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2 3\n")
        with pytest.raises(ValueError):
            load_weight(str(path))

    @pytest.mark.parametrize("text", ["-1 5", "-2 1 0 0 1", "0", "1 1", "4" + " 1" * 16])
    def test_dimension_other_than_2_or_3_is_domain_error(self, tmp_path, text):
        path = tmp_path / "w.txt"
        path.write_text(text + "\n")
        dim = text.split()[0]
        with pytest.raises(DomainError, match=f"^weight matrix dimension must be 2 or 3, got {dim}$"):
            load_weight(str(path))

    def test_non_psd_file_is_domain_error(self, tmp_path):
        path = tmp_path / "indef.txt"
        path.write_text("2\n1 0 0 -1\n")
        with pytest.raises(DomainError):
            load_weight(str(path))
