import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import minkred
from minkred.errors import (
    DependentVectorsError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotUnimodularError,
)
from minkred.exactlin import (
    GramMatrix,
    apply_transform,
    evaluate_form,
    first_nonpositive_pivot,
    gram_from_basis,
    identity_matrix,
    int_determinant,
    int_matrix_rank,
    integral_gram_schmidt,
    mat_vec,
    transform_gram_int,
)
from minkred.corpus import EXAMPLE9_MATRIX, named_lattice

from _generators import random_generic_gram, random_unimodular
from _oracles import first_nonpositive_minor, frac_det_gauss, minor_pivots, eval_q, scaled_int


F = Fraction


def ldl_from_kernel(g):
    """(L, D) with L diag(D) L^T = G, read off the integral Gram-Schmidt
    kernel of g's scaled Gram (A, den): D[k] = d[k+1] / (d[k] den) and
    L[i][j] = lam[i][j] / d[j+1] below the unit diagonal."""
    a, den = g.scaled()
    d, lam = integral_gram_schmidt(a)
    n = g.n
    L = [[F(lam[i][j], d[j + 1]) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    return L, [F(d[k + 1], d[k] * den) for k in range(n)]


def recompose(L, D):
    n = len(D)
    return [
        [sum(L[i][k] * D[k] * L[j][k] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


class TestLDL:
    def test_identity(self):
        L, D = ldl_from_kernel(GramMatrix(identity_matrix(2)))
        assert D == [1, 1]
        assert L == [[1, 0], [0, 1]]

    def test_2x2_hand(self):
        # forced by hand expansion: d1 = 2, l21 = 1/2, d2 = 2 - 1/4*2 = 3/2
        L, D = ldl_from_kernel(GramMatrix([[2, 1], [1, 2]]))
        assert D == [2, F(3, 2)]
        assert L[1][0] == F(1, 2)

    def test_example9_pivots_positive(self):
        g = named_lattice("example9")
        L, D = ldl_from_kernel(g)
        assert len(D) == 9 and all(d > 0 for d in D)
        # cross-check the pivots d[k+1] / d[k] against the minor-ratio oracle
        assert D == minor_pivots(g.rows)
        assert recompose(L, D) == [list(r) for r in g.rows]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_recompose_random_pd(self, n, rng):
        g = random_generic_gram(rng, n, spread=4)
        L, D = ldl_from_kernel(g)
        assert recompose(L, D) == [list(r) for r in g.rows]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_pd_agrees_with_minors(self, n, rng):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        g = GramMatrix(sym)
        pivots = minor_pivots(sym)
        try:
            d, _ = integral_gram_schmidt(sym)
            kernel_bad = None
        except NotPositiveDefiniteError as err:
            kernel_bad = err.pivot_index
        if pivots is None:
            # a leading minor vanished; the form is certainly not PD
            assert first_nonpositive_pivot(g) is not None
            assert kernel_bad is not None
        else:
            assert (first_nonpositive_pivot(g) is None) == all(p > 0 for p in pivots)
            first_bad = next((k for k, p in enumerate(pivots) if p <= 0), None)
            assert kernel_bad == first_bad
            if first_bad is None:
                assert [F(d[k + 1], d[k]) for k in range(n)] == pivots

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2], [2, 1]],
            [[1, 0], [0, -1]],
            [[-1, 0], [0, 1]],
            [[1, 2], [2, 4]],
            [[2, 1, 0], [1, 2, 3], [0, 3, 1]],
            [[F(1, 2), F(1, 3)], [F(1, 3), F(1, 5)]],
        ],
    )
    def test_indefinite_raises_at_first_bad_pivot(self, rows):
        # the expected index is Sylvester's, from the oracle's own minors
        expected = first_nonpositive_minor(rows)
        with pytest.raises(NotPositiveDefiniteError) as err:
            integral_gram_schmidt(GramMatrix(rows).scaled()[0])
        assert expected is not None and err.value.pivot_index == expected
        assert first_nonpositive_pivot(GramMatrix(rows)) == expected

    def test_first_bad_pivot_index(self):
        assert first_nonpositive_pivot(GramMatrix([[1, 0], [0, -1]])) == 1
        assert first_nonpositive_pivot(GramMatrix([[-1, 0], [0, 1]])) == 0
        assert first_nonpositive_pivot(GramMatrix([[2, 1], [1, 2]])) is None

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            GramMatrix([[1, 2], [3, 1]])


def _random_rational_rows(rng, n):
    dens = [1, 2, 3, 4, 6, 7, 9, 12, 2**61 - 1, 3**30]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = F(rng.randint(-10**6, 10**6), rng.choice(dens))
    return rows


def _content(a):
    return gcd(*(x for row in a for x in row))


class TestScaled:
    @pytest.mark.parametrize("seed", range(8))
    def test_rational_entries_match_fraction_products(self, seed):
        rng = random.Random(seed + 700)
        for n in range(1, 7):
            rows = _random_rational_rows(rng, n)
            a, den = scaled_int(rows)
            assert GramMatrix(rows).scaled() == (tuple(map(tuple, a)), den)
            assert gcd(_content(a), den) == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_basis_change_matches_fraction_products(self, seed):
        # apply_transform builds its result from T^T A T and den alone;
        # the oracle multiplies the rational entries out
        rng = random.Random(seed + 750)
        for n in range(2, 7):
            rows = _random_rational_rows(rng, n)
            t = random_unimodular(rng, n)
            want = [
                [sum(t[k][i] * rows[k][m] * t[m][j] for k in range(n) for m in range(n))
                 for j in range(n)]
                for i in range(n)
            ]
            out = apply_transform(GramMatrix(rows), t)
            a, den = scaled_int(want)
            assert out.scaled() == (tuple(map(tuple, a)), den)
            assert gcd(_content(out.scaled()[0]), den) == 1
            rebuilt = GramMatrix(want)
            assert out == rebuilt and hash(out) == hash(rebuilt) and repr(out) == repr(rebuilt)

    def test_integral_and_negative(self):
        assert GramMatrix([[-3, 5], [5, 0]]).scaled() == (((-3, 5), (5, 0)), 1)
        assert GramMatrix([[F(-1, 2), F(1, 3)], [F(1, 3), 0]]).scaled() == (((-3, 2), (2, 0)), 6)


class TestEvaluateForm:
    def test_e8_star_is_unit(self):
        g = named_lattice("example9")
        x = (-2, -1, -1, -1, -1, -1, -1, 2, 3)
        assert evaluate_form(g, x) == 1

    def test_e9_star_is_7_6(self):
        g = named_lattice("example9")
        x = (-1, 0, 0, 0, 0, 0, 0, 1, 1)
        assert evaluate_form(g, x) == F(7, 6)
        assert eval_q(g.rows, x) == F(7, 6)

    def test_zero_vector(self):
        g = GramMatrix([[2, 1], [1, 2]])
        assert evaluate_form(g, (0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evaluate_form(GramMatrix([[1]]), (1, 2))

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4), st.randoms(use_true_random=False))
    def test_even_in_x(self, n, rng):
        g = random_generic_gram(rng, n, spread=4)
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        neg = tuple(-v for v in x)
        assert evaluate_form(g, x) == evaluate_form(g, neg) == eval_q(g.rows, x)


class TestDeterminant:
    def test_identity(self):
        assert int_determinant(identity_matrix(4)) == 1

    def test_diag(self):
        assert int_determinant([[2, 0], [0, 2]]) == 4

    def test_a2(self):
        assert int_determinant([[2, 1], [1, 2]]) == 3

    def test_empty_matrix_is_one(self):
        # the 0 x 0 minor, which cofactors of a 1 x 1 matrix need
        assert int_determinant([]) == 1

    @pytest.mark.parametrize("name, det", [("int_determinant", int_determinant)])
    def test_non_square_is_rejected_by_name(self, name, det):
        with pytest.raises(DimensionMismatchError, match=rf"^{name}: "):
            det([[1, 2]])

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_matches_gauss_oracle(self, n, rng):
        m = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        assert int_determinant(m) == frac_det_gauss(m)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 4), st.randoms(use_true_random=False))
    def test_invariant_under_unimodular(self, n, rng):
        g = random_generic_gram(rng, n, spread=4)
        t = random_unimodular(rng, n)
        assert frac_det_gauss(apply_transform(g, t).rows) == frac_det_gauss(g.rows)


class TestRank:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
    def test_matches_minor_oracle(self, k, n, rng):
        # low ranks come from a product of thin factors
        inner = rng.randint(1, min(k, n))
        a = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(k)]
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(inner)]
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        expected = max(
            (
                size
                for size in range(1, min(k, n) + 1)
                for ri in combinations(range(k), size)
                for ci in combinations(range(n), size)
                if frac_det_gauss([[m[i][j] for j in ci] for i in ri])
            ),
            default=0,
        )
        assert int_matrix_rank(m) == expected


def test_public_names_resolve():
    assert all(hasattr(minkred, name) for name in minkred.__all__)


class TestGramFromBasis:
    def test_orthonormal(self):
        assert gram_from_basis(identity_matrix(3)).rows == GramMatrix(identity_matrix(3)).rows

    def test_eq1_reproduces_example9_form(self):
        g = gram_from_basis(EXAMPLE9_MATRIX)
        # the three coefficients the worked example hinges on
        assert g[0, 7] == F(1, 4)
        assert g[0, 8] == F(1, 2)
        assert g[7, 8] == F(-1, 6)
        assert all(g[i, i] == 1 for i in range(9))
        assert g == named_lattice("example9")

    def test_column_scaling_bilinearity(self):
        g = gram_from_basis([[1, 0], [1, 1], [0, 2]])
        g2 = gram_from_basis([[2, 0], [2, 1], [0, 2]])
        assert g2[0, 0] == 4 * g[0, 0]

    def test_dependent_columns_rejected(self):
        with pytest.raises(DependentVectorsError):
            gram_from_basis([[1, 2], [2, 4], [0, 0]])

    @pytest.mark.parametrize(
        "matrix",
        [[], [[]], [[1, 0], [1]], [[1, 0, 0], [0, 1, 0]]],
        ids=["empty", "no-columns", "ragged", "3-columns-in-R2"],
    )
    def test_shape_is_checked(self, matrix):
        with pytest.raises(DimensionMismatchError, match=r"^gram_from_basis: "):
            gram_from_basis(matrix)


class TestApplyTransform:
    def test_identity(self):
        g = GramMatrix([[2, 1], [1, 2]])
        assert apply_transform(g, identity_matrix(2)) == g

    def test_sign_flip(self):
        g = GramMatrix([[2, 1], [1, 3]])
        t = ((1, 0), (0, -1))
        out = apply_transform(g, t)
        assert out.rows == ((F(2), F(-1)), (F(-1), F(3)))

    def test_hand_example(self):
        # (e1, e2) -> (e1 - e2, e1)
        g = GramMatrix([[4, 3], [3, 5]])
        t = ((1, 1), (-1, 0))
        assert apply_transform(g, t).rows == ((F(3), F(1)), (F(1), F(4)))

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            apply_transform(GramMatrix([[1, 0], [0, 1]]), ((2, 0), (0, 1)))

    def test_rejects_non_integral_entries(self):
        g = GramMatrix([[2, 1], [1, 2]])
        with pytest.raises(NotUnimodularError, match=r"entry \(0,0\)"):
            apply_transform(g, [[F(3, 2), F(1, 2)], [0, 1]])
        with pytest.raises(NotUnimodularError, match=r"entry \(1,0\)"):
            apply_transform(g, [[1, 0], [0.5, 1]])

    def test_accepts_integral_fractions(self):
        g = GramMatrix([[2, 1], [1, 2]])
        out = apply_transform(g, [[F(1), F(2, 1)], [0, 1.0]])
        assert out == apply_transform(g, ((1, 2), (0, 1)))

    def test_int_determinant_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
            assert int_determinant(m) == int(frac_det_gauss(m))


def _random_entry(rng, rational):
    x = rng.randint(-9, 9)
    return F(x, rng.randint(1, 6)) if rational else x


def _random_matrix(rng, rows, cols, rational=False):
    return [[_random_entry(rng, rational) for _ in range(cols)] for _ in range(rows)]


class TestIntegerHelpers:
    """mat_vec and transform_gram_int against naive index loops, on int and
    on Fraction entries."""

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_mat_vec_and_mat_mul(self, seed, rational):
        rng = random.Random(seed + 40)
        n, k, m = rng.sample(range(1, 10), 3)  # distinct, so a and b are not square
        a = _random_matrix(rng, n, k, rational)
        b = _random_matrix(rng, k, m, rational)
        v = [_random_entry(rng, rational) for _ in range(k)]
        assert mat_vec(a, v) == tuple(sum(a[i][j] * v[j] for j in range(k)) for i in range(n))
        # a matrix product, column by column, is mat_vec on b's columns
        product = tuple(zip(*(mat_vec(a, col) for col in zip(*b))))
        assert len(product) == n and all(len(row) == m for row in product)
        for i in range(n):
            for j in range(m):
                assert product[i][j] == sum(a[i][r] * b[r][j] for r in range(k))

    @pytest.mark.parametrize("rational", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_transform_gram_int(self, seed, rational):
        rng = random.Random(seed + 50)
        n = rng.randint(1, 9)
        half = _random_matrix(rng, n, n, rational)
        a = [[half[i][j] if i <= j else half[j][i] for j in range(n)] for i in range(n)]
        t = _random_matrix(rng, n, n, rational)
        out = transform_gram_int(a, t)
        for i in range(n):
            for j in range(n):
                expected = sum(t[r][i] * a[r][s] * t[s][j] for r in range(n) for s in range(n))
                assert out[i][j] == expected
                assert out[i][j] == out[j][i]
