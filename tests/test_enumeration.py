import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest

from minkred import enumeration
from minkred.corpus import E8_STAR_COORDS, E9_STAR_COORDS, named_lattice
from minkred.enumeration import (
    _by_exact_norm,
    _completion,
    _coset_bins,
    _in_norm_order,
    _reduced_view,
    _signed_radius,
    complete_to_basis,
    enumerate_short_vectors,
    is_primitive_system,
    lattice_minimum,
    successive_minima,
)
from minkred.errors import (
    DependentVectorsError,
    DimensionMismatchError,
    NotPositiveDefiniteError,
    NotPrimitiveError,
)
from minkred.exactlin import (
    GramMatrix,
    apply_transform,
    evaluate_form,
    identity_matrix,
    int_determinant,
    int_matrix_rank,
    mat_vec,
)
from minkred.reduction import greedy_minkowski_basis, minkowski_reduce

from _generators import (
    random_generic_gram,
    random_pd_gram,
    random_unimodular,
    skewed_orthogonal_gram,
)
from _oracles import (
    brute_coset_minima,
    brute_minimum,
    brute_short_vectors,
    eval_q,
    frac_det_gauss,
    gram_inverse,
    mat_product,
    minor_gcd,
    pivot_first,
    signed_representative,
)

F = Fraction


class TestEnumerate:
    def test_identity_bound_1(self):
        out = enumerate_short_vectors(GramMatrix(identity_matrix(2)), 1)
        assert [(v, q) for v, q in out.vectors] == [((0, 1), 1), ((1, 0), 1)]

    def test_a2_bound_2(self):
        out = enumerate_short_vectors(named_lattice("A2"), 2)
        assert {v for v, _ in out.vectors} == {(1, 0), (0, 1), (1, -1)}
        assert all(q == 2 for _, q in out.vectors)

    def test_example9_bound_1_membership(self):
        g = named_lattice("example9")
        out = enumerate_short_vectors(g, 1)
        vecs = {v for v, _ in out.vectors}
        for i in range(9):
            unit = tuple(1 if j == i else 0 for j in range(9))
            assert unit in vecs
        canonical_star = tuple(-x for x in E8_STAR_COORDS)  # first nonzero positive
        assert canonical_star in vecs
        assert all(q == 1 for _, q in out.vectors)

    def test_rejects_bad_bound_and_non_pd(self):
        with pytest.raises(ValueError):
            enumerate_short_vectors(GramMatrix(identity_matrix(2)), 0)
        with pytest.raises(NotPositiveDefiniteError):
            enumerate_short_vectors(GramMatrix([[1, 2], [2, 1]]), 1)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_box_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        g = random_pd_gram(rng, n)
        # an integer bound, then a non-integer one (floored to the core's int radius)
        for bound in (F(rng.randint(2, 8)), F(3 * rng.randint(2, 7) + 1, 3)):
            expected = brute_short_vectors(g.rows, bound)
            got = [(v, q) for v, q in enumerate_short_vectors(g, bound).vectors]
            assert got == expected

    @pytest.mark.parametrize("skew", [0, 2], ids=["generic", "skewed"])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_floored_radius_at_an_attained_norm(self, n, skew):
        # the core's radius is floor(bound * den); an attained norm q / den
        # must come in at q / den and above, and not a third of 1 / den below
        for seed in range(3):
            rng = random.Random(800 + 10 * n + seed)
            base = random_pd_gram(rng, n)
            base = GramMatrix([[F(x, seed + 1) for x in row] for row in base.rows])
            t = random_unimodular(rng, n, ops=skew, coeff=2)
            g = apply_transform(base, t)
            a, den = g.scaled()
            q = F(min(a[i][i] for i in range(n)), den)  # the least Q(e_i), attained
            third = F(1, 3 * den)
            ball = _skewed_oracle(base, t, q + third)
            for bound, attained in ((q - third, False), (q, True), (q + third, True)):
                got = list(enumerate_short_vectors(g, bound).vectors)
                assert got == [e for e in ball if e[1] <= bound]
                assert any(norm == q for _, norm in got) == attained

    @pytest.mark.parametrize("name", ["A5", "D5", "E6"])
    def test_leaf_norms_are_exact_on_skewed_forms(self, name):
        # each leaf carries the recursion's own sum as its norm; check it
        # against the bilinear expansion, and the bound, in dims 5 and 6
        rng = random.Random(sum(map(ord, name)))
        base = named_lattice(name)
        g = apply_transform(base, random_unimodular(rng, base.n))
        view = _reduced_view(g)
        top = max(view.a_red[i][i] for i in range(base.n))
        for bound in (top, (3 * top + 1) // 2):
            leaves = enumeration._enumerate_core(view, bound)
            assert leaves
            for x, q in leaves:
                assert q == eval_q(view.a_red, x)
                assert q <= bound

    @pytest.mark.parametrize("seed", range(6))
    def test_skewed_inputs_still_complete(self, seed):
        rng = random.Random(seed + 100)
        n = rng.randint(2, 3)
        base = random_pd_gram(rng, n)
        bound = min(base[i, i] for i in range(n))
        _assert_complete_when_skewed(base, random_unimodular(rng, n), bound)

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_skewed_inputs_still_complete_in_high_dimension(self, n):
        # A2 plus a diagonal of 3s to 5s: at the least diagonal entry 2 the
        # box holds 25 * 3^(n-2) points. The bound 5/2 is floored to the
        # core's int radius 2 and stops just below the diagonal's norm-3 vectors.
        rows = [[0] * n for _ in range(n)]
        rows[0][:2], rows[1][:2] = [2, -1], [-1, 2]
        for i in range(2, n):
            rows[i][i] = 3 + i % 3
        base = GramMatrix(rows)
        t = random_unimodular(random.Random(n + 700), n)
        for bound in (F(2), F(5, 2)):
            _assert_complete_when_skewed(base, t, bound)

    def test_isqrt_arguments_stay_bounded(self, monkeypatch):
        # Each range is one isqrt of d[j] (bound d[j+1] - N_{j+1}) < d[j]
        # d[j+1] bound, whatever the depth, on a skewed copy of the paper's
        # 9-dim example.
        g = apply_transform(named_lattice("example9"), random_unimodular(random.Random(9), 9, ops=18))
        view = _reduced_view(g)
        d = view.d
        sizes = []

        def logged(m):
            # the level of the call, read from the recursion's frame
            sizes.append((sys._getframe(1).f_locals["j"], m.bit_length()))
            return isqrt(m)

        monkeypatch.setattr(enumeration, "isqrt", logged)
        top = max(view.a_red[i][i] for i in range(9))
        for bound in (top, (3 * top + 1) // 2):
            sizes.clear()
            assert enumeration._enumerate_core(view, bound)
            for j, bits in sizes:
                assert bits <= bound.bit_length() + d[j].bit_length() + d[j + 1].bit_length() + 2


def _skewed_oracle(base, t, bound):
    """The box oracle for T^T base T and bound, run on the unskewed base,
    whose box is small: Q_g(x) = Q_base(T x), so each y maps to x = T^-1 y."""
    n = base.n
    t_inv = gram_inverse(t)
    expected = []
    for y, q in brute_short_vectors(base.rows, bound):
        x = [sum(t_inv[i][k] * y[k] for k in range(n)) for i in range(n)]
        assert all(v.denominator == 1 for v in x)
        x = tuple(int(v) for v in x)
        if next(v for v in x if v) < 0:
            x = tuple(-v for v in x)
        expected.append((x, q))
    expected.sort(key=lambda e: (e[1], e[0]))
    return expected


def _assert_complete_when_skewed(base, t, bound):
    """enumerate_short_vectors(T^T base T, bound) against _skewed_oracle."""
    got = [(v, q) for v, q in enumerate_short_vectors(apply_transform(base, t), bound).vectors]
    assert got == _skewed_oracle(base, t, bound)


def _record_radii(monkeypatch):
    """Patch the enumeration core to log the radius of every ball."""
    radii = []
    core = enumeration._enumerate_core

    def logged(view, bound):
        radii.append(bound)
        return core(view, bound)

    monkeypatch.setattr(enumeration, "_enumerate_core", logged)
    return radii


class TestInNormOrder:
    """The lazy norm-ordered stream against the box oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_box_brute_force(self, seed):
        rng = random.Random(seed + 300)
        n = rng.randint(2, 4)
        g = random_pd_gram(rng, n)
        if seed % 2:
            g = apply_transform(g, random_unimodular(rng, n, ops=n, coeff=2))
        view = _reduced_view(g)
        least = min(view.a_red[i][i] for i in range(n))
        for cap in (least - 1, least + least // 2, 4 * least + 3):
            ball = brute_short_vectors(g.rows, F(cap, view.den))
            ball.sort(key=lambda e: (e[1], pivot_first(e[0])))
            expected = [(q * view.den, x) for x, q in ball]
            assert list(_in_norm_order(view, lambda: cap)) == expected

    def test_first_item_runs_one_search(self, monkeypatch):
        view = _reduced_view(random_pd_gram(random.Random(310), 4))
        radii = _record_radii(monkeypatch)
        next(_in_norm_order(view, lambda: 10**6))
        assert len(radii) == 1


class TestLatticeMinimum:
    def test_example9(self):
        lam, minima = lattice_minimum(named_lattice("example9"))
        assert lam == 1
        assert all(q == 1 for _, q in minima.vectors)

    def test_z6(self):
        lam, minima = lattice_minimum(named_lattice("Z6"))
        assert lam == 1 and len(minima.vectors) == 6

    def test_3_1_1_4(self):
        lam, minima = lattice_minimum(GramMatrix([[3, 1], [1, 4]]))
        assert lam == 3
        assert [v for v, _ in minima.vectors] == [(1, 0)]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_and_unimodular_invariance(self, seed):
        rng = random.Random(seed + 40)
        n = rng.randint(2, 4)
        g = random_pd_gram(rng, n)
        lam, minima = lattice_minimum(g)
        blam, bvecs = brute_minimum(g.rows)
        assert lam == blam
        assert [v for v, _ in minima.vectors] == bvecs
        t = random_unimodular(rng, n)
        lam2, _ = lattice_minimum(apply_transform(g, t))
        assert lam2 == lam


class TestSuccessiveMinima:
    def test_identity(self):
        sm = successive_minima(GramMatrix(identity_matrix(4)))
        assert sm.norms == (1, 1, 1, 1)
        assert sorted(sm.witnesses) == [
            (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)
        ]

    def test_diag_1_4(self):
        sm = successive_minima(GramMatrix([[1, 0], [0, 4]]))
        assert sm.norms == (1, 4)

    @pytest.mark.parametrize("d, radii", [(4, [1, 2, 4]), (9, [1, 2, 4, 8, 9])])
    def test_diag_1_d_radius_stops_at_largest_diagonal(self, monkeypatch, d, radii):
        seen = _record_radii(monkeypatch)
        sm = successive_minima(GramMatrix([[1, 0], [0, d]]))
        assert sm.norms == (1, d)
        assert sm.witnesses == ((1, 0), (0, 1))
        assert seen == radii

    def test_example9_all_ones(self):
        sm = successive_minima(named_lattice("example9"))
        assert sm.norms == (1,) * 9

    @pytest.mark.parametrize("seed", range(6))
    def test_norms_invariant_under_basis_change(self, seed):
        rng = random.Random(seed + 77)
        n = rng.randint(2, 4)
        g = random_pd_gram(rng, n)
        t = random_unimodular(rng, n)
        assert successive_minima(g).norms == successive_minima(apply_transform(g, t)).norms

    def test_witnesses_independent_and_nondecreasing(self):
        rng = random.Random(5)
        for _ in range(5):
            n = rng.randint(2, 4)
            g = random_pd_gram(rng, n)
            sm = successive_minima(g)
            assert all(a <= b for a, b in zip(sm.norms, sm.norms[1:]))
            assert frac_det_gauss(sm.witnesses) != 0
            assert int_matrix_rank(sm.witnesses) == n


class TestPrimitivity:
    def test_gcd_line(self):
        assert is_primitive_system([(2, 3)]) is True
        assert is_primitive_system([(2, 0)]) is False

    def test_example9_primitive_system(self):
        rows = [tuple(1 if j == i else 0 for j in range(9)) for i in range(7)]
        rows.append(E8_STAR_COORDS)
        assert is_primitive_system(rows) is True

    def test_dependent_raises(self):
        with pytest.raises(DependentVectorsError):
            is_primitive_system([(1, 2), (2, 4)])

    def test_complete_identity(self):
        assert complete_to_basis([(1, 0)], 2) == ((1, 0), (0, 1))

    def test_complete_2_3(self):
        c = complete_to_basis([(2, 3)], 2)
        assert (c[0][0], c[1][0]) == (2, 3)
        a, b = c[0][1], c[1][1]
        assert 2 * b - 3 * a in (1, -1)
        assert int_determinant(c) in (1, -1)

    def test_complete_example9(self):
        rows = [tuple(1 if j == i else 0 for j in range(9)) for i in range(7)]
        rows.append(E8_STAR_COORDS)
        c = complete_to_basis(rows, 9)
        assert int_determinant(c) in (1, -1)
        # the paper's ninth vector also completes this system
        cols = [tuple(1 if j == i else 0 for j in range(9)) for i in range(7)]
        cols.append(E8_STAR_COORDS)
        cols.append(E9_STAR_COORDS)
        t = tuple(tuple(cols[j][i] for j in range(9)) for i in range(9))
        assert int_determinant(t) in (1, -1)

    def test_prefixes_of_completion_are_primitive(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            while True:
                vs = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
                try:
                    if is_primitive_system(vs):
                        break
                except DependentVectorsError:
                    continue
            c = complete_to_basis(vs, n)
            for prefix in range(1, n + 1):
                cols = [tuple(c[i][j] for i in range(n)) for j in range(prefix)]
                assert is_primitive_system(cols)

    def test_not_primitive_rejected_by_completion(self):
        with pytest.raises(NotPrimitiveError):
            complete_to_basis([(2, 0)], 2)

    def test_dependent_rejected_by_completion(self):
        with pytest.raises(DependentVectorsError):
            complete_to_basis([(1, 2, 0), (2, 4, 0)], 3)

    @pytest.mark.parametrize(
        "vectors, error",
        [
            ([(1, 0)], DimensionMismatchError),
            ([(1, 0, 0), (0, 1)], DimensionMismatchError),
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], DependentVectorsError),
        ],
    )
    def test_malformed_systems_rejected(self, vectors, error):
        with pytest.raises(error):
            complete_to_basis(vectors, 3)
        if len(vectors[0]) == 3:
            with pytest.raises(error):
                is_primitive_system(vectors)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_tail_gcd_matches_minor_oracle(self, n):
        rng = random.Random(n + 600)
        verdicts = set()
        for _ in range(30):
            k = rng.randint(1, n)
            rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
            if rng.random() < 0.3:
                rows[0] = tuple(2 * x for x in rows[0])
            g = minor_gcd(rows)
            if g == 0:
                with pytest.raises(DependentVectorsError):
                    is_primitive_system(rows)
                continue
            verdicts.add(g == 1)
            assert is_primitive_system(rows) is (g == 1)
            if g != 1:
                continue
            c, tail = _completion(rows, n)
            assert abs(frac_det_gauss(c)) == 1
            assert [tuple(row[j] for row in c) for j in range(k)] == rows
            assert mat_product(tail, c) == identity_matrix(n)[k:]
            for _ in range(6 if k < n else 0):
                v = tuple(rng.randint(-3, 3) for _ in range(n))
                assert (gcd(*mat_vec(tail, v)) == 1) is (minor_gcd(rows + [v]) == 1)
        assert verdicts == {True, False}


class TestIncrementalCompletion:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_row_by_row_fold_matches_one_call(self, n):
        rng = random.Random(n + 640)
        verdicts = set()
        for _ in range(8):
            t = random_unimodular(rng, n)
            rows = [tuple(row[j] for row in t) for j in range(rng.randint(1, n))]
            carried = None
            for r in rows:
                carried = _completion([r], n, carried)
            assert carried == _completion(rows, n)
            c, tail = carried
            k = len(rows)
            assert mat_product(tail, c) == identity_matrix(n)[k:]
            for _ in range(6 if k < n else 0):
                v = tuple(rng.randint(-3, 3) for _ in range(n))
                primitive = minor_gcd(rows + [v]) == 1
                verdicts.add(primitive)
                assert (gcd(*mat_vec(tail, v)) == 1) is primitive
                if primitive:
                    assert _completion([v], n, carried) == _completion(rows + [v], n)
                else:
                    with pytest.raises(NotPrimitiveError):
                        _completion([v], n, carried)
        assert verdicts == {True, False}


class TestGreedyPass:
    def test_example9_star_basis_is_kept(self):
        g = named_lattice("example9-mnh")
        rep = minkowski_reduce(g)
        assert rep.iterations == 0 and rep.reduced == g
        assert g[8, 8] == evaluate_form(named_lattice("example9"), E9_STAR_COORDS) == F(7, 6)

    def test_one_fold_per_chosen_vector(self, monkeypatch):
        folds = []
        completion = enumeration._completion

        def counted(rows, n, start=None):
            folds.append(len(rows))
            return completion(rows, n, start)

        monkeypatch.setattr(enumeration, "_completion", counted)
        monkeypatch.setattr(enumeration, "is_primitive_system", None)
        rng = random.Random(320)
        for n in range(2, 8):
            g = apply_transform(random_pd_gram(rng, n), random_unimodular(rng, n))
            for reduce in (minkowski_reduce, greedy_minkowski_basis):
                folds.clear()
                rep = reduce(GramMatrix(g.rows))
                assert folds == [1] * (n - 1)  # the last vector needs no fold
                assert int_determinant(rep.transform) in (1, -1)


def coset_classes(g):
    """{parity: (minimum, +-representatives)} for every nonzero class of
    L/2L: each bin of one _coset_bins ball, mapped back through
    _by_exact_norm and keyed by the parity of its first vector in g's
    coordinates."""
    view = _reduced_view(g)
    classes = {}
    for leaves in _coset_bins(view):
        minima = _by_exact_norm(view, leaves)
        classes[tuple(x % 2 for x in minima[0][0])] = (minima[0][1], tuple(v for v, _ in minima))
    return classes


class TestCosetMinima:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed + 500)
        n = rng.randint(2, 3)
        g = random_pd_gram(rng, n)
        classes = coset_classes(g)
        assert len(classes) == 2**n - 1
        for parity, (lam, reps) in classes.items():
            # oracle needs a safe bound: norm of the 0/1 representative
            blam, breps = brute_coset_minima(g.rows, parity, evaluate_form(g, parity))
            assert lam == blam
            assert list(reps) == breps

    @pytest.mark.parametrize("seed", range(10))
    def test_layers_are_keyed_by_parity_in_g_coordinates(self, seed):
        rng = random.Random(seed + 580)
        n = 2 + seed % 5
        g = skewed_orthogonal_gram(rng, n)[0] if seed % 2 else random_generic_gram(rng, n)
        classes = coset_classes(g)
        assert sorted(classes) == [key for key in product((0, 1), repeat=n) if any(key)]
        for key, (lam, reps) in classes.items():
            assert reps and all(tuple(x % 2 for x in v) == key for v in reps)
            assert all(evaluate_form(g, v) == lam for v in reps)

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_representative_bounds_its_coset(self, seed):
        rng = random.Random(seed + 550)
        n = 2 + seed % 3
        g = random_pd_gram(rng, n)
        a, den = g.scaled()
        for parity in product((0, 1), repeat=n):
            if not any(parity):
                continue
            y, q = signed_representative(a, parity)
            assert all((yi - p) % 2 == 0 and abs(yi) <= 1 for yi, p in zip(y, parity))
            assert q == evaluate_form(g, y) * den
            assert q <= sum(a[i][i] for i in range(n) if parity[i])
            lam, _ = brute_coset_minima(g.rows, parity, F(q, den))
            assert lam * den <= q

    @pytest.mark.parametrize("n", range(1, 8))
    def test_signed_radius_is_the_largest_representative(self, n):
        # generic forms, skewed named lattices, and forms on which (A y)_i
        # is 0, where the sign is +1: a diagonal form at every step, and
        # 2I with a_02 = a_12 = 1 at step 1 of the class (1, 1, 1, 0, ..),
        # whose later (A y)_2 makes it cost 2, where -1 would cost 6
        rng = random.Random(n + 560)
        roots = {2: ("A2",), 3: ("A3", "D3"), 4: ("A4", "D4"), 5: ("A5", "D5"), 6: ("A6", "D6", "E6")}
        ops = 3 * n if n > 1 else 0  # a 1x1 form has no row operation
        forms = [random_generic_gram(rng, n), random_pd_gram(rng, n)]
        forms += [apply_transform(named_lattice(name), random_unimodular(rng, n, ops=ops, coeff=2))
                  for name in (f"Z{n}",) + roots.get(n, ())]
        forms.append(GramMatrix([[rng.randint(1, 9) * (i == j) for j in range(n)] for i in range(n)]))
        if n >= 3:
            forms.append(GramMatrix([[2 * (i == j) + ({i, j} in ({0, 2}, {1, 2})) for j in range(n)]
                                     for i in range(n)]))
        for g in forms:
            for a in (g.scaled()[0], _reduced_view(g).a_red):
                expected = max(signed_representative(a, p)[1] for p in product((0, 1), repeat=n))
                assert _signed_radius(a) == expected
