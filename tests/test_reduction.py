import random
import time
from fractions import Fraction

import pytest

from minkred import enumeration, reduction
from minkred.centering import check_theorem_bound
from minkred.corpus import named_lattice
from minkred.enumeration import lattice_minimum, successive_minima
from minkred.errors import NotPositiveDefiniteError, NotReducedError, UnsupportedDimensionError
from minkred.exactlin import (
    GramMatrix,
    apply_transform,
    first_nonpositive_pivot,
    identity_matrix,
    int_determinant,
    integral_gram_schmidt,
    transform_gram_int,
)
from minkred.reduction import (
    Violation,
    lll_transform,
    greedy_minkowski_basis,
    hermite_witness_search,
    is_minkowski_reduced_definitional,
    is_minkowski_reduced_table,
    lll_reduce,
    minkowski_reduce,
)
from minkred.tables import tail_gcd_index, tammela_reduction_candidates
from minkred.voronoi import check_table4_membership, relevant_vectors

from _generators import (
    random_generic_gram,
    random_pd_gram,
    random_unimodular,
    skewed_orthogonal_gram,
)
from _oracles import (
    brute_first_violation,
    brute_greedy_basis,
    eval_q,
    first_nonpositive_minor,
    flat_table_first_violation,
    frac_det_gauss,
    mat_product,
    root_orbit,
    table_checks,
)

F = Fraction


class TestTableCheck:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_identity_reduced(self, n):
        assert is_minkowski_reduced_table(GramMatrix(identity_matrix(n))) is True

    def test_4_3_3_5_violation(self):
        v = is_minkowski_reduced_table(GramMatrix([[4, 3], [3, 5]]))
        assert isinstance(v, Violation)
        assert v.vector == (1, -1)
        assert v.q_u == 3
        assert v.q_u < v.q_ei
        assert tail_gcd_index(v.vector) >= v.index

    def test_3_1_1_4_reduced(self):
        assert is_minkowski_reduced_table(GramMatrix([[3, 1], [1, 4]])) is True

    def test_monotonicity_violation(self):
        v = is_minkowski_reduced_table(GramMatrix([[2, 0], [0, 1]]))
        assert isinstance(v, Violation)
        assert v.vector == (0, 1) and v.index == 0

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            is_minkowski_reduced_table(named_lattice("example9"))
        with pytest.raises(NotPositiveDefiniteError):
            is_minkowski_reduced_table(GramMatrix([[1, 3], [3, 1]]))


def _flat(g):
    return flat_table_first_violation(
        g.rows, [c.coords for c in tammela_reduction_candidates(g.n)]
    )


def _assert_table_matches_flat_scan(g):
    got = is_minkowski_reduced_table(g)
    assert (got if got is True else tuple(got)) == _flat(g)


def _check_values(g):
    """Every table check as Q(u) - Q(e_i), >= 0 when it holds."""
    cands = [c.coords for c in tammela_reduction_candidates(g.n)]
    return [q_u - q_ei for _, _, q_u, q_ei in table_checks(g.rows, cands)]


def _scaled_by(g, scale):
    return GramMatrix([[x * scale for x in row] for row in g.rows])


def _no_scan(*args):
    raise AssertionError("the table was scanned again")


def _face_form(rng, n):
    """An integral reduced form with a tight check, Q(u) = Q(e_i) or
    Q(e_{k+1}) = Q(e_k): the segment from a reduced form G to a moved copy
    H leaves the domain at t = min f(G) / (f(G) - f(H)) over the checks f
    that H fails, and den * ((1 - t) G + t H) is integral."""
    g = minkowski_reduce(random_generic_gram(rng, n, spread=rng.choice([3, 10]))).reduced
    fg = _check_values(g)
    while True:
        h = apply_transform(g, random_unimodular(rng, n, ops=1, coeff=2))
        fh = _check_values(h)
        if min(fh) < 0:
            break
    t = min(F(a, a - b) for a, b in zip(fg, fh) if b < 0)
    num, den = t.numerator, t.denominator
    return GramMatrix(
        [[(den - num) * x + num * y for x, y in zip(rg, rh)] for rg, rh in zip(g.rows, h.rows)]
    )


class TestTableCertificate:
    """The packed sum against a flat scan of every check."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generic_unreduced(self, seed):
        rng = random.Random(seed + 9000)
        for n in range(2, 7):
            g = random_generic_gram(rng, n, spread=rng.choice([2, 3, 10, 50]))
            _assert_table_matches_flat_scan(g)
            _assert_table_matches_flat_scan(apply_transform(g, random_unimodular(rng, n)))

    @pytest.mark.parametrize("seed", range(12))
    def test_reduced_moved_by_one_column_operation(self, seed):
        rng = random.Random(seed + 9100)
        for n in range(2, 7):
            reduced = minkowski_reduce(random_generic_gram(rng, n, spread=rng.choice([3, 50])))
            _assert_table_matches_flat_scan(reduced.reduced)
            t = random_unimodular(rng, n, ops=1, coeff=2)
            _assert_table_matches_flat_scan(apply_transform(reduced.reduced, t))

    @pytest.mark.parametrize(
        "name", ["A2", "A3", "A4", "A5", "A6", "D3", "D4", "D5", "D6", "E6", "D4-centered-cubic"]
    )
    def test_root_lattices_with_ties(self, name):
        rng = random.Random(name)
        g = named_lattice(name)
        _assert_table_matches_flat_scan(g)
        for _ in range(3):
            skewed = apply_transform(g, random_unimodular(rng, g.n))
            _assert_table_matches_flat_scan(skewed)
            reduced = minkowski_reduce(skewed).reduced
            assert _flat(reduced) is True
            _assert_table_matches_flat_scan(reduced)
            _assert_table_matches_flat_scan(
                apply_transform(reduced, random_unimodular(rng, g.n, ops=1, coeff=1))
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_forms_on_a_face(self, seed):
        rng = random.Random(seed + 9200)
        for n in range(2, 7):
            g = _face_form(rng, n)
            assert min(_check_values(g)) == 0
            assert is_minkowski_reduced_table(g) is True
            _assert_table_matches_flat_scan(g)
            # one step off the face, along the diagonal and across a row
            rows = [list(r) for r in g.rows]
            i = rng.randrange(n)
            rows[i][i] += 1
            _assert_table_matches_flat_scan(GramMatrix(rows))
            for j in range(n):
                if j != i:
                    rows[i][j] = rows[j][i] = rows[i][j] + rng.choice([-1, 1])
            if first_nonpositive_pivot(GramMatrix(rows)) is None:
                _assert_table_matches_flat_scan(GramMatrix(rows))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_packed_slots_are_the_checks(self, n):
        checks, columns, l1 = reduction._check_list(n)
        cands = [c.coords for c in tammela_reduction_candidates(n)]
        unit = identity_matrix(n)
        assert list(checks) == [(unit[i + 1], i) for i in range(n - 1)] + [
            (u, tail_gcd_index(u)) for u in cands
        ]
        assert [len(col) for col in columns] == [len(checks)] * (n * (n + 1) // 2)
        # sum |coefficients| of Q(u) - Q(e_i): (sum |u_j|)^2 with u_i^2 made |u_i^2 - 1|
        assert l1 == max(
            sum(map(abs, u)) ** 2 - u[i] ** 2 + abs(u[i] ** 2 - 1) for u, i in checks
        )
        rng = random.Random(9600 + n)
        for _ in range(4):
            g = random_generic_gram(rng, n, spread=rng.choice([2, 10, 50]))
            a, den = g.scaled()
            s, w = reduction._packed_sum(a, n)
            bias = reduction._packed(n, w)[0]
            assert bias.bit_length() == w * len(checks) and bin(bias).count("1") == len(checks)
            assert s >> (w * len(checks)) == 0
            slots = [(s >> (w * c)) % (1 << w) - (1 << (w - 1)) for c in range(len(checks))]
            want = [(q_u - q_ei) * den for _, _, q_u, q_ei in table_checks(g.rows, cands)]
            assert slots == want

    @pytest.mark.parametrize("scale", [F(2**70), F(1, 3**40), F(2**100 + 1, 7)])
    @pytest.mark.parametrize("seed", range(2))
    def test_scaled_forms_need_wide_slots(self, scale, seed):
        rng = random.Random(seed + 9700)
        for n in range(2, 7):
            g = random_generic_gram(rng, n, spread=rng.choice([3, 50]))
            face = _face_form(rng, n)
            for form in (g, minkowski_reduce(g).reduced, face):
                _assert_table_matches_flat_scan(_scaled_by(form, scale))
            assert min(_check_values(_scaled_by(face, scale))) == 0
            assert is_minkowski_reduced_table(_scaled_by(face, scale)) is True

    @pytest.mark.parametrize("k", [2**100 + 1, 3**80])
    def test_violation_of_one_at_a_large_scale(self, k):
        # Q((1, -1)) - a_11 = k + (k + 1) - 2b - (k + 1) = -1 for 2b = k + 1, k odd
        for n in range(2, 7):
            rows = [[k + i if i == j else 0 for j in range(n)] for i in range(n)]
            rows[0][1] = rows[1][0] = (k + 1) // 2
            g = GramMatrix(rows)
            _assert_table_matches_flat_scan(g)
            v = is_minkowski_reduced_table(g)
            assert v.vector[:2] == (1, -1) and v.index == 1 and v.q_u - v.q_ei == -1
            assert reduction._packed_sum(g.scaled()[0], n)[1] > 64

    @pytest.mark.parametrize("w", [16, 32, 64, 128])
    def test_slot_values_near_the_width_bound(self, w):
        # L1 max|a| = 3m lies in [2^(w-1), 2^w), so slots need width 2w, and
        # Q((1, 1)) - a_11 = 2m - 2 >= 2^(w-1) does not fit a w-bit slot
        m = 2 ** (w - 2) + 2 ** (w - 4)
        g = GramMatrix([[m, m // 2 - 1], [m // 2 - 1, m]])
        assert reduction._packed_sum(g.scaled()[0], 2)[1] == 2 * w
        assert max(_check_values(g)) >= 2 ** (w - 1)
        _assert_table_matches_flat_scan(g)

    def test_two_widths_in_one_process(self):
        rng = random.Random(9800)
        narrow = minkowski_reduce(random_generic_gram(rng, 6, spread=3)).reduced
        moved = apply_transform(narrow, random_unimodular(rng, 6, ops=1, coeff=2))
        forms = [narrow, moved, _scaled_by(narrow, F(2**70)), _scaled_by(moved, F(2**70))]
        widths = {reduction._packed_sum(f.scaled()[0], 6)[1] for f in forms}
        assert len(widths) == 2
        for _ in range(2):
            for f in forms:
                _assert_table_matches_flat_scan(GramMatrix(f.rows))

    def test_one_scan_per_form(self, monkeypatch):
        rng = random.Random(9300)
        g = minkowski_reduce(random_generic_gram(rng, 5)).reduced
        assert is_minkowski_reduced_table(g) is True
        monkeypatch.setattr(reduction, "_first_violation_int", _no_scan)
        assert check_theorem_bound(g).counterexamples == ()
        assert check_table4_membership(g).all_match
        assert is_minkowski_reduced_table(g) is True

    def test_cached_violation_still_raises(self, monkeypatch):
        rows = apply_transform(named_lattice("E6"), random_unimodular(random.Random(9400), 6)).rows
        fresh = {}
        for check in (check_theorem_bound, check_table4_membership):
            with pytest.raises(NotReducedError) as err:
                check(GramMatrix(rows))
            fresh[check] = str(err.value)
        g = GramMatrix(rows)
        v = is_minkowski_reduced_table(g)
        assert isinstance(v, Violation)
        monkeypatch.setattr(reduction, "_first_violation_int", _no_scan)
        for check in (check_theorem_bound, check_table4_membership):
            with pytest.raises(NotReducedError) as err:
                check(g)
            assert str(err.value) == fresh[check]
            assert str(v) in fresh[check]

    def test_no_cache_across_instances(self, monkeypatch):
        scans = []
        scan = reduction._first_violation_int

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(reduction, "_first_violation_int", counted)
        rows = minkowski_reduce(random_generic_gram(random.Random(9500), 6)).reduced.rows
        first, second = GramMatrix(rows), GramMatrix(rows)
        assert first == second
        assert is_minkowski_reduced_table(first) is True
        assert is_minkowski_reduced_table(first) is True
        assert len(scans) == 1
        assert is_minkowski_reduced_table(second) is True
        assert len(scans) == 2


def _assert_first_violation_matches_brute_force(g):
    v = is_minkowski_reduced_definitional(g)
    expected = brute_first_violation(g.rows)
    assert (None if v is True else (v.index, v.q_u, v.vector)) == expected


class TestDefinitionalCheck:
    def test_example9_star_basis_reduced(self):
        assert is_minkowski_reduced_definitional(named_lattice("example9-mnh")) is True

    def test_4_3_3_5_witness(self):
        v = is_minkowski_reduced_definitional(GramMatrix([[4, 3], [3, 5]]))
        assert isinstance(v, Violation)
        assert v.q_u < v.q_ei
        assert tail_gcd_index(v.vector) >= v.index

    def test_diag_increasing(self):
        assert is_minkowski_reduced_definitional(GramMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])) is True

    @pytest.mark.parametrize("seed", range(25))
    def test_agrees_with_table_check(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        g = skewed_orthogonal_gram(rng, n)[0] if seed % 2 else random_pd_gram(rng, n)
        t = is_minkowski_reduced_table(g)
        d = is_minkowski_reduced_definitional(g)
        assert (t is True) == (d is True)
        if t is not True:
            assert isinstance(t, Violation) and isinstance(d, Violation)

    @pytest.mark.parametrize("seed", range(10))
    def test_smallest_violated_index_matches_brute_force(self, seed):
        # one basis vector of a reduced form moved: violations at any index
        rng = random.Random(seed + 6000)
        n = rng.randint(2, 4)
        reduced = minkowski_reduce(random_pd_gram(rng, n)).reduced
        _assert_first_violation_matches_brute_force(
            apply_transform(reduced, random_unimodular(rng, n, ops=1, coeff=2))
        )

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "D3", "D4", "Z3", "Z4", "D4-centered-cubic"])
    def test_tied_violations_match_brute_force(self, name):
        # many vectors share each norm: the returned u pins the tie-break
        rng = random.Random(name + "-violation")
        g = named_lattice(name)
        for _ in range(10):
            _assert_first_violation_matches_brute_force(
                apply_transform(g, random_unimodular(rng, g.n, ops=1, coeff=2))
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_table_check_generic_dim5_6(self, seed):
        rng = random.Random(seed + 5000)
        g = random_generic_gram(rng, 5 + seed % 2)
        t = is_minkowski_reduced_table(g)
        d = is_minkowski_reduced_definitional(g)
        assert (t is True) == (d is True)
        if t is not True:
            assert isinstance(t, Violation) and isinstance(d, Violation)
        rep = minkowski_reduce(g)
        assert rep.iterations <= g.n
        assert is_minkowski_reduced_table(rep.reduced) is True
        assert is_minkowski_reduced_definitional(rep.reduced) is True
        assert greedy_minkowski_basis(g).reduced.diagonal() == rep.reduced.diagonal()


class TestMinkowskiReduce:
    def test_4_3_3_5(self):
        rep = minkowski_reduce(GramMatrix([[4, 3], [3, 5]]))
        assert rep.reduced.rows == ((F(3), F(1)), (F(1), F(4)))
        # the violation at index 0 is fixed by its witness (1, -1); the
        # greedy pass then chooses both vectors of the basis
        assert rep.transform == ((1, 1), (-1, 0))
        assert [tuple(v) for v in rep.violations_fixed] == [((1, -1), 0, F(3), F(4))]
        assert rep.iterations == 2
        assert apply_transform(GramMatrix([[4, 3], [3, 5]]), rep.transform) == rep.reduced

    def test_already_reduced(self):
        g = GramMatrix([[3, 1], [1, 4]])
        rep = minkowski_reduce(g)
        assert rep.iterations == 0
        assert rep.transform == identity_matrix(2)
        assert rep.reduced == g

    @pytest.mark.parametrize("seed", range(15))
    def test_random_instances(self, seed):
        rng = random.Random(seed + 1000)
        n = rng.randint(2, 5)
        g, _, _ = skewed_orthogonal_gram(rng, n)
        rep = minkowski_reduce(g)
        assert rep.iterations <= n
        assert is_minkowski_reduced_table(rep.reduced) is True
        assert apply_transform(g, rep.transform) == rep.reduced
        assert frac_det_gauss(rep.reduced.rows) == frac_det_gauss(g.rows)
        lam, _ = lattice_minimum(g)
        assert rep.reduced[0, 0] == lam
        # idempotence
        again = minkowski_reduce(rep.reduced)
        assert again.iterations == 0 and again.reduced == rep.reduced

    def test_one_stream_per_unreduced_form(self, monkeypatch):
        # the greedy pass finds the fix itself: no search runs before it
        calls = []
        stream = enumeration._in_norm_order

        def counted(*args):
            calls.append(args)
            return stream(*args)

        monkeypatch.setattr(enumeration, "_in_norm_order", counted)
        monkeypatch.setattr(reduction, "_in_norm_order", counted)
        rng = random.Random(7300)
        for n in range(2, 7):
            calls.clear()
            assert minkowski_reduce(random_generic_gram(rng, n)).violations_fixed
            assert len(calls) == 1

    @pytest.mark.parametrize(
        "rows",
        [
            [[2, -644, 2771], [-644, 347050, -1493283], [2771, -1493283, 6425282]],
            [[2, -601, 955], [-601, 189210, -300659], [955, -300659, 477754]],
            [[694817, -301652, 820], [-301652, 130961, -356], [820, -356, 1]],
        ],
    )
    def test_skewed_dim3_within_n_fixes(self, rows):
        # fixing by single table candidates ran past a 300-fix cap on these
        g = GramMatrix(rows)
        rep = minkowski_reduce(g)
        assert is_minkowski_reduced_table(rep.reduced) is True
        assert is_minkowski_reduced_definitional(rep.reduced) is True
        assert apply_transform(g, rep.transform) == rep.reduced
        assert rep.iterations <= 3

    def test_example9_already_reduced(self):
        rep = minkowski_reduce(named_lattice("example9"))
        assert rep.iterations == 0
        assert rep.reduced.diagonal() == (F(1),) * 9

    @pytest.mark.parametrize("seed", range(3))
    def test_dims_7_to_9(self, seed):
        rng = random.Random(seed + 8000)
        bases = (named_lattice("example9"), random_generic_gram(rng, 7), random_generic_gram(rng, 8))
        for base in bases:
            g = apply_transform(base, random_unimodular(rng, base.n))
            rep = minkowski_reduce(g)
            assert rep.iterations <= g.n
            assert is_minkowski_reduced_definitional(rep.reduced) is True
            assert rep.reduced[0, 0] == lattice_minimum(g)[0]
            assert apply_transform(g, rep.transform) == rep.reduced
            assert int_determinant(rep.transform) in (1, -1)

    def test_tables_stay_off_the_reduction_path(self, monkeypatch):
        def table_scan(*args):
            raise AssertionError("minkowski_reduce reached the table scan")

        rng = random.Random(8100)
        g = apply_transform(random_generic_gram(rng, 6), random_unimodular(rng, 6))
        with monkeypatch.context() as m:
            m.setattr(reduction, "_first_violation_int", table_scan)
            rep = minkowski_reduce(g)
        assert rep.iterations > 0
        assert is_minkowski_reduced_table(rep.reduced) is True

    def test_unit_diagonal_random_transform(self):
        rng = random.Random(4)
        base = GramMatrix(identity_matrix(4))
        t = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        for _ in range(12):
            i, j = rng.sample(range(4), 2)
            c = rng.randint(-3, 3)
            for s in range(4):
                t[i][s] += c * t[j][s]
        g = apply_transform(base, tuple(map(tuple, zip(*t))))
        rep = minkowski_reduce(g)
        assert rep.reduced[0, 0] == 1


class TestPastTheTables:
    """E7 and E8 in Dynkin bases (a chain with a branch at its third node):
    the most tied forms in dimensions 7 and 8, where no table applies."""

    @pytest.mark.parametrize(
        "n, largest_coord, signed_relevant", [(7, 4, 126), (8, 6, 240)]
    )
    def test_dynkin_basis_is_reduced(self, n, largest_coord, signed_relevant):
        g = named_lattice(f"E{n}")
        rep = minkowski_reduce(g)
        assert rep.iterations == 0 and rep.reduced == g
        assert is_minkowski_reduced_definitional(g) is True
        lam, minima = lattice_minimum(g)
        assert lam == 2
        assert max(abs(x) for v, _ in minima.vectors for x in v) == largest_coord
        assert 2 * len(relevant_vectors(g).vectors) == signed_relevant
        assert successive_minima(g).norms == (2,) * n
        # a skewed copy: its violation is found among the tied roots
        skewed = apply_transform(g, random_unimodular(random.Random(n + 9500), n, ops=n))
        v = is_minkowski_reduced_definitional(skewed)
        assert isinstance(v, Violation) and v.q_u == 2
        rep = minkowski_reduce(skewed)
        assert rep.iterations <= n
        assert rep.reduced.diagonal() == (2,) * n
        assert is_minkowski_reduced_definitional(rep.reduced) is True


class TestDynkinFixtures:
    """The registry's D_n and E_n Cartan matrices, checked by other routes."""

    @pytest.mark.parametrize("n", range(3, 7))
    def test_d_n_is_the_gram_of_its_basis(self, n):
        # columns e_i - e_{i+1} (i < n - 1), then e_{n-2} + e_{n-1}
        cols = [[int(k == i) - int(k == i + 1) for k in range(n)] for i in range(n - 1)]
        cols.append([int(k >= n - 2) for k in range(n)])
        assert named_lattice(f"D{n}").rows == mat_product(cols, tuple(zip(*cols)))

    @pytest.mark.parametrize("n, det, pairs", [(6, 3, 36), (7, 2, 63), (8, 1, 120)])
    def test_e_n_determinant_and_roots(self, n, det, pairs):
        g = named_lattice(f"E{n}")
        assert frac_det_gauss(g.rows) == det
        lam, minima = lattice_minimum(g)
        assert lam == 2
        assert {v for v, _ in minima.vectors} == root_orbit(g.rows)
        assert len(minima.vectors) == pairs


class TestReducerAgreesWithDefinitionalCheck:
    """minkowski_reduce and the definitional check run separate searches;
    the one fix the reducer reports is the check's violation."""

    @staticmethod
    def _assert_agree(g):
        verdict = is_minkowski_reduced_definitional(g)
        fixes = minkowski_reduce(GramMatrix(g.rows)).violations_fixed
        assert fixes == (() if verdict is True else (verdict,))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_generic_forms(self, n):
        rng = random.Random(n + 7400)
        for _ in range(3):
            g = random_generic_gram(rng, n)
            self._assert_agree(g)
            self._assert_agree(minkowski_reduce(g).reduced)

    @pytest.mark.parametrize("name", ["A2", "A3", "D4", "D5", "E6", "E7"])
    def test_skewed_root_lattices(self, name):
        g = named_lattice(name)
        rng = random.Random(name + "-agree")
        self._assert_agree(g)
        for _ in range(4):
            self._assert_agree(apply_transform(g, random_unimodular(rng, g.n, ops=2, coeff=2)))


class TestGreedy:
    def test_identity(self):
        rep = greedy_minkowski_basis(GramMatrix(identity_matrix(3)))
        assert rep.reduced == GramMatrix(identity_matrix(3))

    def test_4_3_3_5_first_norm(self):
        rep = greedy_minkowski_basis(GramMatrix([[4, 3], [3, 5]]))
        assert rep.reduced[0, 0] == 3

    def test_example9_all_unit(self):
        rep = greedy_minkowski_basis(named_lattice("example9"))
        assert rep.reduced.diagonal() == (F(1),) * 9
        assert int_determinant(rep.transform) in (1, -1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_minkowski_profile(self, seed):
        rng = random.Random(seed + 2000)
        n = rng.randint(2, 4)
        g, _, _ = skewed_orthogonal_gram(rng, n)
        greedy = greedy_minkowski_basis(g)
        table = minkowski_reduce(g)
        assert greedy.reduced.diagonal() == table.reduced.diagonal()
        assert is_minkowski_reduced_definitional(greedy.reduced) is True

    def test_skewed_z9_completes_fast(self):
        # Z9 under 27 random column operations (|c| <= 3). Completing the
        # greedy vectors through an unreduced Smith normal form took over
        # 20 s on this form; the Euclid completion takes milliseconds.
        g = GramMatrix(SKEWED_Z9)
        start = time.perf_counter()
        rep = greedy_minkowski_basis(g)
        assert time.perf_counter() - start < 1.0
        assert rep.reduced == GramMatrix(identity_matrix(9))
        assert is_minkowski_reduced_definitional(rep.reduced) is True
        assert apply_transform(g, rep.transform) == rep.reduced


def _columns(vectors):
    return tuple(zip(*vectors))


def _oracle_reduction(g):
    """The oracle's extension of the input's valid prefix: e_1..e_{k-1}
    for the smallest violated index k, or the identity for a reduced form."""
    hit = brute_first_violation(g.rows)
    if hit is None:
        return identity_matrix(g.n), hit
    prefix = identity_matrix(g.n)[: hit[0]]
    return _columns(brute_greedy_basis(g.rows, prefix)), hit


def _assert_reducers_match_oracle(g):
    greedy = greedy_minkowski_basis(g)
    assert greedy.transform == _columns(brute_greedy_basis(g.rows))
    assert apply_transform(g, greedy.transform) == greedy.reduced
    rep = minkowski_reduce(g)
    expected, hit = _oracle_reduction(g)
    assert rep.transform == expected
    assert apply_transform(g, rep.transform) == rep.reduced
    if hit is None:
        assert rep.iterations == 0 and rep.violations_fixed == ()
    else:
        (fix,) = rep.violations_fixed
        assert (fix.index, fix.q_u, fix.vector) == hit
        assert rep.iterations == g.n - hit[0]


class TestGreedyOracle:
    """Both reducers against the brute-force greedy of tests/_oracles.py,
    exact basis for exact basis, ties included."""

    @pytest.mark.parametrize("seed", range(10))
    def test_generic_forms(self, seed):
        rng = random.Random(seed + 2100)
        for n in range(2, 5):
            g = random_pd_gram(rng, n) if seed % 2 else random_generic_gram(rng, n, spread=5)
            _assert_reducers_match_oracle(g)
            t = random_unimodular(rng, n, ops=2, coeff=2)
            _assert_reducers_match_oracle(apply_transform(g, t))

    @pytest.mark.parametrize(
        "name", ["A2", "A3", "A4", "D3", "D4", "Z2", "Z3", "Z4", "D4-centered-cubic"]
    )
    def test_skewed_root_lattices_with_ties(self, name):
        rng = random.Random(name + "-greedy")
        g = named_lattice(name)
        _assert_reducers_match_oracle(g)
        for _ in range(4):
            t = random_unimodular(rng, g.n, ops=2, coeff=2)
            _assert_reducers_match_oracle(apply_transform(g, t))


# Z^5 with Z^5 + (1/2)(1, 1, 1, 1, 1): its basis e_1..e_4, h = (1/2)(1,..,1).
# Five unit vectors span only Z^5, of index 2, so lambda_5 = 1 while the
# reduced e_5 must be a half vector, of norm 5/4.
HALF_Z5 = tuple(
    tuple(F(1 if i == j else 0) for j in range(4)) + (F(1, 2),) for i in range(4)
) + ((F(1, 2),) * 4 + (F(5, 4),),)


class TestTightExtension:
    @pytest.mark.parametrize("seed", range(10))
    def test_reduced_e5_is_longer_than_lambda5(self, seed):
        g = apply_transform(GramMatrix(HALF_Z5), random_unimodular(random.Random(seed + 2200), 5))
        assert successive_minima(g).norms == (1,) * 5
        for rep in (greedy_minkowski_basis(g), minkowski_reduce(g)):
            assert rep.reduced.diagonal() == (1, 1, 1, 1, F(5, 4))
            assert apply_transform(g, rep.transform) == rep.reduced
            assert is_minkowski_reduced_table(rep.reduced) is True
            assert is_minkowski_reduced_definitional(rep.reduced) is True


SKEWED_Z9 = (
    (136, -297, -514, -325, 291, 48, -688, 385, 23),
    (-297, 811, 1978, 1116, -746, 31, 2793, -1380, -60),
    (-514, 1978, 15258, 7572, -1695, 754, 22677, -9057, -439),
    (-325, 1116, 7572, 3799, -978, 330, 11209, -4540, -223),
    (291, -746, -1695, -978, 698, 10, -2370, 1200, 56),
    (48, 31, 754, 330, 10, 137, 1168, -432, -8),
    (-688, 2793, 22677, 11209, -2370, 1168, 33752, -13411, -647),
    (385, -1380, -9057, -4540, 1200, -432, -13411, 5498, 253),
    (23, -60, -439, -223, 56, -8, -647, 253, 16),
)


def _gso_check(g):
    """Exact rational verifier: size-reduced and Lovasz condition at 3/4."""
    n = g.n
    mu = [[F(0)] * n for _ in range(n)]
    bstar = [F(0)] * n
    for i in range(n):
        bstar[i] = g[i, i]
        for j in range(i):
            mu[i][j] = (
                g[i, j] - sum(mu[i][k] * mu[j][k] * bstar[k] for k in range(j))
            ) / bstar[j]
            bstar[i] -= mu[i][j] ** 2 * bstar[j]
    for i in range(n):
        for j in range(i):
            assert 2 * abs(mu[i][j]) <= 1
    for k in range(1, n):
        assert bstar[k] >= (F(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]


class TestLLL:
    def test_identity_unchanged(self):
        rep = lll_reduce(GramMatrix(identity_matrix(3)))
        assert rep.reduced == GramMatrix(identity_matrix(3))
        assert rep.iterations == 0

    def test_4_3_3_5_golden(self):
        rep = lll_reduce(GramMatrix([[4, 3], [3, 5]]))
        assert rep.reduced[0, 0] <= 4
        assert rep.reduced.rows == ((F(4), F(-1)), (F(-1), F(3)))

    @pytest.mark.parametrize("seed", range(12))
    def test_output_is_lll_reduced(self, seed):
        rng = random.Random(seed + 3000)
        n = rng.randint(2, 5)
        g, _, _ = skewed_orthogonal_gram(rng, n)
        rep = lll_reduce(g)
        assert apply_transform(g, rep.transform) == rep.reduced
        assert frac_det_gauss(rep.reduced.rows) == frac_det_gauss(g.rows)
        _gso_check(rep.reduced)
        t, _, d, lam = lll_transform(g.scaled()[0])
        assert t == rep.transform
        assert (d, lam) == integral_gram_schmidt(transform_gram_int(g.scaled()[0], t))


# The witness hermite_witness_search returns on example9-mnh, after 65 nodes.
EXAMPLE9_WITNESS = (
    (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (0, 1, 0, 0, 0, 0, 0, 1, -2),
    (0, 0, 1, 0, 0, 0, 0, 1, -2),
    (0, 0, 0, 1, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 1, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 1, 0, 1, -1),
    (0, 0, 0, 0, 0, 0, 1, 1, -1),
    (0, 0, 0, 0, 0, 0, 0, 1, -1),
    (0, 0, 0, 0, 0, 0, 0, -2, 3),
)


class TestHermiteWitness:
    def test_example9_search_is_pinned(self, monkeypatch):
        folds = []
        completion = reduction._completion

        def counted(rows, n, start=None):
            folds.append(len(rows))
            return completion(rows, n, start)

        monkeypatch.setattr(reduction, "_completion", counted)
        out = hermite_witness_search(named_lattice("example9-mnh"))
        assert out.nodes == 65
        assert out.basis == EXAMPLE9_WITNESS
        assert folds and set(folds) == {1}  # the DFS folds each node's vector once

    def test_example9_witness_found(self):
        g = named_lattice("example9-mnh")
        out = hermite_witness_search(g, budget=100_000)
        assert out.found
        assert out.profile == (F(1),) * 9
        assert int_determinant(out.basis) in (1, -1)

    def test_identity_none(self):
        out = hermite_witness_search(GramMatrix(identity_matrix(4)), budget=2000)
        assert not out.found

    def test_3_1_1_4_none(self):
        out = hermite_witness_search(GramMatrix([[3, 1], [1, 4]]), budget=2000)
        assert not out.found
        sm = successive_minima(GramMatrix([[3, 1], [1, 4]]))
        assert sm.norms == (3, 4)

    def test_budget_runs_out_before_the_witness(self):
        g = named_lattice("example9-mnh")
        full = hermite_witness_search(g, budget=100_000)
        assert full.found
        cut = hermite_witness_search(g, budget=full.nodes - 1)
        assert not cut.found and cut.basis is None and cut.profile is None
        assert cut.nodes == full.nodes - 1
        assert hermite_witness_search(g, budget=full.nodes).found

    def test_all_minimum_basis_never_witnessed(self):
        for name in ("A2", "D4", "Z5"):
            g = named_lattice(name)
            lam, _ = lattice_minimum(g)
            if all(g[i, i] == lam for i in range(g.n)):
                assert not hermite_witness_search(g, budget=5000).found

    def test_generic_witnesses_check_out(self):
        # skewed and reduced generic forms; every witness is checked with
        # the oracles, not with the library
        outcomes = set()
        for seed in range(8):
            for n in range(2, 6):
                rng = random.Random(7000 + 10 * seed + n)
                g = apply_transform(random_pd_gram(rng, n), random_unimodular(rng, n, ops=2, coeff=2))
                for form in (g, minkowski_reduce(g).reduced):
                    out = hermite_witness_search(form, budget=5000)
                    assert out.nodes <= 5000
                    outcomes.add(out.found)
                    if not out.found:
                        assert out.profile is None
                        continue
                    assert abs(frac_det_gauss(out.basis)) == 1
                    columns = list(zip(*out.basis))
                    assert out.profile == tuple(sorted(eval_q(form.rows, c) for c in columns))
                    assert out.profile < tuple(sorted(form[i, i] for i in range(n)))
        assert outcomes == {True, False}



@pytest.mark.parametrize(
    "rows",
    [[[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[1, 2], [2, 4]], [[2, 1, 0], [1, 2, 3], [0, 3, 1]]],
)
@pytest.mark.parametrize(
    "entry",
    [
        relevant_vectors,
        greedy_minkowski_basis,
        lll_reduce,
        hermite_witness_search,
        minkowski_reduce,
        lattice_minimum,
        is_minkowski_reduced_table,
        is_minkowski_reduced_definitional,
    ],
    ids=lambda f: f.__name__,
)
def test_non_pd_raises_at_first_bad_pivot(entry, rows):
    # the LLL view's kernel run is the check; the expected index is the
    # first leading minor <= 0, from the oracle's own determinants
    with pytest.raises(NotPositiveDefiniteError) as err:
        entry(GramMatrix(rows))
    assert err.value.pivot_index == first_nonpositive_minor(rows)


class TestReductionPreservesStructure:
    @pytest.mark.parametrize("seed", range(6))
    def test_pivots_positive_after_ops(self, seed):
        rng = random.Random(seed + 7000)
        g, _, _ = skewed_orthogonal_gram(rng, rng.randint(2, 5))
        for rep in (minkowski_reduce(g), lll_reduce(g)):
            assert first_nonpositive_pivot(rep.reduced) is None
