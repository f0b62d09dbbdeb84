import random
from fractions import Fraction
from itertools import product

import pytest

from minkred import enumeration, voronoi
from minkred.corpus import named_lattice
from minkred.errors import NotReducedError, UnsupportedDimensionError
from minkred.enumeration import lattice_minimum
from minkred.exactlin import GramMatrix, apply_transform, identity_matrix, mat_vec
from minkred.reduction import minkowski_reduce
from minkred.tables import canonical_sign
from minkred.voronoi import check_table4_membership, relevant_vectors

from _generators import (
    random_generic_gram,
    random_pd_gram,
    random_unimodular,
    skewed_orthogonal_gram,
)
from _oracles import brute_coset_minima, eval_q, gram_inverse, signed_representative
from test_enumeration import coset_classes

F = Fraction


def _canonical(x):
    return tuple(x) if next(v for v in x if v) > 0 else tuple(-v for v in x)


class TestRelevantVectors:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_cubic_lattice(self, n):
        rel = relevant_vectors(GramMatrix(identity_matrix(n)))
        assert len(rel.vectors) == n
        assert set(rel.vectors) == {
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        }

    def test_a2_hexagon(self):
        rel = relevant_vectors(named_lattice("A2"))
        assert len(rel.vectors) == 3
        assert all(q == 2 for q in rel.norms)

    def test_count_bound_and_negation_symmetry(self):
        rng = random.Random(1)
        for _ in range(6):
            n = rng.randint(2, 4)
            g = random_generic_gram(rng, n)
            rel = relevant_vectors(g)
            assert len(rel.vectors) <= 2**n - 1
            for v in rel.vectors:
                assert canonical_sign(v) == v

    def test_generic_dim4_count(self):
        hits = 0
        for seed in range(12):
            rng = random.Random(seed + 900)
            g = random_generic_gram(rng, 4)
            rel = relevant_vectors(g)
            assert len(rel.vectors) <= 15  # 30 signed
            if len(rel.vectors) == 15:
                hits += 1
        # ties are rare for wide integer entries; with entries in +-3 they
        # are real and common
        assert hits >= 8

    def test_matches_coset_oracle(self):
        # The box oracle runs on the orthogonal form diag(d), whose box is
        # small, and its minima y map back to x = T^-1 y; x is in the coset
        # p (mod 2) exactly when y = T x is in the coset T p (mod 2). Every
        # coset with two or more odd coordinates of T p is a tie.
        rng = random.Random(7)
        for _ in range(4):
            n = rng.randint(2, 3)
            g, d, t = skewed_orthogonal_gram(rng, n)
            diag = [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
            t_inv = [[int(x) for x in row] for row in gram_inverse(t)]
            rel = relevant_vectors(g)
            expected = []
            for parity_bits in range(1, 2**n):
                parity = [(parity_bits >> i) & 1 for i in range(n)]
                image = [sum(t[k][j] * parity[j] for j in range(n)) % 2 for k in range(n)]
                bound = eval_q(diag, image)
                _, reps = brute_coset_minima(diag, image, bound)
                if len(reps) == 1:
                    x = [sum(t_inv[i][k] * reps[0][k] for k in range(n)) for i in range(n)]
                    if next(v for v in x if v != 0) < 0:
                        x = [-v for v in x]
                    expected.append(tuple(x))
            assert sorted(rel.vectors) == sorted(expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_coset_oracle_on_generic_forms(self, seed, monkeypatch):
        # Every coset, one at a time, against the box oracle on a generic
        # form, where most cosets have one minimum pair. The one ball's
        # radius must reach every coset minimum.
        radii = []
        core = enumeration._enumerate_core

        def logged(view, bound_num, bound_den):
            radii.append(F(bound_num, bound_den * view.den))
            return core(view, bound_num, bound_den)

        monkeypatch.setattr(enumeration, "_enumerate_core", logged)
        rng = random.Random(seed + 700)
        n = 2 + seed % 3
        g = random_pd_gram(rng, n)
        rel = relevant_vectors(g)
        a, den = g.scaled()
        expected = []
        for parity in product((0, 1), repeat=n):
            if any(parity):
                _, q = signed_representative(a, parity)
                lam, reps = brute_coset_minima(g.rows, parity, F(q, den))
                assert lam <= radii[0]
                if len(reps) == 1:
                    expected.append((lam, reps[0]))
        expected.sort()
        assert list(zip(rel.norms, rel.vectors)) == expected

    def test_commutes_with_basis_change(self):
        rng = random.Random(21)
        g, _, _ = skewed_orthogonal_gram(rng, 3)
        t = random_unimodular(rng, 3, coeff=2)
        h = apply_transform(g, t)
        rel_g = set(relevant_vectors(g).vectors)
        rel_h = relevant_vectors(h).vectors
        mapped = {canonical_sign(mat_vec(t, v)) for v in rel_h}
        assert mapped == rel_g

    def test_one_lll_run_per_form(self, monkeypatch):
        # both calls read the one ball from the form's cached LLL view
        runs = []
        lll_transform = enumeration.lll_transform

        def counted(*args):
            runs.append(args)
            return lll_transform(*args)

        monkeypatch.setattr(enumeration, "lll_transform", counted)
        g = random_generic_gram(random.Random(5), 4)
        relevant_vectors(g)
        relevant_vectors(g)
        assert len(runs) == 1

    def test_one_ball_per_form(self, monkeypatch):
        calls = []
        core = enumeration._enumerate_core

        def counted(*args):
            calls.append(args)
            return core(*args)

        monkeypatch.setattr(enumeration, "_enumerate_core", counted)
        relevant_vectors(random_generic_gram(random.Random(3), 5))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "name, top, classes, pairs, signed",
        [(f"Z{n}", n, 1, 2 ** (n - 1), 2 * n) for n in range(2, 8)]
        + [("A6", 6, 7, 10, 42), ("D6", 6, 2, 16, 60), ("E6", 4, 27, 5, 72)],
    )
    def test_ties_at_the_largest_class_minimum_are_kept(self, name, top, classes, pairs, signed):
        # The binning stops above the norm that fills the last class, so
        # every pair at that norm must still be kept. In Z^n the last class
        # is (1, ..., 1), with minimum n reached by 2^(n-1) pairs. The box
        # oracle runs on the named form and its minima y map to x = T^-1 y
        # in the skewed form's coordinates.
        base = named_lattice(name)
        n = base.n
        # each class's minimum, keyed by its parity in base's coordinates
        minima = {p: lam for p, (lam, _) in coset_classes(base).items()}
        tops = [p for p, lam in minima.items() if lam == top]
        assert len(minima) == 2**n - 1
        assert max(minima.values()) == top and len(tops) == classes
        oracle = {p: brute_coset_minima(base.rows, p, top) for p in tops}
        assert all(len(reps) == pairs for _, reps in oracle.values())
        rng = random.Random(n + 40)
        for t in (identity_matrix(n), random_unimodular(rng, n, coeff=2), random_unimodular(rng, n, coeff=2)):
            g = apply_transform(base, t)
            t_inv = [[int(x) for x in row] for row in gram_inverse(t)]
            classes = coset_classes(g)
            for p, (lam, reps) in oracle.items():
                mapped = sorted(_canonical(mat_vec(t_inv, y)) for y in reps)
                parity = tuple(x % 2 for x in mat_vec(t_inv, p))
                assert classes[parity] == (lam, tuple(mapped))
            assert 2 * len(relevant_vectors(g).vectors) == signed

    def test_maps_back_only_the_vectors_it_returns(self, monkeypatch):
        # tie cosets are dropped before any vector leaves the LLL view
        calls = []
        map_back = enumeration._map_back

        def counted(view, coords):
            calls.append(coords)
            return map_back(view, coords)

        monkeypatch.setattr(enumeration, "_map_back", counted)
        for g in (GramMatrix(identity_matrix(4)), named_lattice("E6"), random_pd_gram(random.Random(11), 5)):
            calls.clear()
            assert len(relevant_vectors(g).vectors) == len(calls)

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            relevant_vectors(GramMatrix(identity_matrix(10)))

    def test_example9_count_is_basis_free(self):
        # the paper's 9-dim example in three bases: {e1..e9}, the
        # Minkowski- but not Hermite-reduced {e1..e7, e8*, e9*}, and a skewed one
        g = named_lattice("example9")
        moved = apply_transform(g, random_unimodular(random.Random(9), 9, coeff=2))
        counts = [len(relevant_vectors(h).vectors) for h in (g, named_lattice("example9-mnh"), moved)]
        assert counts == [313] * 3


def certify_minima_relevant(g):
    """Every minimum vector of g is a relevant vector."""
    rel = set(relevant_vectors(g).vectors)
    return all(v in rel for v, _ in lattice_minimum(g)[1].vectors)


class TestCertifyMinimaRelevant:
    def test_identity_and_a2(self):
        assert certify_minima_relevant(GramMatrix(identity_matrix(3)))
        assert certify_minima_relevant(named_lattice("A2"))

    def test_example9(self):
        assert certify_minima_relevant(named_lattice("example9"))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances(self, seed):
        rng = random.Random(seed + 5000)
        n = rng.randint(2, 5)
        assert certify_minima_relevant(random_generic_gram(rng, n))


class TestTable4Membership:
    def test_identity_dim6(self):
        rep = check_table4_membership(GramMatrix(identity_matrix(6)))
        assert rep.all_match and rep.checked == 6 and rep.max_abs_coordinate == 1

    def test_requires_reduced(self):
        with pytest.raises(NotReducedError):
            check_table4_membership(GramMatrix([[4, 3], [3, 5]]))

    @pytest.mark.parametrize(
        "name, checked, max_abs",
        [
            ("A5", 15, 1),
            ("D5", 20, 2),
            ("A6", 21, 1),
            ("D6", 30, 2),
            ("E6", 36, 3),
            ("D4-centered-cubic", 12, 2),
        ],
    )
    def test_named_lattices(self, name, checked, max_abs):
        g = named_lattice(name)
        assert minkowski_reduce(g).iterations == 0
        rep = check_table4_membership(g)
        assert (rep.checked, rep.matched, rep.max_abs_coordinate) == (checked, checked, max_abs)
        assert rep.all_match and rep.dimension == g.n

    def test_mismatches_are_reported(self, monkeypatch):
        # without the patterns that hold a 3, E6's relevant vectors with a
        # coordinate 3 no longer match
        patterns = voronoi.relevant_abs_patterns
        monkeypatch.setattr(
            voronoi,
            "relevant_abs_patterns",
            lambda n: frozenset(p for p in patterns(n) if 3 not in p),
        )
        rep = check_table4_membership(named_lattice("E6"))
        assert rep.mismatches and not rep.all_match
        assert rep.matched + len(rep.mismatches) == rep.checked == 36
        assert all(3 in map(abs, v) for v, _ in rep.mismatches)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_reduced_dim5(self, seed):
        rng = random.Random(seed + 6000)
        g = minkowski_reduce(random_generic_gram(rng, 5)).reduced
        rep = check_table4_membership(g)
        assert rep.all_match
        assert rep.max_abs_coordinate <= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_random_reduced_dim6_max_coordinate(self, seed):
        rng = random.Random(seed + 6100)
        g = minkowski_reduce(random_generic_gram(rng, 6)).reduced
        rep = check_table4_membership(g)
        assert rep.all_match
        assert rep.max_abs_coordinate <= 4
