import random
from fractions import Fraction

import pytest

from minkred.centering import centering_data, check_theorem_bound, classify_centering
from minkred.corpus import E8_STAR_COORDS, named_lattice
from minkred.errors import DependentVectorsError, NotReducedError
from minkred.exactlin import GramMatrix, apply_transform, identity_matrix, int_determinant
from minkred.reduction import (
    is_minkowski_reduced_definitional,
    is_minkowski_reduced_table,
    minkowski_reduce,
)

from _generators import random_generic_gram, random_unimodular
from _oracles import brute_coset_reps

F = Fraction
H = F(1, 2)


def halfsum_subbasis(n):
    """e_1..e_{n-1} plus 2e_n - e_1 - ... - e_{n-1}: the all-halves index-2
    centering in sub-basis coordinates."""
    rows = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n - 1)]
    last = tuple(-1 if j < n - 1 else 2 for j in range(n))
    return rows + [last]


def thirdsum_subbasis6():
    rows = [tuple(1 if j == i else 0 for j in range(6)) for i in range(5)]
    rows.append((-1, -1, -1, -1, -1, 3))
    return rows


class TestCenteringData:
    def test_identity_trivial(self):
        data = centering_data(identity_matrix(4))
        assert data.index_V == 1
        assert data.coset_reps == ((F(0),) * 4,)
        assert data.denominator_U == 1

    def test_halfsum_dim4(self):
        data = centering_data(halfsum_subbasis(4))
        assert data.index_V == 2
        assert data.denominator_U == 2
        assert (H, H, H, H) in data.coset_reps

    def test_example9_sublattice_index(self):
        # {e1..e7, e8*, e9}: index = |det| of the coordinate matrix
        rows = [tuple(1 if j == i else 0 for j in range(9)) for i in range(7)]
        rows.append(E8_STAR_COORDS)
        rows.append(tuple(1 if j == 8 else 0 for j in range(9)))
        cols = tuple(tuple(rows[j][i] for j in range(9)) for i in range(9))
        data = centering_data(rows)
        assert data.index_V == abs(int_determinant(cols)) == 2

    def test_dependent_rejected(self):
        with pytest.raises(DependentVectorsError):
            centering_data([(1, 0), (2, 0)])

    def test_dimension_one(self):
        data = centering_data([(3,)])
        assert data.index_V == 3 and data.denominator_U == 3
        assert data.coset_reps == ((F(0),), (F(1, 3),), (F(2, 3),))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_grid_oracle(self, seed):
        rng = random.Random(seed + 700)
        n = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if 1 <= abs(int_determinant(rows)) <= 12:
                break
        assert tuple(centering_data(rows)) == brute_coset_reps(rows)

    @pytest.mark.parametrize("seed", range(20))
    def test_u_divides_v_and_rep_count(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 4)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if int_determinant(rows) != 0:
                break
        data = centering_data(rows)
        assert data.index_V == abs(int_determinant([list(c) for c in zip(*rows)]))
        assert data.index_V % data.denominator_U == 0
        assert len(data.coset_reps) == data.index_V
        assert len(set(data.coset_reps)) == data.index_V

    def test_invariant_under_subbasis_permutation(self):
        rng = random.Random(5)
        rows = halfsum_subbasis(5)
        data = centering_data(rows)
        for _ in range(4):
            perm = list(range(5))
            rng.shuffle(perm)
            permuted = [rows[i] for i in perm]
            d2 = centering_data(permuted)
            assert d2.index_V == data.index_V
            assert d2.denominator_U == data.denominator_U
            assert classify_centering(d2) == classify_centering(data)


class TestClassification:
    def test_trivial_class_dim5(self):
        data = centering_data(identity_matrix(5))
        cls = classify_centering(data)
        assert cls is not None and (cls.U, cls.V) == (1, 1)

    @pytest.mark.parametrize("n", (4, 5, 6))
    def test_halfsum_classifies(self, n):
        data = centering_data(halfsum_subbasis(n))
        cls = classify_centering(data)
        assert cls is not None
        assert (cls.U, cls.V) == (2, 2)
        assert cls.relevant_rows == ((H,) * n,)

    def test_four_halves_dim5(self):
        rows = [tuple(1 if j == i else 0 for j in range(5)) for i in (0, 1, 2)]
        rows.append((-1, -1, -1, 2, 0))
        rows.append((0, 0, 0, 0, 1))
        cls = classify_centering(centering_data(rows))
        assert cls is not None and cls.relevant_rows == ((H, H, H, H, 0),)

    def test_thirdsum_dim6(self):
        data = centering_data(thirdsum_subbasis6())
        assert data.index_V == 3 and data.denominator_U == 3
        cls = classify_centering(data)
        assert cls is not None and (cls.U, cls.V) == (3, 3)
        assert cls.relevant_rows == ((F(1, 3),) * 6,)

    def test_v4_block_dim6(self):
        rows = [tuple(1 if j == i else 0 for j in range(6)) for i in (0, 1, 2)]
        rows.insert(3, (-1, -1, -1, 2, 0, 0))
        rows.append((0, 0, 0, 0, 1, 0))
        rows.append((-1, -1, 0, 0, -1, 2))
        data = centering_data(rows)
        assert data.index_V == 4
        cls = classify_centering(data)
        assert cls is not None and (cls.U, cls.V) == (2, 4)
        assert len(cls.relevant_rows) == 3

    def test_two_halves_dim6_unknown(self):
        rows = [tuple(1 if j == i else 0 for j in range(6)) for i in range(5)]
        rows[1] = (-1, 2, 0, 0, 0, 0)
        rows.append((0, 0, 0, 0, 0, 1))
        # build sublattice with rep (1/2, 1/2, 0, 0, 0, 0)
        rows = [
            (1, 0, 0, 0, 0, 0),
            (-1, 2, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ]
        # sub-basis {e1, 2e2-e1, e3..e6}: (e1+e2) has coords (1/2,1/2,0,...)? no:
        # solve c1 e1' + c2 (2e2-e1) = e2 -> c2 = 1/2, c1 = 1/2
        data = centering_data(rows)
        assert data.index_V == 2
        assert (H, H, 0, 0, 0, 0) in data.coset_reps
        assert classify_centering(data) is None


def has_half_centered_face(data):
    """True when some coset representative centers a face with denominator
    2, i.e. equals 1/2 on a nonempty coordinate subset and 0 elsewhere."""
    return any(H in rep and all(x in (0, H) for x in rep) for rep in data.coset_reps)


class TestObservationB:
    @pytest.mark.parametrize("seed", range(30))
    def test_half_centered_face_forces_even_volume(self, seed):
        rng = random.Random(seed + 100)
        n = rng.randint(2, 4)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if int_determinant(rows) != 0:
                break
        data = centering_data(rows)
        if has_half_centered_face(data):
            assert data.index_V % 2 == 0

    def test_positive_case(self):
        data = centering_data(halfsum_subbasis(4))
        assert has_half_centered_face(data)
        assert data.index_V % 2 == 0


class TestTheoremBound:
    def test_identity_dim6(self):
        rep = check_theorem_bound(GramMatrix(identity_matrix(6)))
        assert rep.max_abs_coordinate_seen == 1
        assert rep.bound == 3
        assert not rep.counterexamples

    def test_requires_reduced(self):
        with pytest.raises(NotReducedError):
            check_theorem_bound(GramMatrix([[4, 3], [3, 5]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_reduced_dim4(self, seed):
        g = random_generic_gram(random.Random(seed + 300), 4)
        rep = check_theorem_bound(minkowski_reduce(g).reduced)
        assert rep.max_abs_coordinate_seen <= 2
        assert not rep.counterexamples

    @pytest.mark.parametrize(
        "name, seen, bound",
        [("E6", 3, 3), ("D6", 2, 3), ("D5", 2, 2), ("D4", 2, 2), ("A5", 1, 2), ("A6", 1, 3)],
    )
    def test_root_lattices_pin_the_bound(self, name, seen, bound):
        # E6, D5 and D4 reach the bound: E6's minimum vectors include
        # (1,2,3,2,1,1) in its Dynkin basis
        g = named_lattice(name)
        assert minkowski_reduce(g).iterations == 0
        rep = check_theorem_bound(g)
        assert (rep.max_abs_coordinate_seen, rep.bound) == (seen, bound)
        assert not rep.counterexamples

    @pytest.mark.parametrize("index, name", enumerate(["E6", "D6", "A6", "D5", "D4"]))
    def test_skewed_root_lattices_reduced(self, index, name):
        # the reduced basis of a skewed copy need not be the named one, so
        # its minimum vectors are read in another reduced basis
        base = named_lattice(name)
        rng = random.Random(7100 + index)
        seen = []
        for _ in range(6):
            g = minkowski_reduce(apply_transform(base, random_unimodular(rng, base.n, coeff=2))).reduced
            assert is_minkowski_reduced_table(g) is True
            assert is_minkowski_reduced_definitional(g) is True
            rep = check_theorem_bound(g)
            assert not rep.counterexamples
            assert rep.max_abs_coordinate_seen <= rep.bound
            seen.append(rep.max_abs_coordinate_seen)
        if name == "E6":
            assert 3 in seen

    @pytest.mark.parametrize("n", [5, 6])
    def test_generic_reduced(self, n):
        rng = random.Random(7200 + n)
        for _ in range(20):
            rep = check_theorem_bound(minkowski_reduce(random_generic_gram(rng, n)).reduced)
            assert not rep.counterexamples
            assert rep.max_abs_coordinate_seen <= rep.bound
