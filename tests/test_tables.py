from fractions import Fraction
from itertools import permutations, product
from math import gcd, lcm
from pathlib import Path

import pytest

from minkred.errors import UnsupportedDimensionError
from minkred.tables import (
    CENTERING_CLASSES,
    REDUCTION_COLUMNS,
    RELEVANT_EXTRA_COLUMNS,
    canonical_sign,
    centering_classes,
    class_rep_set,
    dump_tables,
    max_theorem_bound,
    relevant_abs_patterns,
    tail_gcd_index,
    tammela_reduction_candidates,
)

F = Fraction


def oracle_expand(columns, n):
    """Independent straight-line expansion: pad, permute, sign, dedup."""
    out = set()
    for col in columns:
        nz = [x for x in col if x]
        if len(nz) > n:
            continue
        base = nz + [0] * (n - len(nz))
        for perm in set(permutations(base)):
            for signs in product((1, -1), repeat=n):
                v = tuple(p * s for p, s in zip(perm, signs))
                g = 0
                for x in v:
                    g = gcd(g, x)
                if g != 1:
                    continue
                out.add(canonical_sign(v))
    return out


class TestReductionCandidates:
    def test_n2(self):
        got = {c.coords for c in tammela_reduction_candidates(2)}
        assert got == {(1, 1), (1, -1)}

    def test_n3_counts(self):
        cands = tammela_reduction_candidates(3)
        assert len(cands) == 10
        two = [c for c in cands if sum(1 for x in c.coords if x) == 2]
        three = [c for c in cands if sum(1 for x in c.coords if x) == 3]
        assert len(two) == 6 and len(three) == 4

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_oracle(self, n):
        got = {c.coords for c in tammela_reduction_candidates(n)}
        assert got == oracle_expand(REDUCTION_COLUMNS, n)

    def test_n6_max_coordinate(self):
        assert max(
            abs(x) for c in tammela_reduction_candidates(6) for x in c.coords
        ) == 3

    def test_bad_dims(self):
        for n in (1, 7, 0):
            with pytest.raises(UnsupportedDimensionError):
                tammela_reduction_candidates(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_candidate_invariants(self, n):
        cands = tammela_reduction_candidates(n)
        assert len({c.coords for c in cands}) == len(cands)
        for c in cands:
            g = 0
            for x in c.coords:
                g = gcd(g, x)
            assert g == 1
            first = next(x for x in c.coords if x)
            assert first > 0


def _patterns(vectors):
    return {tuple(sorted(map(abs, v))) for v in vectors}


class TestRelevantCandidates:
    """Table 4 as the Voronoi certificate reads it: its patterns."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_superset_of_reduction(self, n):
        red = _patterns(c.coords for c in tammela_reduction_candidates(n))
        assert red <= relevant_abs_patterns(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_abs_patterns_match_oracle(self, n):
        expanded = oracle_expand(REDUCTION_COLUMNS + RELEVANT_EXTRA_COLUMNS, n)
        assert relevant_abs_patterns(n) == {tuple(sorted(map(abs, v))) for v in expanded}

    def test_max_coordinates_dims_5_and_6(self):
        assert max(p[-1] for p in relevant_abs_patterns(6)) == 4
        assert max(p[-1] for p in relevant_abs_patterns(5)) == 3

    def test_n2_extras_are_unit_patterns_only(self):
        # beyond the reduction patterns only the single-entry column
        # contributes in dimension 2 (all other extra columns have >= 3
        # nonzero entries)
        red = _patterns(c.coords for c in tammela_reduction_candidates(2))
        assert relevant_abs_patterns(2) - red == {(0, 1)}

    @pytest.mark.parametrize("n", range(2, 6))
    def test_monotone_under_embedding(self, n):
        assert {(0,) + p for p in relevant_abs_patterns(n)} <= relevant_abs_patterns(n + 1)
        lower_red = {c.coords + (0,) for c in tammela_reduction_candidates(n)}
        assert lower_red <= {c.coords for c in tammela_reduction_candidates(n + 1)}

    def test_expansion_idempotent(self):
        # expanding the patterns as columns gives back the same patterns
        patterns = relevant_abs_patterns(4)
        assert _patterns(oracle_expand(patterns, 4)) == patterns


class TestColumnFacts:
    """The facts the one-pass expansion and classify_centering rely on."""

    def test_every_column_holds_a_1(self):
        # so every sign image has gcd 1: the expansion needs no gcd filter
        assert all(1 in col for col in REDUCTION_COLUMNS + RELEVANT_EXTRA_COLUMNS)

    def test_column_norms_are_distinct(self):
        # so no image comes from two columns, and the norm alone orders them
        norms = [sum(x * x for x in col) for col in REDUCTION_COLUMNS + RELEVANT_EXTRA_COLUMNS]
        assert len(set(norms)) == len(norms)

    @pytest.mark.parametrize("expand", [tammela_reduction_candidates])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_candidates_primitive_canonical_once_in_order(self, expand, n):
        cands = [c.coords for c in expand(n)]
        assert len(set(cands)) == len(cands)
        assert all(gcd(*v) == 1 and canonical_sign(v) == v for v in cands)
        # (pivot, column norm, coords): an image's norm is its column's
        keys = [(max(i for i, x in enumerate(v) if x), sum(x * x for x in v), v) for v in cands]
        assert keys == sorted(keys)

    def test_class_has_v_minus_1_nontrivial_reps(self):
        # so data that matches a class on V matches it on the number of reps
        for cls in CENTERING_CLASSES:
            assert len(class_rep_set(cls)) + 1 == cls.V


class TestCenteringClasses:
    def test_counts_per_dimension(self):
        assert len(centering_classes(2)) == 1
        assert len(centering_classes(3)) == 1
        assert len(centering_classes(4)) == 2
        assert len(centering_classes(5)) == 3
        assert len(centering_classes(6)) == 6

    def test_n4_rows(self):
        cls = centering_classes(4)
        assert (cls[0].U, cls[0].V) == (1, 1)
        assert (cls[1].U, cls[1].V) == (2, 2)
        assert cls[1].relevant_rows == ((F(1, 2),) * 4,)

    def test_n6_blocks(self):
        cls = centering_classes(6)
        v4 = [c for c in cls if c.V == 4]
        assert len(v4) == 1 and v4[0].U == 2 and len(v4[0].relevant_rows) == 3
        thirds = [c for c in cls if c.U == 3]
        assert len(thirds) == 1 and thirds[0].V == 3
        assert thirds[0].relevant_rows == ((F(1, 3),) * 6,)

    def test_u_is_lcm_and_divides_v(self):
        for cls in CENTERING_CLASSES:
            u = 1
            for row in cls.relevant_rows:
                for x in row:
                    u = lcm(u, x.denominator)
            assert u == cls.U
            assert cls.V % cls.U == 0

    def test_rep_set_closure(self):
        v4 = next(c for c in centering_classes(6) if c.V == 4)
        assert len(class_rep_set(v4)) == 3  # rows close under addition mod 1
        thirds = next(c for c in centering_classes(6) if c.U == 3)
        reps = class_rep_set(thirds)
        assert len(reps) == 2
        assert (F(2, 3),) * 6 in reps


class TestTheoremBound:
    def test_values(self):
        assert [max_theorem_bound(n) for n in range(2, 7)] == [1, 1, 2, 2, 3]


class TestTailGcd:
    def test_examples(self):
        assert tail_gcd_index((1, -1)) == 1
        assert tail_gcd_index((1, 2)) == 0
        assert tail_gcd_index((1, 1, 1, 2, 2)) == 2
        assert tail_gcd_index((2, 4)) is None
        assert tail_gcd_index((0, 0, 1)) == 2


class TestGoldenListing:
    def test_docs_listing_up_to_date(self):
        golden = Path(__file__).resolve().parent.parent / "docs" / "tables_expanded.txt"
        generated = "".join(dump_tables(n) for n in range(2, 7))
        assert golden.read_text() == generated
