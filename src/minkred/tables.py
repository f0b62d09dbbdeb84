"""The three finite tables driving everything in dimensions 2..6: the
reduction-condition candidate columns, the Dirichlet-Voronoi relevant-vector
candidate columns, and the admissible-centering classes, plus the expansion
of raw columns into explicit coordinate-vector sets. The expansion relies on
two facts of the columns, both pinned by the tests: each holds a 1, and no
two have the same norm.

Raw column data is transcribed verbatim; a golden listing under docs/ guards
against transcription slips.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd
from typing import NamedTuple, Optional

from .errors import UnsupportedDimensionError
from .exactlin import _int_rows

F = Fraction

MIN_TABLE_DIM = 2
MAX_TABLE_DIM = 6


class ExpandedCandidate(NamedTuple):
    coords: tuple[int, ...]   # n-dimensional, canonical sign, gcd 1
    pivot: int                # largest 0-based index with nonzero coordinate


class CenteringClass(NamedTuple):
    dimension: int
    U: int                          # lcm of denominators of the relevant rows
    V: int                          # index (volume) of the centering
    relevant_rows: tuple[tuple[Fraction, ...], ...]


# Reduction conditions, 9 columns. A form in dimension n <= 6 is
# Minkowski-reduced iff Q(e_i) <= Q(e_{i+1}) for all i and Q(u) >= Q(e_i)
# for every sign/permutation image u of these columns (restricted to at
# most n nonzero coordinates) and every i with gcd(u_i, ..., u_n) = 1.
REDUCTION_COLUMNS: tuple[tuple[int, ...], ...] = (
    (1, 1, 0, 0, 0, 0),
    (1, 1, 1, 0, 0, 0),
    (1, 1, 1, 1, 0, 0),
    (1, 1, 1, 1, 1, 0),
    (1, 1, 1, 1, 2, 0),
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 1, 2),
    (1, 1, 1, 1, 2, 2),
    (1, 1, 1, 1, 2, 3),
)

# Relevant-vector candidates: the reduction columns are the first part; the
# second and third parts below extend them. One second-part column ends in
# the undetermined symbol m and is excluded from expansion (the exclusion is
# surfaced by dump_tables so reports stay honest about it).
RELEVANT_EXTRA_COLUMNS: tuple[tuple[int, ...], ...] = (
    # part two, columns 1..8 (column 9 is the excluded m-column)
    (1, 0, 0, 0, 0, 0),
    (1, 1, 1, 2, 0, 0),
    (1, 1, 1, 2, 2, 0),
    (1, 1, 1, 1, 1, 3),
    (1, 1, 1, 2, 2, 2),
    (1, 1, 1, 2, 2, 3),
    (1, 1, 1, 2, 2, 4),
    (1, 1, 2, 2, 2, 3),
    # part three
    (1, 1, 1, 2, 3, 0),
    (1, 1, 1, 2, 3, 3),
    (1, 1, 1, 2, 3, 4),
    (1, 1, 2, 2, 3, 4),
    (1, 2, 2, 2, 3, 3),
)

# Columns carrying the undetermined symbol m, recorded (with m as None) so
# reports can state exactly what was left out.
EXCLUDED_M_COLUMNS: tuple[tuple, ...] = (
    (1, 1, 1, 1, 2, None),
)


def _centering_rows(*rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


# Admissible centerings of a minimum parallelepiped up to dimension 6;
# one entry per class, the V=4 six-dimensional class carries its three
# relevant rows together.
CENTERING_CLASSES: tuple[CenteringClass, ...] = (
    CenteringClass(2, 1, 1, _centering_rows((0, 0))),
    CenteringClass(3, 1, 1, _centering_rows((0, 0, 0))),
    CenteringClass(4, 1, 1, _centering_rows((0, 0, 0, 0))),
    CenteringClass(4, 2, 2, _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2)))),
    CenteringClass(5, 1, 1, _centering_rows((0, 0, 0, 0, 0))),
    CenteringClass(5, 2, 2, _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0))),
    CenteringClass(
        5, 2, 2, _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)))
    ),
    CenteringClass(6, 1, 1, _centering_rows((0, 0, 0, 0, 0, 0))),
    CenteringClass(
        6, 2, 2, _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0))
    ),
    CenteringClass(
        6, 2, 2, _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0))
    ),
    CenteringClass(
        6,
        2,
        2,
        _centering_rows((F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2))),
    ),
    CenteringClass(
        6,
        2,
        4,
        _centering_rows(
            (F(1, 2), F(1, 2), F(1, 2), F(1, 2), 0, 0),
            (F(1, 2), F(1, 2), 0, 0, F(1, 2), F(1, 2)),
            (0, 0, F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
        ),
    ),
    CenteringClass(
        6,
        3,
        3,
        _centering_rows((F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1, 3))),
    ),
)


def _check_dim(n, entry: str) -> int:
    """n as an int (exactlin._int_rows, naming ``entry``) that the tables
    cover; every table entry point gates n here before any cache."""
    ((n,),) = _int_rows(((n,),), 1, entry)
    if not (MIN_TABLE_DIM <= n <= MAX_TABLE_DIM):
        raise UnsupportedDimensionError(
            f"tables cover dimensions {MIN_TABLE_DIM}..{MAX_TABLE_DIM}, got {n}"
        )
    return n


def canonical_sign(coords):
    """Flip signs so the first nonzero coordinate is positive."""
    for x in coords:
        if x > 0:
            return tuple(coords)
        if x < 0:
            return tuple(-v for v in coords)
    return tuple(coords)


def _pivot(coords) -> int:
    return max(i for i, x in enumerate(coords) if x != 0)


@lru_cache(maxsize=None)
def _expand_columns(columns, n):
    """Every sign/permutation image of the columns with at most n nonzero
    entries, in n coordinates and canonical sign, sorted by (pivot, column
    norm, coordinates).

    Every column holds a 1, so each image has gcd 1; the columns have
    pairwise distinct norms, so no image comes from two columns and the
    norm alone orders them."""
    ranked = []
    for column in columns:
        nonzero = [x for x in column if x]
        if len(nonzero) > n:
            continue
        norm = sum(x * x for x in nonzero)
        images = {
            canonical_sign(v)
            for perm in set(permutations(nonzero + [0] * (n - len(nonzero))))
            for v in product(*((x, -x) if x else (0,) for x in perm))
        }
        ranked.extend((_pivot(v), norm, v) for v in images)
    ranked.sort()
    return tuple(ExpandedCandidate(v, pivot) for pivot, _, v in ranked)


def tammela_reduction_candidates(n: int) -> tuple[ExpandedCandidate, ...]:
    """Expanded reduction-condition candidates for dimension n (2..6),
    sorted by (pivot, source column norm, coordinates)."""
    return _expand_columns(REDUCTION_COLUMNS, _check_dim(n, "tammela_reduction_candidates"))


def relevant_vector_candidates(n: int) -> tuple[ExpandedCandidate, ...]:
    """Expanded relevant-vector candidates for dimension n (2..6); a
    superset of the reduction candidates. The m-bearing column is excluded."""
    n = _check_dim(n, "relevant_vector_candidates")
    return _expand_columns(REDUCTION_COLUMNS + RELEVANT_EXTRA_COLUMNS, n)


def relevant_abs_patterns(n: int) -> frozenset:
    """Sorted absolute-coordinate tuples of all relevant candidates; the
    membership test set for Voronoi certification.

    Read from the columns, not their expansion: a column with at most n
    nonzero entries gives the pattern of its n largest entries, and every
    column holds a 1, so some sign image of it has gcd 1."""
    return _abs_patterns(_check_dim(n, "relevant_abs_patterns"))


@lru_cache(maxsize=None)
def _abs_patterns(n: int) -> frozenset:
    return frozenset(
        tuple(sorted(c))[-n:]
        for c in REDUCTION_COLUMNS + RELEVANT_EXTRA_COLUMNS
        if sum(1 for x in c if x) <= n
    )


def centering_classes(n: int) -> tuple[CenteringClass, ...]:
    """Admissible-centering classes of dimension n (2..6)."""
    n = _check_dim(n, "centering_classes")
    return tuple(c for c in CENTERING_CLASSES if c.dimension == n)


def max_theorem_bound(n: int) -> int:
    """Largest denominator among relevant rows of the n-dimensional
    centering classes: the coordinate bound the theorem asserts for
    minimum vectors in a Minkowski-reduced basis."""
    n = _check_dim(n, "max_theorem_bound")
    return max(x.denominator for c in CENTERING_CLASSES if c.dimension == n
               for row in c.relevant_rows for x in row)


def _span_mod_1(generators, n) -> set:
    """The subgroup of (Q/Z)^n spanned by the rational generators, as
    vectors reduced into [0,1)^n, zero included. A finite group is closed
    under addition alone, so the closure needs no negation."""
    zero = (F(0),) * n
    group = {zero}
    frontier = [zero]
    while frontier:
        base = frontier.pop()
        for row in generators:
            nxt = tuple((a + b) % 1 for a, b in zip(base, row))
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


def class_rep_set(cls: CenteringClass) -> frozenset:
    """Full set of nontrivial coset representatives generated (mod 1) by the
    class's relevant rows."""
    return frozenset(g for g in _span_mod_1(cls.relevant_rows, cls.dimension) if any(g))


def tail_gcd_index(coords) -> Optional[int]:
    """Largest 0-based i with gcd(coords[i:]) == 1, or None.

    gcd(coords[i:]) divides gcd(coords[i+1:]), so the first hit while
    scanning down from the end is the largest such i.
    """
    g = 0
    for i in range(len(coords) - 1, -1, -1):
        g = gcd(g, coords[i])
        if g == 1:
            return i
    return None


def dump_tables(n: int) -> str:
    """Deterministic text listing of both expanded candidate sets, for
    diffing against the golden copy under docs/."""
    n = _check_dim(n, "dump_tables")
    lines = [f"dimension {n}"]
    red = tammela_reduction_candidates(n)
    rel = relevant_vector_candidates(n)
    lines.append(f"reduction candidates: {len(red)}")
    for c in sorted(red, key=lambda c: c.coords):
        lines.append("  " + " ".join(str(x) for x in c.coords))
    lines.append(f"relevant-vector candidates: {len(rel)}")
    for c in sorted(rel, key=lambda c: c.coords):
        lines.append("  " + " ".join(str(x) for x in c.coords))
    for col in EXCLUDED_M_COLUMNS:
        pretty = ",".join("m" if x is None else str(x) for x in col)
        lines.append(f"excluded column ({pretty}): undetermined symbol m")
    lines.append(f"centering classes: {len(centering_classes(n))}")
    for cls in centering_classes(n):
        for row in cls.relevant_rows:
            body = " ".join(
                str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
                for x in row
            )
            lines.append(f"  U={cls.U} V={cls.V}  {body}")
    lines.append(f"theorem coordinate bound: {max_theorem_bound(n)}")
    return "\n".join(lines) + "\n"
