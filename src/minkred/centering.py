"""Centering data of a lattice over a full-rank sublattice and
classification against the admissible-centering table, plus the
coordinate-bound checker for minimum vectors in a reduced basis.

Everything here is combinatorial in the coordinates: the index, the coset
representatives in the half-open basic parallelepiped and their
denominators do not depend on any metric.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .enumeration import lattice_minimum
from .errors import DependentVectorsError, DimensionMismatchError, NotReducedError
from .exactlin import GramMatrix, IntVector, smith_normal_form
from .reduction import is_minkowski_reduced_table
from .tables import CenteringClass, centering_classes, class_rep_set, max_theorem_bound

F = Fraction


class CenteringData(NamedTuple):
    index_V: int
    coset_reps: tuple[tuple[Fraction, ...], ...]  # in [0,1)^n, zero row included
    denominator_U: int


class TheoremReport(NamedTuple):
    dimension: int
    trials: int
    max_abs_coordinate_seen: int
    bound: int
    counterexamples: tuple


def centering_data(sub_basis: Sequence[Sequence[int]]) -> CenteringData:
    """Index, coset representatives and denominator lcm of the ambient
    coordinate lattice over the sublattice spanned by ``sub_basis``.

    The representatives are the V classes of Z^n modulo the sublattice,
    reduced into [0,1)^n in sub-basis coordinates; they come straight from
    the Smith decomposition (quotient = direct sum of Z/d_i).
    """
    rows = [tuple(int(x) for x in v) for v in sub_basis]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("need n sub-basis vectors of length n")
    cols = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))  # columns = vectors
    snf = smith_normal_form(cols)
    if any(d == 0 for d in snf.divisors):
        raise DependentVectorsError("sub-basis vectors are linearly dependent")
    v_index = 1
    for d in snf.divisors:
        v_index *= d
    reps = []
    for ys in product(*[range(d) for d in snf.divisors]):
        # sub-basis coordinates of U^-1 y are V (D^-1 y); reduce mod 1
        frac = [F(y, d) for y, d in zip(ys, snf.divisors)]
        coords = tuple(
            sum(snf.right[i][j] * frac[j] for j in range(n)) % 1 for i in range(n)
        )
        reps.append(coords)
    reps.sort()
    u = 1
    for rep in reps:
        for x in rep:
            u = lcm(u, x.denominator)
    return CenteringData(v_index, tuple(reps), u)


def has_half_centered_face(data: CenteringData) -> bool:
    """True when some coset representative centers a face with denominator
    2, i.e. equals 1/2 on a nonempty coordinate subset and 0 elsewhere."""
    for rep in data.coset_reps:
        if any(x == F(1, 2) for x in rep) and all(x in (0, F(1, 2)) for x in rep):
            return True
    return False


def classify_centering(data: CenteringData, n: int) -> Optional[CenteringClass]:
    """Match against the admissible-centering table, up to coordinate
    permutation; None means "unknown" (not an admissible centering of a
    minimum parallelepiped, or outside the table)."""
    observed = frozenset(rep for rep in data.coset_reps if any(rep))
    for cls in centering_classes(n):
        if cls.U != data.denominator_U or cls.V != data.index_V:
            continue
        want = class_rep_set(cls)
        if len(want) != len(observed):
            continue
        for perm in permutations(range(n)):
            if frozenset(tuple(rep[p] for p in perm) for rep in observed) == want:
                return cls
    return None


def check_theorem_bound(g: GramMatrix) -> TheoremReport:
    """Enumerate every minimum vector of a reduced form and compare the
    largest |coordinate| against the table-derived bound. A counterexample
    would falsify the coordinate-bound theorem and is reported loudly."""
    n = g.n
    verdict = is_minkowski_reduced_table(g)
    if verdict is not True:
        raise NotReducedError(f"form is not Minkowski-reduced: {verdict}")
    bound = max_theorem_bound(n)
    _, minima = lattice_minimum(g)
    max_abs = 0
    bad = []
    for v, _ in minima.vectors:
        m = max(abs(x) for x in v)
        max_abs = max(max_abs, m)
        if m > bound:
            bad.append(v)
    return TheoremReport(n, 1, max_abs, bound, tuple(bad))


def merge_theorem_reports(reports: Sequence[TheoremReport]) -> TheoremReport:
    """Order-independent aggregation of per-instance reports."""
    if not reports:
        raise ValueError("no theorem reports to merge")
    dims = {r.dimension for r in reports}
    if len(dims) != 1:
        raise DimensionMismatchError(f"reports of mixed dimensions {sorted(dims)}")
    bound = reports[0].bound
    bad = []
    for r in reports:
        bad.extend(r.counterexamples)
    return TheoremReport(
        reports[0].dimension,
        sum(r.trials for r in reports),
        max(r.max_abs_coordinate_seen for r in reports),
        bound,
        tuple(bad),
    )
