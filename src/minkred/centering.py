"""Centering data of a lattice over a full-rank sublattice and
classification against the admissible-centering table, plus the
coordinate-bound checker for minimum vectors in a reduced basis.

Everything here is combinatorial in the coordinates: the index, the coset
representatives in the half-open basic parallelepiped and their
denominators do not depend on any metric.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .enumeration import lattice_minimum
from .errors import DependentVectorsError, DimensionMismatchError, NotReducedError
from .exactlin import GramMatrix, _int_rows, int_determinant
from .reduction import is_minkowski_reduced_table
from .tables import (
    CENTERING_CLASSES,
    CenteringClass,
    _check_dim,
    _span_mod_1,
    class_rep_set,
    max_theorem_bound,
)

F = Fraction


class CenteringData(NamedTuple):
    index_V: int
    coset_reps: tuple[tuple[Fraction, ...], ...]  # in [0,1)^n, zero row included
    denominator_U: int


class TheoremReport(NamedTuple):
    """One reduced form's largest |coordinate| over its minimum vectors,
    the bound of its dimension, and every minimum vector past that bound."""

    dimension: int
    max_abs_coordinate_seen: int
    bound: int
    counterexamples: tuple


def centering_data(sub_basis: Sequence[Sequence[int]]) -> CenteringData:
    """Index, coset representatives and denominator lcm of the ambient
    coordinate lattice over the sublattice spanned by ``sub_basis``.

    With M the matrix whose columns are the sub-basis vectors, the
    representatives are the V = |det M| classes of Z^n / M Z^n in sub-basis
    coordinates, reduced into [0,1)^n. The sub-basis coordinates of e_i,
    column i of M^-1 = adj(M) / det M, generate that group mod 1.
    ``sub_basis`` is n >= 1 vectors of n integer coordinates (ints,
    integral Fractions or floats; exactlin._int_rows).
    """
    rows = _int_rows(sub_basis, len(sub_basis), "centering_data")
    n = len(rows)
    if n == 0:
        raise DimensionMismatchError("need n sub-basis vectors of length n")
    det = int_determinant(rows)
    if det == 0:
        raise DependentVectorsError("sub-basis vectors are linearly dependent")

    def cofactor(i, j):  # of M's entry (i, j) = rows[j][i]
        minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
        return (-1) ** (i + j) * int_determinant(minor)

    generators = [tuple(F(cofactor(i, j), det) for j in range(n)) for i in range(n)]
    reps = tuple(sorted(_span_mod_1(generators, n)))
    return CenteringData(abs(det), reps, lcm(*(x.denominator for g in generators for x in g)))


def classify_centering(data: CenteringData) -> Optional[CenteringClass]:
    """Match against the admissible-centering table, up to coordinate
    permutation; None means "unknown", not an admissible centering of a
    minimum parallelepiped. The dimension n is that of the zero row, which
    every CenteringData holds; n outside 2..6 raises UnsupportedDimensionError.
    A class with the data's V has V - 1 nonzero representatives, as the
    data has, so the sets are compared only under permutation."""
    n = _check_dim(len(data.coset_reps[0]), "classify_centering")
    observed = frozenset(rep for rep in data.coset_reps if any(rep))
    for cls in CENTERING_CLASSES:
        if (cls.dimension, cls.U, cls.V) != (n, data.denominator_U, data.index_V):
            continue
        want = class_rep_set(cls)
        for perm in permutations(range(n)):
            if frozenset(tuple(rep[p] for p in perm) for rep in observed) == want:
                return cls
    return None


def check_theorem_bound(g: GramMatrix) -> TheoremReport:
    """Enumerate every minimum vector of a reduced form and compare the
    largest |coordinate| against the table-derived bound. A counterexample
    would falsify the coordinate-bound theorem and is reported loudly."""
    n = _check_dim(g.n, "check_theorem_bound")
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
    return TheoremReport(n, max_abs, bound, tuple(bad))

