"""Relevant vectors of the Dirichlet-Voronoi cell.

Voronoi's criterion: v is relevant iff +-v are the unique minima of their
coset of L/2L. One Fincke-Pohst ball, binned in integers by parity in the
LLL view's coordinates, holds the minima of all 2^n - 1 nonzero cosets
(enumeration._coset_bins); relevant_vectors reads every class from it,
and there is no per-class query. Its radius is the largest norm of a +-1
class member signed greedily, priced by one walk over parity prefixes.
Tie cosets contribute nothing: the one leaf of each tie-free bin goes
through enumeration._by_exact_norm, the one path by which a vector list
leaves the LLL view, and no other leaf is mapped back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .enumeration import _by_exact_norm, _coset_bins, _reduced_view
from .errors import NotReducedError, UnsupportedDimensionError
from .exactlin import GramMatrix, IntVector
from .reduction import is_minkowski_reduced_table
from .tables import _check_dim, relevant_abs_patterns

MAX_COSET_DIM = 9


class RelevantVectorSet(NamedTuple):
    vectors: tuple[IntVector, ...]          # one representative per +-pair
    norms: tuple[Fraction, ...]


class Table4Report(NamedTuple):
    dimension: int
    checked: int
    mismatches: tuple[tuple[IntVector, Fraction], ...]
    max_abs_coordinate: int

    @property
    def all_match(self) -> bool:
        return not self.mismatches


def relevant_vectors(g: GramMatrix) -> RelevantVectorSet:
    """All facet normals of the Dirichlet-Voronoi cell, up to sign.

    Exact: a coset whose minimum is attained by more than one +-pair is a
    tie and yields no relevant vector; only the others are mapped back.
    """
    if g.n > MAX_COSET_DIM:
        raise UnsupportedDimensionError(
            f"relevant_vectors: coset enumeration covers n <= {MAX_COSET_DIM}, got {g.n}"
        )
    view = _reduced_view(g)
    found = _by_exact_norm(view, [leaf for leaf, *ties in _coset_bins(view) if not ties])
    return RelevantVectorSet(tuple(v for v, _ in found), tuple(q for _, q in found))


def check_table4_membership(g: GramMatrix) -> Table4Report:
    """Verify every relevant vector's |coordinate| multiset is a pattern of
    Table 4, tables.relevant_abs_patterns (Minkowski-reduced basis,
    dimensions 2..6). Mismatches are reported, never suppressed."""
    n = _check_dim(g.n, "check_table4_membership")
    verdict = is_minkowski_reduced_table(g)
    if verdict is not True:
        raise NotReducedError(
            f"membership claim only holds for reduced bases; violation {verdict}"
        )
    patterns = relevant_abs_patterns(n)
    rel = relevant_vectors(g)
    mismatches = tuple((v, q) for v, q in zip(rel.vectors, rel.norms)
                       if tuple(sorted(map(abs, v))) not in patterns)
    max_abs = max(abs(x) for v in rel.vectors for x in v)
    return Table4Report(n, len(rel.vectors), mismatches, max_abs)
