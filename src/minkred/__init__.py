"""Exact-arithmetic toolkit for Minkowski reduction of positive definite
quadratic forms in low dimensions: finite reduction tables, short-vector
enumeration, Dirichlet-Voronoi relevant vectors, admissible centerings and
the coordinate-bound verifier; every decision runs on exact integers."""

from .exactlin import (
    GramMatrix,
    apply_transform,
    evaluate_form,
    first_nonpositive_pivot,
    gram_from_basis,
)

__all__ = [
    "GramMatrix",
    "apply_transform",
    "evaluate_form",
    "first_nonpositive_pivot",
    "gram_from_basis",
]
