"""Exact-arithmetic toolkit for Minkowski reduction of positive definite
quadratic forms in low dimensions: finite reduction tables, short-vector
enumeration, Dirichlet-Voronoi relevant vectors, admissible centerings and
the coordinate-bound verifier; every decision runs on exact integers."""

from .exactlin import (
    EmbeddedBasis,
    GramMatrix,
    apply_transform,
    determinant,
    evaluate_form,
    gram_from_basis,
    is_positive_definite,
    ldl_decompose,
)

__all__ = [
    "EmbeddedBasis",
    "GramMatrix",
    "apply_transform",
    "determinant",
    "evaluate_form",
    "gram_from_basis",
    "is_positive_definite",
    "ldl_decompose",
]
