"""Fixture lattices: the registry of named test lattices.

The 9-dimensional worked example lives here: its 12x9 basis matrix, its
Gram matrix, and the Minkowski-reduced-but-not-Hermite-reduced companion
obtained by swapping in the two starred vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError
from .exactlin import GramMatrix, apply_transform, gram_from_basis

F = Fraction

# Columns e1..e9 in an orthonormal frame of R^12. Column 8 and 9 carry the
# fractional entries; every column has squared length exactly 1.
_H = F(1, 2)
_T = F(1, 3)
_EXAMPLE9_MATRIX = (
    (_H, 0, 0, 0, 0, 0, 0, _H, 0),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (0, 1, 0, 0, 0, 0, 0, _H, 0),
    (0, 0, 1, 0, 0, 0, 0, _H, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, _T),
    (0, 0, 0, 0, 1, 0, 0, 0, _T),
    (0, 0, 0, 0, 0, 1, 0, 0, _T),
    (0, 0, 0, 0, 0, 0, 1, 0, _T),
    (0, 0, 0, 0, 0, 0, 0, 0, _T),
    (0, 0, 0, 0, 0, 0, 0, -_H, _T),
)

# Coordinates w.r.t. {e1..e9} of the two starred vectors: the unit vector
# completing {e1..e7} to a primitive system, and the shortest ninth vector
# (squared length 7/6) completing that system to a basis.
E8_STAR_COORDS = (-2, -1, -1, -1, -1, -1, -1, 2, 3)
E9_STAR_COORDS = (-1, 0, 0, 0, 0, 0, 0, 1, 1)


def example9_embedded():
    """The 12x9 rational matrix whose columns are the example's basis."""
    return _EXAMPLE9_MATRIX


@lru_cache(maxsize=None)
def example9_gram() -> GramMatrix:
    """Gram matrix of the embedded example basis (exact E^T E)."""
    return gram_from_basis(example9_embedded())


@lru_cache(maxsize=None)
def example9_star_transform():
    """Columns {e1,...,e7, e8*, e9*} as a unimodular transform."""
    cols = [tuple(1 if i == j else 0 for i in range(9)) for j in range(7)]
    cols.append(E8_STAR_COORDS)
    cols.append(E9_STAR_COORDS)
    return tuple(tuple(cols[j][i] for j in range(9)) for i in range(9))


@lru_cache(maxsize=None)
def example9_reduced_not_hermite() -> GramMatrix:
    """Gram of {e1..e7, e8*, e9*}: Minkowski-reduced but not Hermite-reduced."""
    return apply_transform(example9_gram(), example9_star_transform())


def _a_gram(n):
    return [[2 if i == j else 1 for j in range(n)] for i in range(n)]


def _d_basis(n):
    # columns: e_i - e_{i+1} for i < n, plus e_{n-1} + e_n
    cols = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        cols.append(v)
    v = [0] * n
    v[n - 2], v[n - 1] = 1, 1
    cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


_E6_GRAM = (
    (2, -1, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0),
    (0, -1, 2, -1, 0, -1),
    (0, 0, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 2),
)

_D4_CENTERED_CUBIC = (
    (1, 0, 0, _H),
    (0, 1, 0, _H),
    (0, 0, 1, _H),
    (_H, _H, _H, 1),
)


def named_lattice(name: str) -> GramMatrix:
    """Gram matrix of a named test lattice, one GramMatrix per name.

    Registry: Z2..Z9, A2..A6, D3..D6, E6, D4-centered-cubic, example9,
    example9-mnh. A name that is not a str raises InvalidInputError and
    an unknown one KeyError.
    """
    if not isinstance(name, str):
        raise InvalidInputError(f"named_lattice: name {name!r} is not a str")
    return _named_lattice(name)


@lru_cache(maxsize=None)
def _named_lattice(name: str) -> GramMatrix:
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if 1 <= n <= 9:
            return GramMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 6:
            return GramMatrix(_a_gram(n))
    if name.startswith("D") and name[1:].isdigit():
        n = int(name[1:])
        if 3 <= n <= 6:
            return gram_from_basis(_d_basis(n))
    if name == "E6":
        return GramMatrix(_E6_GRAM)
    if name == "D4-centered-cubic":
        return GramMatrix(_D4_CENTERED_CUBIC)
    if name == "example9":
        return example9_gram()
    if name == "example9-mnh":
        return example9_reduced_not_hermite()
    raise KeyError(f"unknown lattice name {name!r}")
