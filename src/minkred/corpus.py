"""Fixture lattices: the registry of named test lattices.

Every fixture is reached by its name through :func:`named_lattice`, which
builds it once: Z1..Z9, A2..A6, D3..D6, E6..E8, D4-centered-cubic, example9
and example9-mnh. D_n and E_n are the Cartan matrices of their Dynkin
diagrams. The 9-dimensional worked example is there twice: as
``example9``, the Gram matrix of the 12x9 basis matrix below, and as
``example9-mnh``, the Minkowski-reduced but not Hermite-reduced companion
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
EXAMPLE9_MATRIX = (
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


def _a_gram(n):
    return [[2 if i == j else 1 for j in range(n)] for i in range(n)]


def _dynkin(n, branch):
    """Cartan matrix of the chain 0..n-2 with node n-1 joined to branch:
    D_n at branch n-3, E_n at branch 2."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in [(i, i + 1) for i in range(n - 2)] + [(branch, n - 1)]:
        rows[i][j] = rows[j][i] = -1
    return GramMatrix(rows)


_D4_CENTERED_CUBIC = (
    (1, 0, 0, _H),
    (0, 1, 0, _H),
    (0, 0, 1, _H),
    (_H, _H, _H, 1),
)


def _example9_mnh() -> GramMatrix:
    """Gram of {e1..e7, e8*, e9*}: Minkowski-reduced but not Hermite-reduced."""
    cols = [tuple(int(i == j) for i in range(9)) for j in range(7)]
    cols += [E8_STAR_COORDS, E9_STAR_COORDS]
    return apply_transform(_named_lattice("example9"), tuple(zip(*cols)))


_BUILDERS = {
    **{f"Z{n}": (lambda n=n: GramMatrix([[int(i == j) for j in range(n)] for i in range(n)]))
       for n in range(1, 10)},
    **{f"A{n}": (lambda n=n: GramMatrix(_a_gram(n))) for n in range(2, 7)},
    **{f"D{n}": (lambda n=n: _dynkin(n, n - 3)) for n in range(3, 7)},
    **{f"E{n}": (lambda n=n: _dynkin(n, 2)) for n in range(6, 9)},
    "D4-centered-cubic": lambda: GramMatrix(_D4_CENTERED_CUBIC),
    "example9": lambda: gram_from_basis(EXAMPLE9_MATRIX),
    "example9-mnh": _example9_mnh,
}


def named_lattice(name: str) -> GramMatrix:
    """Gram matrix of a named test lattice, one GramMatrix per name.

    Registry: Z1..Z9, A2..A6, D3..D6, E6..E8, D4-centered-cubic, example9
    and example9-mnh, spelled exactly so. A name that is not a str raises
    InvalidInputError and any other str KeyError.
    """
    if not isinstance(name, str):
        raise InvalidInputError(f"named_lattice: name {name!r} is not a str")
    return _named_lattice(name)


@lru_cache(maxsize=None)
def _named_lattice(name: str) -> GramMatrix:
    if name not in _BUILDERS:
        raise KeyError(f"unknown lattice name {name!r}")
    return _BUILDERS[name]()
