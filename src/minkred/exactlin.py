"""Exact rational linear algebra: quadratic forms, determinants, rank and
unimodular basis changes, on one fraction-free elimination (Bareiss) and
one triangular kernel, the integral Gram-Schmidt recurrence, whose
leading minors give the LDL pivots and decide positive definiteness
(Cohen, A Course in Computational Algebraic Number Theory, 2.2.6 and
2.6.3).

No floating point anywhere; every comparison in this package that decides
anything goes through Fraction or int arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from operator import mul
from typing import Optional, Sequence

from .errors import (
    DependentVectorsError,
    DimensionMismatchError,
    InvalidInputError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    NotUnimodularError,
)

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]


def _int_rows(rows, n: int, entry: str, error=InvalidInputError) -> IntMatrix:
    """Integer-coordinate input as rows of plain ints, the one rule for it:
    ints, integral Fractions and integral floats pass; any other entry
    raises ``error`` naming ``entry`` and its position (i,j), and a row
    whose length is not n raises DimensionMismatchError."""
    rows = tuple(map(tuple, rows))
    try:
        out = tuple(tuple(map(int, row)) for row in rows)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out != rows:
        i, j, x = next((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)
                       if not _is_int(x))
        raise error(f"{entry}: entry ({i},{j}) is {x!r}, not an integer")
    if any(len(r) != n for r in out):
        raise DimensionMismatchError(f"{entry}: rows must have length {n}")
    return out


def _is_int(x) -> bool:
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _frac_rows(rows, entry: str) -> FracMatrix:
    """Rational outside input as rows of Fractions, the one rule for it:
    ints and Fractions pass, and floats only when integral, as in
    :func:`_int_rows`, since 0.1 is a binary approximation and not the
    1/10 that was typed; any other entry (a string, None, NaN, inf, a
    non-integral float) raises InvalidInputError naming ``entry`` and its
    position (i,j)."""
    rows = tuple(map(tuple, rows))
    out = tuple(tuple(Fraction(x) if isinstance(x, Rational)
                      else Fraction(int(x)) if _is_int(x) else None for x in row)
                for row in rows)
    bad = [(i, j) for i, row in enumerate(out) for j, x in enumerate(row) if x is None]
    if bad:
        i, j = bad[0]
        raise InvalidInputError(f"{entry}: entry ({i},{j}) is {rows[i][j]!r}, not a rational")
    return out


def _scale(rows: FracMatrix) -> tuple[IntMatrix, int]:
    """(A, den): den the lcm of the entries' denominators and A = den * rows,
    so gcd(content(A), den) = 1."""
    den = lcm(*{x.denominator for row in rows for x in row})
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


class GramMatrix:
    """Symmetric rational matrix of a quadratic form Q(x) = x^T G x.

    The form is stored once, as its scaled integer Gram (A, den): den > 0
    is the least common denominator of the entries and G = A / den, so
    gcd(content(A), den) = 1 and equal forms store equal pairs. Rational
    entries (:attr:`rows`, indexing, :meth:`diagonal`) are built on demand.
    Input entries follow the rational input rule of :func:`_frac_rows`:
    ints and Fractions, and floats only when integral.
    Symmetry is validated at construction; positive definiteness is a
    property of most operations' preconditions and is checked on demand
    (see :func:`first_nonpositive_pivot`). Instances are immutable and
    hashable. Each instance caches what is derived from it on first use:
    the LLL view (``enumeration._reduced_view``) and the table verdict
    (``reduction.is_minkowski_reduced_table``). The caches belong to the
    instance; an equal GramMatrix computes its own. Positive definiteness
    is not cached: the integral Gram-Schmidt kernel decides it wherever
    it runs (LLL, the table check, :func:`first_nonpositive_pivot`),
    raising at the first bad pivot.
    """

    __slots__ = ("n", "_int", "_view", "_table")

    def __init__(self, rows):
        a, den = _scale(_frac_rows(rows, "GramMatrix"))
        n = len(a)
        if n == 0 or any(len(r) != n for r in a):
            raise DimensionMismatchError("Gram matrix must be square and non-empty")
        for i in range(n):
            for j in range(i):
                if a[i][j] != a[j][i]:
                    raise NotSymmetricError(
                        f"entry ({i},{j}) != entry ({j},{i}): "
                        f"{Fraction(a[i][j], den)} vs {Fraction(a[j][i], den)}"
                    )
        self._store(a, den)

    @classmethod
    def _from_scaled(cls, a: IntMatrix, den: int) -> GramMatrix:
        """The form A / den of a symmetric integer A already in lowest terms."""
        g = object.__new__(cls)
        g._store(a, den)
        return g

    def _store(self, a, den):
        object.__setattr__(self, "n", len(a))
        object.__setattr__(self, "_int", (a, den))
        object.__setattr__(self, "_view", None)  # LLL view, see enumeration
        object.__setattr__(self, "_table", None)  # table verdict, see reduction

    def __setattr__(self, name, value):
        raise AttributeError("GramMatrix is immutable")

    @property
    def rows(self) -> FracMatrix:
        a, den = self._int
        return tuple(tuple(Fraction(x, den) for x in row) for row in a)

    def __getitem__(self, ij):
        a, den = self._int
        return Fraction(a[ij[0]][ij[1]], den)

    def diagonal(self) -> tuple[Fraction, ...]:
        a, den = self._int
        return tuple(Fraction(a[i][i], den) for i in range(self.n))

    def scaled(self) -> tuple[IntMatrix, int]:
        """Return (A, d) with A integer, d > 0 and G = A / d."""
        return self._int

    def __eq__(self, other):
        return isinstance(other, GramMatrix) and self._int == other._int

    def __hash__(self):
        return hash(self._int)

    def __repr__(self):
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.rows)
        return f"GramMatrix([{body}])"


# ---------------------------------------------------------------------------
# integer matrix helpers

def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in m)


def _bareiss(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix with row
    pivoting; every division is exact.

    Returns (rank, p): p is the last pivot, signed by the row swaps, so a
    square matrix of full rank has determinant p (and the 0 x 0 one has 1).
    """
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, prev, sign = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        p = next((r for r in range(rank, rows) if a[r][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            sign = -sign
        top = a[rank]
        for row in a[rank + 1:]:
            f = row[c]
            for cc in range(c + 1, cols):
                row[cc] = (row[cc] * top[c] - f * top[cc]) // prev
            row[c] = 0
        prev = top[c]
        rank += 1
    return rank, sign * prev


def int_determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (entries as in
    :func:`_int_rows`) by Bareiss elimination."""
    m = _int_rows(m, len(m), "int_determinant")
    rank, p = _bareiss(m)
    return p if rank == len(m) else 0


def int_matrix_rank(m: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix (entries as in :func:`_int_rows`) by
    Bareiss elimination."""
    m = tuple(map(tuple, m))
    return _bareiss(_int_rows(m, len(m[0]) if m else 0, "int_matrix_rank"))[0]


# ---------------------------------------------------------------------------
# quadratic form operations

def evaluate_form(g: GramMatrix, x: Sequence[int]) -> Fraction:
    """Evaluate Q(x) = x^T G x exactly, as x^T A x / den on the scaled
    Gram (A, den), at n integer coordinates x (see :func:`_int_rows`)."""
    (x,) = _int_rows((x,), g.n, "evaluate_form")
    a, den = g.scaled()
    return Fraction(sum(map(mul, x, mat_vec(a, x))), den)


def integral_gram_schmidt(a: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Cohen's integral Gram-Schmidt quantities of an integer PD matrix.

    Returns (d, lam): d[0] = 1 and d[k + 1] is the k-th leading principal
    minor, so the k-th LDL pivot is d[k + 1] / d[k]; lam[i][j] (j < i) is
    d[j + 1] times the Gram-Schmidt coefficient mu[i][j], an integer. With
    lam[k][k] := d[k + 1],
    x^T A x = sum_k (sum_{i>=k} lam[i][k] x_i)^2 / (d[k + 1] d[k]).
    Every division is exact. Raises NotPositiveDefiniteError(k) at the
    first leading minor d[k + 1] <= 0.
    """
    n = len(a)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        lam_i = lam[i]
        for j in range(i + 1):
            lam_j = lam[j]
            u = a[i][j]
            for k in range(j):
                u = (d[k + 1] * u - lam_i[k] * lam_j[k]) // d[k]
            if j < i:
                lam_i[j] = u
            elif u <= 0:
                raise NotPositiveDefiniteError(i)
            else:
                d[i + 1] = u
    return d, lam


def first_nonpositive_pivot(g: GramMatrix) -> Optional[int]:
    """Index of the first LDL pivot <= 0, or None if G is positive definite.

    Pivot k has the sign of the k-th leading minor of the scaled integer
    Gram once the earlier minors are positive, so the integral kernel
    decides it and stops at the offending minor.
    """
    try:
        integral_gram_schmidt(g.scaled()[0])
    except NotPositiveDefiniteError as err:
        return err.pivot_index
    return None


def gram_from_basis(matrix) -> GramMatrix:
    """Exact B^T B of a rational d x n matrix B (entries as in
    :func:`_frac_rows`) whose columns are n <= d independent vectors.
    Raises DimensionMismatchError for an empty or ragged B or n > d, and
    DependentVectorsError for dependent columns."""
    rows = _frac_rows(matrix, "gram_from_basis")
    n = len(rows[0]) if rows else 0
    if n == 0 or n > len(rows) or any(len(r) != n for r in rows):
        raise DimensionMismatchError("gram_from_basis: need a d x n matrix with 1 <= n <= d")
    cols = tuple(zip(*rows))
    g = GramMatrix([[sum(map(mul, u, v)) for v in cols] for u in cols])
    if int_determinant(g.scaled()[0]) == 0:
        raise DependentVectorsError("gram_from_basis: basis columns are linearly dependent")
    return g


def apply_transform(g: GramMatrix, t) -> GramMatrix:
    """Return T^T G T for a unimodular integer T (columns = new basis);
    a non-integral entry of T raises NotUnimodularError."""
    rows = _int_rows(t, g.n, "apply_transform", NotUnimodularError)
    if len(rows) != g.n:
        raise DimensionMismatchError("transform shape does not match form")
    det = int_determinant(rows)
    if det not in (1, -1):
        raise NotUnimodularError(f"determinant is {det}, expected +-1")
    a, den = g.scaled()
    # T^T A T keeps the content of A, coprime to den: still in lowest terms
    return GramMatrix._from_scaled(transform_gram_int(a, rows), den)


def transform_gram_int(a: Sequence[Sequence[int]], t: Sequence[Sequence[int]]):
    """T^T A T over plain ints: the one basis change of a form, on its
    scaled Gram. A is symmetric, so only the entries j >= i are computed,
    each as column i of T against A times column j, and mirrored."""
    cols = tuple(zip(*t))
    a_cols = [mat_vec(a, col) for col in cols]
    n = len(cols)
    out = [[0] * n for _ in range(n)]
    for i, col in enumerate(cols):
        row = out[i]
        for j in range(i, n):
            row[j] = out[j][i] = sum(map(mul, col, a_cols[j]))
    return tuple(map(tuple, out))
