"""Exact short-vector enumeration and primitivity machinery.

The enumeration core is a Fincke-Pohst recursion over the integral
Gram-Schmidt quantities (d, lambda) of the scaled integer Gram matrix:
every pruning bound is an integer square root of an exact rational, so no
decision ever touches floating point. Every search runs on the LLL view of
the form, built once per GramMatrix and cached on it, and witnesses are
mapped back, which changes nothing observable. The view keeps the d and
lambda that LLL ends with, so no search recomputes them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Sequence

from ._lll import lll_transform, size_reduce_tail
from .errors import DependentVectorsError, DimensionMismatchError, NotPrimitiveError
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    evaluate_form,
    int_matrix_rank,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transform_gram_int,
)
from .tables import canonical_sign

F = Fraction


class ShortVectorList(NamedTuple):
    bound: Fraction
    vectors: tuple[tuple[IntVector, Fraction], ...]  # (coords, norm^2), +- reps


class SuccessiveMinima(NamedTuple):
    norms: tuple[Fraction, ...]
    witnesses: tuple[IntVector, ...]


def vector_key(coords):
    """Deterministic tie-break order: pivot index first, then coordinates.

    Pivot-first is what makes e.g. (0,1,0) beat (0,0,1) among equal-norm
    extensions; plain tuple order would prefer the latter.
    """
    piv = max((i for i, x in enumerate(coords) if x), default=-1)
    return (piv, coords)


# ---------------------------------------------------------------------------
# core enumeration

def _quad_int_range(c_num, c_den, t_num, t_den):
    """Integer solutions of (x + c_num/c_den)^2 <= t_num/t_den, as [lo, hi].

    Exact: hi = floor(sqrt(t) - c) and lo = ceil(-sqrt(t) - c) reduce to
    floor divisions against isqrt because sqrt(M) - g < 1 for g = isqrt(M).
    """
    big = t_num * t_den * c_den * c_den
    g = isqrt(big)
    v = t_den * c_den
    u = c_num * t_den
    return -((g + u) // v), (g - u) // v


def _enumerate_core(view, bound_num, bound_den, parity=None, shrink=False):
    """All nonzero x with x^T A x <= bound (one representative per +-pair),
    for A = view.a_red, pruned with the view's d and lambda.

    parity: optional 0/1 vector constraining x_i mod 2 (coset of L/2L).
    shrink: keep only the minimal-norm layer, tightening the radius as
    shorter vectors appear (used for coset minima).
    Returns a list of (coords, q) with q = x^T A x an int.
    """
    a, d, lam = view.a_red, view.d, view.lam
    n = len(a)
    lam_cols = tuple(zip(*lam))  # lam_cols[j][i] = lam[i][j]
    results: list[tuple[tuple[int, ...], int]] = []
    best = [None]
    x = [0] * n

    def eval_a(xs):
        total = 0
        for i in range(n):
            xi = xs[i]
            if xi:
                row = a[i]
                total += xi * xi * row[i]
                for j in range(i + 1, n):
                    if xs[j]:
                        total += 2 * xi * xs[j] * row[j]
        return total

    def descend(j, s_num, s_den, tail_zero):
        if shrink and best[0] is not None and best[0] * bound_den < bound_num:
            en, ed = best[0], 1
        else:
            en, ed = bound_num, bound_den
        rem_num = en * s_den - s_num * ed
        rem_den = ed * s_den
        if rem_num < 0:
            return
        lam_j = lam_cols[j]
        c = 0
        for i in range(j + 1, n):
            if x[i]:
                c += lam_j[i] * x[i]
        dj1 = d[j + 1]
        lo, hi = _quad_int_range(c, dj1, rem_num * d[j], rem_den * dj1)
        if tail_zero and lo < 0:
            lo = 0
        if parity is not None:
            pj = parity[j]
            if (lo - pj) % 2:
                lo += 1
            step = 2
        else:
            step = 1
        for xj in range(lo, hi + 1, step):
            x[j] = xj
            tz = tail_zero and xj == 0
            if j == 0:
                if tz:
                    continue
                q = eval_a(x)
                if q * bound_den > bound_num:
                    continue
                if shrink:
                    if best[0] is None or q < best[0]:
                        best[0] = q
                        results.clear()
                        results.append((tuple(x), q))
                    elif q == best[0]:
                        results.append((tuple(x), q))
                else:
                    results.append((tuple(x), q))
            else:
                w = dj1 * xj + c
                descend(
                    j - 1,
                    s_num * dj1 * d[j] + s_den * w * w,
                    s_den * dj1 * d[j],
                    tz,
                )
        x[j] = 0

    descend(n - 1, 0, 1, True)
    return results


class _ReducedView(NamedTuple):
    a_red: IntMatrix       # U^T A U, integer
    den: int               # original G = A / den
    transform: IntMatrix   # columns = reduced basis in original coords
    inverse: IntMatrix     # transform^-1: original coords -> reduced coords
    d: list[int]           # integral Gram-Schmidt of a_red, as LLL left it
    lam: list[list[int]]


def _view_of(a, den) -> _ReducedView:
    """The LLL view of the scaled integer Gram a (G = a / den).
    Raises NotPositiveDefiniteError for a form that is not PD."""
    t, _, t_inv, d, lam = lll_transform(a)
    return _ReducedView(transform_gram_int(a, t), den, t, t_inv, d, lam)


def _reduced_view(g: GramMatrix) -> _ReducedView:
    """The LLL view of g, built on first use and cached on g (which is
    immutable)."""
    view = object.__getattribute__(g, "_view")
    if view is None:
        view = _view_of(*g.scaled())
        object.__setattr__(g, "_view", view)
    return view


def _map_back(view: _ReducedView, coords):
    return canonical_sign(mat_vec(view.transform, coords))


def enumerate_short_vectors(g: GramMatrix, bound) -> ShortVectorList:
    """Complete list of nonzero v with Q(v) <= bound, up to sign.

    Exact for every positive definite G; representatives carry canonical
    sign (first nonzero coordinate positive) and are sorted by
    (norm^2, coordinates).
    """
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("bound must be positive")
    view = _reduced_view(g)
    scaled = bound * view.den
    raw = _enumerate_core(view, scaled.numerator, scaled.denominator)
    entries = sorted(
        ((F(q, view.den), _map_back(view, coords)) for coords, q in raw)
    )
    return ShortVectorList(bound, tuple((v, q) for q, v in entries))


def lattice_minimum(g: GramMatrix):
    """(lambda^2, minima): the exact nonzero minimum of Q and every
    attaining vector up to sign."""
    view = _reduced_view(g)
    radius = min(view.a_red[i][i] for i in range(len(view.a_red)))
    raw = _enumerate_core(view, radius, 1, shrink=True)
    lam = F(raw[0][1], view.den)
    entries = sorted(
        ((F(q, view.den), _map_back(view, coords)) for coords, q in raw)
    )
    return lam, ShortVectorList(lam, tuple((v, q) for q, v in entries))


def successive_minima(g: GramMatrix) -> SuccessiveMinima:
    """Greedy system of successive minimum vectors.

    Each step takes a shortest vector linearly independent of the ones
    already chosen; ties broken by :func:`vector_key`.
    """
    n = g.n
    view = _reduced_view(g)
    radius = min(view.a_red[i][i] for i in range(n))
    while True:
        raw = _enumerate_core(view, radius, 1)
        cands = sorted(
            ((F(q, view.den), _map_back(view, coords)) for coords, q in raw),
            key=lambda t: (t[0],) + vector_key(t[1]),
        )
        chosen: list[IntVector] = []
        norms: list[Fraction] = []
        rows: list[IntVector] = []
        for q, v in cands:
            if int_matrix_rank(rows + [v]) == len(rows) + 1:
                rows.append(v)
                chosen.append(v)
                norms.append(q)
                if len(chosen) == n:
                    return SuccessiveMinima(tuple(norms), tuple(chosen))
        radius *= 2


def is_primitive_system(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the integer span of the vectors equals the intersection of
    their linear span with the ambient lattice (all Smith divisors 1)."""
    rows = [tuple(int(x) for x in v) for v in vectors]
    if not rows:
        raise DimensionMismatchError("empty vector system")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("mixed vector lengths")
    if len(rows) > n or int_matrix_rank(rows) != len(rows):
        raise DependentVectorsError("vectors are linearly dependent")
    return all(d == 1 for d in smith_normal_form(rows).divisors)


def complete_to_basis(vectors: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Unimodular matrix whose first k columns are the given primitive system.

    Built from the Smith transforms: with U M V = [I_k; 0] for the column
    matrix M, the completion is U^-1 * blockdiag(V^-1, I).
    """
    rows = [tuple(int(x) for x in v) for v in vectors]
    k = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("vector length does not match dimension")
    if not is_primitive_system(rows):
        raise NotPrimitiveError("system is not primitive; no unimodular completion")
    m_cols = tuple(tuple(rows[j][i] for j in range(k)) for i in range(n))  # n x k
    snf = smith_normal_form(m_cols)
    block = [
        [snf.right_inv[i][j] if i < k and j < k else (1 if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    completion = mat_mul(snf.left_inv, block)
    for j in range(k):
        col = tuple(completion[i][j] for i in range(n))
        assert col == rows[j], "completion lost an input column"
    return tuple(tuple(r) for r in completion)


def shortest_primitive_extension(g: GramMatrix, partial: Sequence[Sequence[int]]) -> IntVector:
    """Shortest v extending the partial primitive system to a larger one.

    Radius starts at the norm of the canonical completion column (always
    feasible) and the candidate scan runs in (norm, pivot, coords) order,
    so the result is deterministic.
    """
    rows = [tuple(int(x) for x in v) for v in partial]
    k = len(rows)
    n = g.n
    if k >= n:
        raise DimensionMismatchError("partial system already spans the lattice")
    if not is_primitive_system(rows):
        raise NotPrimitiveError("partial system is not primitive")
    completion = complete_to_basis(rows, n)
    # size-reduce the completion against the partial system: its column k
    # stays a feasible extension, and only sets the search cap
    r = size_reduce_tail(transform_gram_int(g.scaled()[0], completion), k)
    if r:
        completion = mat_mul(completion, r)
    cap = evaluate_form(g, [row[k] for row in completion])  # guaranteed-feasible radius
    view = _reduced_view(g)
    radius = F(min(view.a_red[i][i] for i in range(n)), view.den)
    while True:
        radius = min(radius, cap)
        scaled = radius * view.den
        raw = _enumerate_core(view, scaled.numerator, scaled.denominator)
        cands = sorted(
            ((F(q, view.den), _map_back(view, coords)) for coords, q in raw),
            key=lambda t: (t[0],) + vector_key(t[1]),
        )
        for q, v in cands:
            try:
                if is_primitive_system(rows + [v]):
                    return v
            except DependentVectorsError:
                continue
        if radius >= cap:
            raise AssertionError("completion column vanished from its own ball")
        radius *= 2


def coset_minima(g: GramMatrix, parity: Sequence[int]):
    """Shortest vectors of the coset {v : v = parity mod 2} of L/2L.

    Returns (min norm^2, +-representatives). The search radius starts at
    the norm of the 0/1 representative and shrinks as the enumeration
    finds shorter coset members.
    """
    n = g.n
    par = tuple(int(p) % 2 for p in parity)
    if len(par) != n:
        raise DimensionMismatchError("parity length mismatch")
    if not any(par):
        raise ValueError("parity class must be nonzero")
    view = _reduced_view(g)
    # transform parity into reduced coordinates: x = T y, so y = T^-1 x (mod 2)
    par_red = tuple(y % 2 for y in mat_vec(view.inverse, par))
    a = view.a_red
    rep = par_red
    bound = 0
    for i in range(n):
        if rep[i]:
            bound += a[i][i] * rep[i] * rep[i]
            for j in range(i + 1, n):
                if rep[j]:
                    bound += 2 * rep[i] * rep[j] * a[i][j]
    raw = _enumerate_core(view, bound, 1, parity=par_red, shrink=True)
    entries = sorted(
        ((F(q, view.den), _map_back(view, coords)) for coords, q in raw)
    )
    return entries[0][0], tuple(v for _, v in entries)
