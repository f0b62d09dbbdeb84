"""Exact short-vector enumeration and primitivity machinery.

The enumeration core is a Fincke-Pohst recursion over the integral
Gram-Schmidt quantities (d, lambda) of the scaled integer Gram matrix:
every pruning bound is an integer square root of an exact rational, so no
decision ever touches floating point. A leaf's norm is the recursion's
own exact sum, an integer; _quad_int_range is exact, so every leaf it
admits lies in the ball and none is checked again. Every search runs on
the LLL view of the form, built once per GramMatrix and cached on it, and
witnesses are mapped back, which changes nothing observable. The view
keeps the d and lambda that LLL ends with, so no search recomputes them.
The core has no modes: every search reads one plain ball.

A shortest vector under a side condition (tail gcd 1, primitive extension,
independence) is read from one lazy stream, _in_norm_order: Fincke-Pohst
balls of doubling radius in Schnorr-Euchner norm order, each norm layer
mapped back only when a search reaches it. The classes of L/2L are read
from one ball, _coset_layers: each leaf is binned by its parity y & 1 in
the view's coordinates, which fixes the parity of x = T y, so each bin is
keyed by its minima's parity in g's coordinates and keeps its least norm
and that norm's +-pairs. The radius is the largest norm, over the classes,
of a +-1 representative signed along its support: y_i = -1 if (A y)_i > 0,
else +1. Each step adds a_ii + 2 y_i (A y)_i <= a_ii, so every class has a
member inside the ball.

The greedy pass, _extend_greedily, reads one stream for a whole basis: a
vector that cannot extend a system cannot extend a larger one, so no
vector it has passed is needed later. Its cap is the norm c^T A c of the
next column c of the completion it carries, on g's scaled Gram A, read
before each ball: that column extends the chosen system, so it has not
been passed (else it would have been taken) and lies ahead of the
stream's position, and every step ends by it.

Primitivity has one mechanism, :func:`_completion`: a unimodular C whose
first columns are the chosen vectors. v extends them primitively iff the
last coordinates of C^-1 v have gcd 1, as in Minkowski's definition.
Minkowski adds one vector at a time, and so does the completion: given
a (C, tail), it folds only the new rows, so the greedy pass and the
Hermite witness search carry theirs and fold each chosen vector once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product
from math import gcd, isqrt
from operator import itemgetter
from typing import NamedTuple, Sequence

from ._lll import lll_transform
from .errors import DependentVectorsError, DimensionMismatchError, NotPrimitiveError
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    identity_matrix,
    int_matrix_rank,
    mat_vec,
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


def _enumerate_core(view, bound_num, bound_den):
    """All nonzero x with x^T A x <= bound (one representative per +-pair),
    for A = view.a_red, pruned with the view's d and lambda.

    Returns a list of (coords, q) with q = x^T A x an int: a leaf's q is
    the recursion's own exact sum. Every x_0 in the exact range of
    _quad_int_range meets the bound, so no leaf is evaluated or checked
    again.
    """
    d, lam = view.d, view.lam
    n = len(lam)
    lam_cols = tuple(zip(*lam))  # lam_cols[j][i] = lam[i][j]
    results: list[tuple[tuple[int, ...], int]] = []
    x = [0] * n

    def descend(j, s_num, s_den, tail_zero):
        rem_num = bound_num * s_den - s_num * bound_den
        rem_den = bound_den * s_den
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
        scale = dj1 * d[j]
        base, den = s_num * scale, s_den * scale
        for xj in range(lo, hi + 1):
            x[j] = xj
            tz = tail_zero and xj == 0
            w = dj1 * xj + c
            if j:
                descend(j - 1, base + s_den * w * w, den, tz)
            elif not tz:
                results.append((tuple(x), (base + s_den * w * w) // den))
        x[j] = 0

    descend(n - 1, 0, 1, True)
    return results


class _ReducedView(NamedTuple):
    a_red: IntMatrix       # U^T A U, integer
    den: int               # original G = A / den
    transform: IntMatrix   # columns = reduced basis in original coords
    d: list[int]           # integral Gram-Schmidt of a_red, as LLL left it
    lam: list[list[int]]


def _reduced_view(g: GramMatrix) -> _ReducedView:
    """The LLL view of g, built on first use and cached on g (which is
    immutable). Raises NotPositiveDefiniteError for a form that is not PD."""
    view = object.__getattribute__(g, "_view")
    if view is None:
        a, den = g.scaled()
        t, _, d, lam = lll_transform(a)
        view = _ReducedView(transform_gram_int(a, t), den, t, d, lam)
        object.__setattr__(g, "_view", view)
    return view


def _map_back(view: _ReducedView, coords):
    return canonical_sign(mat_vec(view.transform, coords))


def _by_norm(view: _ReducedView, raw, above=0):
    """_enumerate_core's output with q > above as (q, v), v in the original
    coordinates, in (q, vector_key(v)) order. The ball is sorted by q in
    the view's coordinates; a norm layer is mapped back, and sorted by
    vector_key, only when the caller reaches it."""
    for q, layer in groupby(sorted((e for e in raw if e[1] > above), key=itemgetter(1)),
                            key=itemgetter(1)):
        for v in sorted((_map_back(view, coords) for coords, _ in layer), key=vector_key):
            yield q, v


def _in_norm_order(view: _ReducedView, cap):
    """Every nonzero v with scaled norm q <= cap(), one per +-pair, as
    (q, v) in (q, vector_key(v)) order. The radius starts at the view's
    least diagonal entry and doubles up to cap(), which is read before each
    ball, so a caller may move it while it reads; each ball yields only the
    norms above the previous radius, so a caller that stops early
    enumerates no further ball, and no vector comes out twice."""
    radius, done = min(view.a_red[i][i] for i in range(len(view.a_red))), 0
    while done < cap():
        radius = min(radius, cap())
        yield from _by_norm(view, _enumerate_core(view, radius, 1), done)
        done, radius = radius, 2 * radius


def _by_exact_norm(view: _ReducedView, raw):
    """_enumerate_core's output as (v, Q(v)) with v in the original
    coordinates, sorted by (Q(v), v)."""
    entries = sorted((F(q, view.den), _map_back(view, coords)) for coords, q in raw)
    return tuple((v, q) for q, v in entries)


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
    return ShortVectorList(bound, _by_exact_norm(view, raw))


def lattice_minimum(g: GramMatrix):
    """(lambda^2, minima): the exact nonzero minimum of Q and every
    attaining vector up to sign."""
    view = _reduced_view(g)
    radius = min(view.a_red[i][i] for i in range(len(view.a_red)))
    q, layer = next(groupby(_in_norm_order(view, lambda: radius), key=itemgetter(0)))
    lam = F(q, view.den)
    return lam, ShortVectorList(lam, tuple((v, lam) for v in sorted(v for _, v in layer)))


def successive_minima(g: GramMatrix) -> SuccessiveMinima:
    """Greedy system of successive minimum vectors.

    Each step takes a shortest vector linearly independent of the ones
    already chosen; ties broken by :func:`vector_key`. One norm-ordered
    search, capped by the LLL basis's longest vector, serves every step.
    """
    n = g.n
    view = _reduced_view(g)
    chosen: list[IntVector] = []
    norms: list[Fraction] = []
    cap = max(view.a_red[i][i] for i in range(n))
    for q, v in _in_norm_order(view, lambda: cap):
        if int_matrix_rank(chosen + [v]) == len(chosen) + 1:
            chosen.append(v)
            norms.append(F(q, view.den))
            if len(chosen) == n:
                break
    return SuccessiveMinima(tuple(norms), tuple(chosen))


def _completion(rows, n, start=None):
    """(C, tail) for a primitive system of rows of length n, folded onto
    start, the (C, tail) of the vectors before them, or onto the identity:
    C is unimodular with the system as its first k columns and tail is rows
    k..n-1 of C^-1, so v extends the system primitively iff gcd(tail v) = 1.

    Row r_j is placed by folding w = (C^-1 r_j)[j:] into w_j with Euclid on
    neighbouring pairs, from the last pair up (Newman, Integral Matrices,
    II.1), mirrored on C's columns and C^-1's rows. If then w_j = +-1,
    column j of C becomes r_j, which leaves C^-1's later rows unchanged
    (earlier rows are never read again). Raises NotPrimitiveError.
    """
    c, tail = start or (identity_matrix(n), identity_matrix(n))
    c, tail = [list(row) for row in c], [list(row) for row in tail]
    for j, r in enumerate(rows, n - len(tail)):
        w = list(mat_vec(tail, r))
        for i in range(len(w) - 1, 0, -1):
            a, b = w[i - 1], w[i]
            if not b:
                continue
            x, y, z, t = 1, 0, 0, 1  # ((x, y), (z, t)) takes (a, b) to (+-gcd, 0)
            while b:
                q, a, b = a // b, b, a % b
                x, y, z, t = z, t, x - q * z, y - q * t
            det = x * t - y * z  # +-1, the parity of the step count
            w[i - 1], lo, hi = a, tail[i - 1], tail[i]
            tail[i - 1] = [x * u + y * v for u, v in zip(lo, hi)]
            tail[i] = [z * u + t * v for u, v in zip(lo, hi)]
            for row in c:  # C times the inverse of that step
                u, v = row[j + i - 1], row[j + i]
                row[j + i - 1], row[j + i] = det * (t * u - z * v), det * (x * v - y * u)
        if w[0] not in (1, -1):
            raise NotPrimitiveError("system is not primitive; no unimodular completion")
        del tail[0]
        for row, x in zip(c, r):
            row[j] = x
    return tuple(map(tuple, c)), tuple(map(tuple, tail))


def _independent_rows(vectors, n):
    """The vectors as int rows, checked to be independent and of length n.
    Raises DimensionMismatchError or DependentVectorsError."""
    rows = [tuple(int(x) for x in v) for v in vectors]
    if any(len(r) != n for r in rows):
        raise DimensionMismatchError("vector length does not match dimension")
    if len(rows) > n or int_matrix_rank(rows) != len(rows):
        raise DependentVectorsError("vectors are linearly dependent")
    return rows


def is_primitive_system(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the integer span of the vectors equals the intersection of
    their linear span with the ambient lattice, i.e. iff they are the first
    columns of some unimodular matrix."""
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatchError("empty vector system")
    n = len(vectors[0])
    try:
        _completion(_independent_rows(vectors, n), n)
    except NotPrimitiveError:
        return False
    return True


def complete_to_basis(vectors: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Unimodular matrix whose first k columns are the given primitive
    system, built by Euclid steps on the vectors' coordinates."""
    return _completion(_independent_rows(vectors, n), n)[0]


def _extend_greedily(g: GramMatrix):
    """A basis of n vectors, each a shortest one extending the system so
    far: the first v in (q, vector_key(v)) order with gcd(tail v) = 1,
    read from one stream capped by the next completion column (see the
    module docstring). Each chosen vector but the last is folded once
    onto the completion carried from the step before."""
    a, n = g.scaled()[0], g.n
    chosen, c, tail, cap = [], identity_matrix(n), identity_matrix(n), a[0][0]
    for _, v in _in_norm_order(_reduced_view(g), lambda: cap):
        if gcd(*mat_vec(tail, v)) == 1:
            chosen.append(v)
            k = len(chosen)
            if k == n:
                return chosen
            c, tail = _completion([v], n, (c, tail))
            col = [row[k] for row in c]
            cap = sum(x * r for x, r in zip(col, mat_vec(a, col)))
    raise AssertionError("completion column vanished from its own ball")


def _signed_representative(a, parity):
    """(y, y^T a y) for the +-1 member y of the class parity (mod 2) signed
    greedily along its support, so y^T a y <= the sum of its a_ii."""
    y, ay, q = [0] * len(a), [0] * len(a), 0
    for i, p in enumerate(parity):
        if p:
            y[i] = s = -1 if ay[i] > 0 else 1
            q += a[i][i] + 2 * s * ay[i]
            ay = [u + s * r for u, r in zip(ay, a[i])]
    return tuple(y), q


def _coset_layers(g: GramMatrix):
    """{class: minima} for every nonzero class of L/2L, read from one ball.

    A class is the parity v & 1 of its members in g's coordinates, read
    from its minima: the leaves are binned by parity in the view's
    coordinates, which fixes it in g's. The minima are the class's
    least-norm members, one per +-pair, as (v, Q(v)) sorted by (Q(v), v).
    The radius is the largest norm of a signed representative over the
    classes, so the ball holds every class minimum.
    """
    view = _reduced_view(g)
    a = view.a_red
    radius = max(_signed_representative(a, p)[1] for p in product((0, 1), repeat=len(a)))
    bins = {}
    for coords, q in _enumerate_core(view, radius, 1):
        key = tuple(x & 1 for x in coords)
        least = bins.get(key)
        if least is None or q < least[0][1]:
            bins[key] = [(coords, q)]
        elif q == least[0][1]:
            least.append((coords, q))
    bins.pop((0,) * len(a), None)
    layers = (_by_exact_norm(view, raw) for raw in bins.values())
    return {tuple(x & 1 for x in minima[0][0]): minima for minima in layers}


def coset_minima(g: GramMatrix, parity: Sequence[int]):
    """Shortest vectors of the coset {v : v = parity mod 2} of L/2L.

    Returns (min norm^2, +-representatives), read from the one binned ball
    of :func:`_coset_layers`.
    """
    par = tuple(int(p) % 2 for p in parity)
    if len(par) != g.n:
        raise DimensionMismatchError("parity length mismatch")
    if not any(par):
        raise ValueError("parity class must be nonzero")
    minima = _coset_layers(g)[par]
    return minima[0][1], tuple(v for v, _ in minima)
