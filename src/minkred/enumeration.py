"""Exact short-vector enumeration and primitivity machinery.

The enumeration core is a Fincke-Pohst recursion over the integral
Gram-Schmidt quantities (d, lambda) of the scaled integer Gram matrix
(Cohen, A Course in Computational Algebraic Number Theory, 2.6.3). Level
j carries one integer, N_j = d[j] times the squared length of x's
projection orthogonal to the first j basis vectors, which is a Gram
determinant; one level down, N_j = (d[j] N_{j+1} + w_j^2) / d[j+1]
divides exactly. x_j's range is one integer square root of a number below
d[j] d[j+1] bound, so no decision ever touches floating point and no
intermediate grows with the depth. A leaf's norm is N_0, an integer at
least every level's N_j / d[j], so the radius is one int, the floor of a
rational bound; the range is exact, so every leaf lies in the ball and
none is checked again. Every search runs on the LLL view of the form,
built once per GramMatrix and cached on it, and witnesses are mapped
back, which changes nothing observable. The view keeps the d and lambda
that LLL ends with, so no search recomputes them. The core has no modes:
every search reads one plain ball.

Every public vector list leaves the view through _by_exact_norm: its
entry point picks, in integers, the leaves (coords, q) it returns, and
only those are mapped back, sorted by (q, v) and given Fraction norms.
A shortest vector under a side condition (tail gcd 1, primitive extension,
independence) is read from one lazy stream, _in_norm_order: Fincke-Pohst
balls of doubling radius, each sorted by norm and each norm layer
mapped back only when a search reaches it. The classes of L/2L are read
from one ball, _coset_bins: its leaves, in norm order, are binned in
integers by their parity y & 1 in the view's coordinates (which fixes
that of x = T y), so a bin's first leaf is its minimum, and binning stops
above the norm that fills the last class. The radius, _signed_radius, is
the largest norm over the classes of a +-1 member signed along its
support, y_i = -1 if (A y)_i > 0 else +1: each step adds a_ii + 2 y_i
(A y)_i <= a_ii, and one walk over parity prefixes adds each row once.

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
from itertools import groupby
from math import floor, gcd, isqrt
from operator import itemgetter, mul
from typing import NamedTuple, Sequence

from ._lll import lll_transform
from .errors import (
    DependentVectorsError,
    DimensionMismatchError,
    InvalidInputError,
    NotPrimitiveError,
)
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    _frac_rows,
    _int_rows,
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

def _enumerate_core(view, bound):
    """All nonzero x with x^T A x <= bound, an int >= 0 (one representative
    per +-pair), for A = view.a_red, pruned with the view's d and lambda.

    Returns a list of (coords, q) with q = x^T A x an int. With w_k =
    sum_{i>=k} lam[i][k] x_i (lam[k][k] = d[k+1]), the squared length of
    x's projection orthogonal to the first j basis vectors is S_j =
    sum_{k>=j} w_k^2 / (d[k] d[k+1]) (Cohen, A Course in Computational
    Algebraic Number Theory, 2.6.3). Level j carries N_j = d[j] S_j, the
    Gram determinant of those j vectors and x, an integer; so
    N_j = (d[j] N_{j+1} + w_j^2) / d[j+1] divides exactly. x_j is kept iff
    N_j <= d[j] bound, that is iff w_j^2 <= d[j] (bound d[j+1] - N_{j+1}),
    a non-negative integer below d[j] d[j+1] bound: the range of x_j is one
    isqrt and two floor divisions. A leaf's q is N_0 (d[0] = 1), so no leaf
    is evaluated or checked again.
    """
    d, lam = view.d, view.lam
    n = len(lam)
    lam_cols = tuple(zip(*lam))  # lam_cols[j][i] = lam[i][j]
    results: list[tuple[tuple[int, ...], int]] = []
    x = [0] * n

    def descend(j, above, tail_zero):
        # above = N_{j+1}; every x_j in [lo, hi] has N_j <= d[j] bound
        dj, dj1 = d[j], d[j + 1]
        g = isqrt(dj * (bound * dj1 - above))
        lam_j = lam_cols[j]
        c = 0
        for i in range(j + 1, n):
            if x[i]:
                c += lam_j[i] * x[i]
        lo, hi = -((g + c) // dj1), (g - c) // dj1
        if tail_zero and lo < 0:
            lo = 0
        base = dj * above
        for xj in range(lo, hi + 1):
            x[j] = xj
            w = dj1 * xj + c
            if j:
                descend(j - 1, (base + w * w) // dj1, tail_zero and xj == 0)
            elif xj or not tail_zero:
                results.append((tuple(x), (base + w * w) // dj1))
        x[j] = 0

    descend(n - 1, 0, True)
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
        yield from _by_norm(view, _enumerate_core(view, radius), done)
        done, radius = radius, 2 * radius


def _by_exact_norm(view: _ReducedView, raw):
    """The leaves (coords, q) a caller returns, as (v, Q(v)) with v mapped
    back once, sorted by (Q(v), v): by the integer q, as den > 0, and the
    Fractions Q(v) = q / den are built after the sort."""
    entries = sorted((q, _map_back(view, coords)) for coords, q in raw)
    return tuple((v, F(q, view.den)) for q, v in entries)


def enumerate_short_vectors(g: GramMatrix, bound) -> ShortVectorList:
    """Complete list of nonzero v with Q(v) <= bound, up to sign.

    Exact for every positive definite G; representatives carry canonical
    sign (first nonzero coordinate positive) and are sorted by
    (norm^2, coordinates). The bound follows the rational input rule of
    :func:`exactlin._frac_rows`.
    """
    ((bound,),) = _frac_rows(((bound,),), "enumerate_short_vectors")
    if bound <= 0:
        raise InvalidInputError(f"enumerate_short_vectors: bound must be positive, got {bound}")
    view = _reduced_view(g)
    raw = _enumerate_core(view, floor(bound * view.den))
    return ShortVectorList(bound, _by_exact_norm(view, raw))


def lattice_minimum(g: GramMatrix):
    """(lambda^2, minima): the exact nonzero minimum of Q and every
    attaining vector up to sign, from one ball of the least view diagonal."""
    view = _reduced_view(g)
    raw = _enumerate_core(view, min(view.a_red[i][i] for i in range(len(view.a_red))))
    least = min(q for _, q in raw)
    minima = _by_exact_norm(view, [leaf for leaf in raw if leaf[1] == least])
    return minima[0][1], ShortVectorList(minima[0][1], minima)


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


def _independent_rows(vectors, n, entry):
    """The vectors as int rows of length n (exactlin._int_rows, naming
    ``entry``), checked to be independent. Raises DependentVectorsError."""
    rows = _int_rows(vectors, n, entry)
    if len(rows) > n or int_matrix_rank(rows) != len(rows):
        raise DependentVectorsError("vectors are linearly dependent")
    return rows


def is_primitive_system(vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the integer span of the vectors equals the intersection of
    their linear span with the ambient lattice, i.e. iff they are the first
    columns of some unimodular matrix. The vectors are k >= 1 independent
    integer vectors of one length (ints, integral Fractions or floats)."""
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatchError("empty vector system")
    n = len(vectors[0])
    try:
        _completion(_independent_rows(vectors, n, "is_primitive_system"), n)
    except NotPrimitiveError:
        return False
    return True


def complete_to_basis(vectors: Sequence[Sequence[int]], n: int) -> IntMatrix:
    """Unimodular matrix whose first k columns are the given primitive
    system of k <= n integer vectors of length n, as is_primitive_system
    takes them, built by Euclid steps on the vectors' coordinates."""
    return _completion(_independent_rows(vectors, n, "complete_to_basis"), n)[0]


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
            cap = sum(map(mul, col, mat_vec(a, col)))
    raise AssertionError("completion column vanished from its own ball")


def _signed_radius(a):
    """The largest y^T a y, over the nonzero classes of L/2L, of the +-1
    member y signed along its support, by one walk over parity prefixes:
    the classes that extend a prefix share its (a y, y^T a y)."""
    def walk(i, ay, q):
        best = q
        for j in range(i, len(a)):
            s = -1 if ay[j] > 0 else 1
            step = q + a[j][j] + 2 * s * ay[j]
            best = max(best, walk(j + 1, [u + s * r for u, r in zip(ay, a[j])], step))
        return best
    return walk(0, [0] * len(a), 0)


def _coset_bins(view: _ReducedView):
    """The minima of each nonzero class of L/2L as a list of (coords, q),
    in the view's coordinates with q an int; ties at the norm that fills
    the last class are kept."""
    n, top, bins = len(view.a_red), _signed_radius(view.a_red), {}
    for coords, q in sorted(_enumerate_core(view, top), key=itemgetter(1)):
        if q > top:
            break
        key = tuple(x & 1 for x in coords)
        least = bins.get(key)
        if least is None and any(key):
            bins[key] = [(coords, q)]
            if len(bins) == 2**n - 1:
                top = q
        elif least and least[0][1] == q:
            least.append((coords, q))
    return list(bins.values())
