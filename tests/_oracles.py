"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately implemented by a different route than the
library (Gaussian elimination instead of Bareiss, gcd of minors instead of
Euclid completion, a search over the grid (1/V) Z^n instead of the group
spanned by adj(M) / det M, box enumeration instead of pruned search, a
flat scan of every table check instead of one packed sum) so a bug in
the library cannot hide in its own oracle.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, isqrt, lcm


def frac_det_gauss(rows):
    """Determinant by plain fractional Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def minor_pivots(rows):
    """LDL pivots as ratios of leading principal minors."""
    n = len(rows)
    minors = [Fraction(1)]
    for k in range(1, n + 1):
        sub = [row[:k] for row in rows[:k]]
        minors.append(frac_det_gauss(sub))
    pivots = []
    for k in range(1, n + 1):
        if minors[k - 1] == 0:
            return None  # pivot sequence undefined past a zero minor
        pivots.append(minors[k] / minors[k - 1])
    return pivots


def first_nonpositive_minor(rows):
    """Index k of the first leading principal minor, of order k + 1, that
    is <= 0, or None if every one is positive (Sylvester's criterion)."""
    return next((k for k in range(len(rows))
                 if frac_det_gauss([row[:k + 1] for row in rows[:k + 1]]) <= 0), None)


def minor_gcd(rows):
    """gcd of the k x k minors of a k x n integer system: 1 exactly when
    the system is primitive, 0 when it is dependent."""
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, int(frac_det_gauss([[row[j] for j in cols] for row in rows])))
    return g


def brute_coset_reps(rows):
    """(V, reps, U) of Z^n over the sublattice spanned by the n integer
    vectors ``rows``: V = |det|, and reps are every y in {0, 1/V, ..,
    (V-1)/V}^n whose combination sum_j y_j rows[j] is integral, sorted."""
    n = len(rows)
    v = abs(int(frac_det_gauss(rows)))
    reps = []
    for k in product(range(v), repeat=n):
        if all(sum(rows[j][i] * k[j] for j in range(n)) % v == 0 for i in range(n)):
            reps.append(tuple(Fraction(x, v) for x in k))
    return v, tuple(sorted(reps)), lcm(*(x.denominator for y in reps for x in y))


def scaled_int(rows):
    """(A, den): den the lcm of the entries' denominators and A = den * G,
    each entry by a Fraction product truncated to int."""
    den = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return [[int(Fraction(x) * den) for x in row] for row in rows], den


def mat_product(a, b):
    """The matrix product a b by index loops, as a tuple of row tuples."""
    return tuple(tuple(sum(row[r] * b[r][j] for r in range(len(b))) for j in range(len(b[0])))
                 for row in a)


def eval_q(rows, x):
    """x^T G x via the bilinear expansion, independent of the library."""
    n = len(rows)
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            total += Fraction(rows[i][j]) * x[i] * x[j]
    return total


def gram_inverse(rows):
    """Inverse of a rational matrix by Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def ball_box_bound(rows, bound):
    """Coordinate box |x_i| <= B_i provably containing {Q(x) <= bound}."""
    inv = gram_inverse(rows)
    bounds = []
    for i in range(len(rows)):
        t = Fraction(bound) * inv[i][i]
        # smallest integer B with B^2 >= t
        b = isqrt(t.numerator * t.denominator) // t.denominator
        while Fraction(b * b) < t:
            b += 1
        bounds.append(b)
    return bounds


def brute_short_vectors(rows, bound):
    """All nonzero x with Q(x) <= bound, one representative per +-pair,
    sorted by (norm, coords). Exhaustive box enumeration."""
    bound = Fraction(bound)
    box = ball_box_bound(rows, bound)
    # x^T G x on den * G, in integers: the box holds thousands of points
    a, den = scaled_int(rows)
    n = len(rows)
    found = []
    for x in product(*[range(-b, b + 1) for b in box]):
        if all(v == 0 for v in x):
            continue
        first = next(v for v in x if v != 0)
        if first < 0:
            continue  # keep the +-representative with first nonzero > 0
        q = sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n))
        if q <= bound * den:
            found.append((tuple(x), Fraction(q, den)))
    found.sort(key=lambda t: (t[1], t[0]))
    return found


def brute_minimum(rows):
    """Exact lattice minimum of a PD form via growing-radius box search."""
    diag_min = min(Fraction(rows[i][i]) for i in range(len(rows)))
    vs = brute_short_vectors(rows, diag_min)
    lam = min(q for _, q in vs)
    return lam, [v for v, q in vs if q == lam]


def pivot_first(x):
    """(last nonzero index, x): among equal norms, the vector whose last
    nonzero coordinate comes first wins, then plain tuple order."""
    return max(j for j in range(len(x)) if x[j]), tuple(x)


def brute_greedy_basis(rows, prefix=()):
    """Minkowski's greedy basis, extending the primitive system prefix:
    each step takes the least x by (Q(x), pivot_first(x)) whose minors
    with the vectors so far have gcd 1. The ball doubles from twice the
    shortest basis vector's norm until it holds an extension."""
    n = len(rows)
    chosen = [tuple(v) for v in prefix]
    bound = min(Fraction(rows[i][i]) for i in range(n))
    ball = []
    while len(chosen) < n:
        x = next((x for x, _ in ball if minor_gcd(chosen + [x]) == 1), None)
        if x is None:
            bound *= 2
            ball = sorted(brute_short_vectors(rows, bound), key=lambda e: (e[1], pivot_first(e[0])))
        else:
            chosen.append(x)
    return chosen


def brute_first_violation(rows):
    """(i, Q(u), u) for the smallest i with some u, gcd(u_i..u_n) = 1 and
    Q(u) < Q(e_i), taking the least u by (Q(u), pivot_first(u)), with its
    first nonzero coordinate positive; None for a reduced form."""
    ball = brute_short_vectors(rows, max(rows[i][i] for i in range(len(rows))))
    for i in range(len(rows)):
        hits = [(q, pivot_first(x)) for x, q in ball
                if q < rows[i][i] and reduce(gcd, x[i:], 0) == 1]
        if hits:
            q, (_, u) = min(hits)
            return i, q, u
    return None


def table_checks(rows, candidates):
    """(u, i, Q(u), Q(e_i)) for every check of the table certificate, in
    scan order: monotonicity Q(e_{k+1}) >= Q(e_k) as u = e_{k+1} against
    k, then each candidate against the largest i with gcd(u_i..u_n) = 1.
    Q is evaluated on every candidate; none is ever skipped."""
    n = len(rows)
    a, den = scaled_int(rows)
    for k in range(n - 1):
        u = tuple(int(j == k + 1) for j in range(n))
        yield u, k, Fraction(a[k + 1][k + 1], den), Fraction(a[k][k], den)
    for u in candidates:
        i = max(i for i in range(n) if reduce(gcd, u[i:], 0) == 1)
        nz = [j for j in range(n) if u[j]]
        q = sum(u[j] * u[k] * a[j][k] for j in nz for k in nz)
        yield tuple(u), i, Fraction(q, den), Fraction(a[i][i], den)


def flat_table_first_violation(rows, candidates):
    """The table certificate by a flat scan: True, or the first check of
    :func:`table_checks` with Q(u) < Q(e_i)."""
    return next((c for c in table_checks(rows, candidates) if c[2] < c[3]), True)


def brute_coset_minima(rows, parity, bound):
    """Shortest vectors in the coset x = parity (mod 2), box-enumerated:
    each coordinate runs over the box's values of its parity, and x^T G x
    is evaluated on den * G, in integers, as in brute_short_vectors."""
    bound = Fraction(bound)
    box = ball_box_bound(rows, bound)
    a, den = scaled_int(rows)
    n = len(rows)
    best = None
    reps = []
    for x in product(*[range(-b + (b + p) % 2, b + 1, 2) for b, p in zip(box, parity)]):
        if all(v == 0 for v in x):
            continue
        q = sum(x[i] * a[i][j] * x[j] for i in range(n) for j in range(n))
        if q > bound * den:
            continue
        if best is None or q < best:
            best = q
            reps = [x]
        elif q == best:
            reps.append(x)
    # collapse +- pairs
    canon = set()
    for x in reps:
        first = next(v for v in x if v != 0)
        canon.add(x if first > 0 else tuple(-v for v in x))
    return (None if best is None else Fraction(best, den)), sorted(canon)


def signed_representative(a, parity):
    """(y, y^T a y) for the +-1 member y of the class parity (mod 2) signed
    greedily along its support, y_i = -1 if (a y)_i > 0 else +1, one class
    at a time, so y^T a y <= the sum of its a_ii."""
    y, ay, q = [0] * len(a), [0] * len(a), 0
    for i, p in enumerate(parity):
        if p:
            y[i] = s = -1 if ay[i] > 0 else 1
            q += a[i][i] + 2 * s * ay[i]
            ay = [u + s * r for u, r in zip(ay, a[i])]
    return tuple(y), q


def xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0
