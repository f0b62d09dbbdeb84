"""Seeded random forms shared by the test modules.

Two models, for two different purposes:

- ``random_generic_gram`` is the model for claims about *generic* lattices
  (Voronoi's 2(2^n - 1) relevant vectors, table-4 membership, the
  coordinate bound). With wide integer entries, exact ties between coset
  minima, and hence fewer relevant vectors, are rare.
- ``skewed_orthogonal_gram`` is a badly skewed basis of a *known* lattice,
  the orthogonal lattice diag(d). Use it only where that is what the test
  means: reduction of skewed bases, basis-change invariance, and the tie
  cosets an orthogonal lattice always has.

``random_pd_gram`` is the small-entry form of the first model, whose brute
force boxes stay small, and ``random_unimodular`` skews any form.
"""

from minkred.exactlin import GramMatrix


def random_generic_gram(rng, n, spread=50, shift=1):
    """A^T A + shift I with the entries of A uniform in [-spread, spread]."""
    a = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
    return GramMatrix(
        [
            [sum(a[k][i] * a[k][j] for k in range(n)) + (shift if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    )


def random_pd_gram(rng, n):
    """A^T A + 2I with the entries of A in [-3, 3]: small, with real ties."""
    return random_generic_gram(rng, n, spread=3, shift=2)


def random_unimodular(rng, n, ops=None, coeff=3):
    """Product of ``ops`` (default 3n) random row operations
    row_i += c row_j, with c uniform in [-coeff, coeff]."""
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops if ops is not None else 3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-coeff, coeff)
        for s in range(n):
            t[i][s] += c * t[j][s]
    return tuple(tuple(r) for r in t)


def skewed_orthogonal_gram(rng, n):
    """T^T diag(d) T for random d_k in 1..10 and a random unimodular T.

    The lattice is isometric to the orthogonal lattice diag(d): its reduced
    form is diagonal, it has exactly 2n signed relevant vectors (the images
    T^-1 e_k), and every coset of L/2L with two or more odd coordinates of
    T x is a tie. Returns (gram, d, t), so that a test can work on diag(d)
    and map back with T^-1: Q_gram(x) = Q_diag(d)(T x).
    """
    d = [rng.randint(1, 10) for _ in range(n)]
    t = random_unimodular(rng, n)
    g = GramMatrix(
        [[sum(d[k] * t[k][i] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    )
    return g, d, t
