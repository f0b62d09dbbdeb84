"""All-integer LLL on a Gram matrix (de Weger / Cohen's integral variant).

It works on the leading-minor sequence d and the integer Gram-Schmidt
numerators lambda of :func:`exactlin.integral_gram_schmidt`, so every step
is exact integer arithmetic; the reduced Gram matrix is recomputed from the
accumulated transform by the caller. Only the transform is tracked:
callers map reduced coordinates to input ones, never back. The Lovasz
parameter is fixed at delta = 3/4, which the swap test reads as the
integers 3 and 4.
"""

from __future__ import annotations

from .exactlin import identity_matrix, integral_gram_schmidt


def _reduce_step(d, lam, t, k, l):
    """Size-reduce basis vector k against vector l < k: b_k -= r b_l with
    r the nearest integer to lam[k][l] / d[l + 1] (halves round up).

    Updates lam row k and the columns of t.
    """
    lkl = lam[k][l]
    dl = d[l + 1]
    if 2 * abs(lkl) <= dl:
        return
    r = (2 * lkl + dl) // (2 * dl)
    for row in t:
        row[k] -= r * row[l]
    lam[k][l] = lkl - r * dl
    lam_k, lam_l = lam[k], lam[l]
    for j in range(l):
        lam_k[j] -= r * lam_l[j]


def lll_transform(a):
    """LLL-reduce the integer Gram matrix ``a`` with delta = 3/4.

    Returns (t, swaps, d, lam): t is the unimodular transform whose
    columns are the reduced basis in input coordinates (reduced Gram =
    t^T a t) and (d, lam) the integral Gram-Schmidt quantities of the
    reduced Gram, as :func:`exactlin.integral_gram_schmidt` would return
    them.
    Raises NotPositiveDefiniteError when a leading minor is <= 0.
    """
    n = len(a)
    dd, lam = integral_gram_schmidt(a)
    # transform columns are basis vectors; column ops mirror basis ops
    t = [list(row) for row in identity_matrix(n)]

    swaps = 0
    k = 1
    while k < n:
        _reduce_step(dd, lam, t, k, k - 1)
        lkl = lam[k][k - 1]
        if 4 * (dd[k + 1] * dd[k - 1] + lkl * lkl) < 3 * dd[k] * dd[k]:
            # swap basis vectors k-1 and k
            for row in t:
                row[k], row[k - 1] = row[k - 1], row[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (dd[k - 1] * dd[k + 1] + lkl * lkl) // dd[k]
            for i in range(k + 1, n):
                ti = lam[i][k]
                lam[i][k] = (lam[i][k - 1] * dd[k + 1] - lkl * ti) // dd[k]
                lam[i][k - 1] = (b * ti + lkl * lam[i][k]) // dd[k + 1]
            dd[k] = b
            swaps += 1
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                _reduce_step(dd, lam, t, k, l)
            k += 1

    return tuple(tuple(row) for row in t), swaps, dd, lam
