"""Minkowski reduction and reducedness certification.

The definition is greedy: each e_k is a shortest vector that extends
e_1..e_{k-1} to a primitive system. Equivalently Q(e_i) <= Q(u) for every
u with gcd(u_i, ..., u_n) = 1, which one pass over the vectors in norm
order decides for every index at once, in any feasible dimension. Both
reducers are one greedy pass in norm order from nothing
(enumeration._extend_greedily), which folds each chosen vector once into
the completion it carries, as the Hermite witness search does per node;
minkowski_reduce reads its one fix from the first chosen vector that is
not the unit vector e_k. The definitional check runs a pass of its own,
so the two routes stay independent. The finite inequality tables
(dimensions 2..6) never drive reduction; they are the independent
certificate, and their agreement with the definitional check on random
forms is itself one of the headline properties this package exists to
exercise.

The certificate evaluates every check in one exact sum. Each check
(Q(e_{i+1}) >= Q(e_i), or a table candidate u against its tail gcd index
i) is a fixed integer linear form in the upper-triangle entries a_jk of the
scaled Gram, so s = bias + sum a_jk P_jk holds Q(u) - Q(e_i) + 2^(w-1) in
w-bit slot c when P_jk packs a_jk's coefficient in every check, one slot per
check in canonical order. w is the smallest power of two >= 16 with
2^(w-1) > L1 max|a_jk|, L1 the largest absolute coefficient sum of a check
(80 in dimension 6), so every slot lies in [0, 2^w) and none carries into
the next. A check fails exactly when its slot's top bit is clear. The
verdict is cached on the GramMatrix, next to its LLL view, so every check
of one form shares one sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple, Optional, Union

from ._lll import lll_transform
from .enumeration import (
    _by_norm,
    _completion,
    _enumerate_core,
    _extend_greedily,
    _in_norm_order,
    _reduced_view,
    complete_to_basis,
)
from .errors import InvalidInputError
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    _int_rows,
    evaluate_form,
    identity_matrix,
    integral_gram_schmidt,
    mat_vec,
    transform_gram_int,
)
from .tables import tail_gcd_index, tammela_reduction_candidates

F = Fraction


class Violation(NamedTuple):
    vector: IntVector     # u with Q(u) < Q(e_index) and gcd(u_index..u_n) = 1
    index: int            # 0-based i of the violated inequality
    q_u: Fraction
    q_ei: Fraction


class ReductionReport(NamedTuple):
    reduced: GramMatrix
    transform: IntMatrix                     # columns = new basis, reduced = T^T G T
    iterations: int
    violations_fixed: tuple[Violation, ...]


class WitnessSearchResult(NamedTuple):
    basis: Optional[IntMatrix]               # columns = witness basis, or None
    profile: Optional[tuple[Fraction, ...]]  # sorted squared lengths of the witness
    nodes: int
    budget: int

    @property
    def found(self) -> bool:
        return self.basis is not None


@lru_cache(maxsize=None)
def _check_list(n: int):
    """(checks, columns, L1) of dimension n, built on first use.

    checks[c] = (u, i) in canonical order: the monotonicity checks
    (e_{i+1}, i), then each tammela_reduction_candidates(n) entry against
    its tail_gcd_index. Byte c of columns[p] is the coefficient of the
    upper-triangle entry p (a_jk, j <= k, row by row) in Q(u) - Q(e_i),
    offset by 128; bytes() rejects any coefficient outside [-128, 128).
    """
    unit = identity_matrix(n)
    checks = [(unit[i + 1], i) for i in range(n - 1)]
    checks += [(c.coords, tail_gcd_index(c.coords)) for c in tammela_reduction_candidates(n)]
    entries = [(j, k) for j in range(n) for k in range(j, n)]
    coeffs = [
        [(1 if j == k else 2) * u[j] * u[k] - (j == k == i) for j, k in entries]
        for u, i in checks
    ]
    columns = tuple(bytes(c + 128 for c in col) for col in zip(*coeffs))
    return tuple(checks), columns, max(sum(map(abs, c)) for c in coeffs)


@lru_cache(maxsize=None)
def _packed(n: int, w: int):
    """(bias, P) for slot width w: P[p] holds entry p's coefficient of check
    c in slot c, bias holds 2^(w-1) in every slot. One strided slice
    assignment per entry writes its column into the bottom bytes of the
    slots; one subtraction of 128 per slot removes the offset."""
    checks, columns, _ = _check_list(n)
    size = w // 8

    def spread(data):  # byte c of data at the bottom of slot c
        buf = bytearray(size * len(checks))
        buf[::size] = data
        return int.from_bytes(buf, "little")

    ones = spread(bytes([1]) * len(checks))
    return ones << (w - 1), tuple(spread(col) - 128 * ones for col in columns)


def _packed_sum(a, n):
    """(s, w) on the scaled integer Gram a: slot c of s holds
    Q(u_c) - Q(e_{i_c}) + 2^(w-1), at the width of the module docstring."""
    entries = [a[j][k] for j in range(n) for k in range(j, n)]
    w = max(16, 1 << (_check_list(n)[2] * max(map(abs, entries))).bit_length().bit_length())
    s, packed = _packed(n, w)
    for x, p in zip(entries, packed):
        s += x * p
    return s, w


def _first_violation_int(a, n):
    """(u, i, Q(u)) of the lowest slot with its top bit clear, the first
    violated check in canonical order, or None."""
    s, w = _packed_sum(a, n)
    low = _packed(n, w)[0] & ~s
    if not low:
        return None
    c = ((low & -low).bit_length() - 1) // w
    u, i = _check_list(n)[0][c]
    return u, i, a[i][i] + ((s >> (w * c)) & ((1 << w) - 1)) - (1 << (w - 1))


def is_minkowski_reduced_table(g: GramMatrix) -> Union[bool, Violation]:
    """Certify reducedness by the finite inequality system (2 <= n <= 6).

    Returns True, or the first Violation in canonical check order, the one
    a flat scan finds, from one packed sum of every check whose slots are
    wide enough that none carries (see the module docstring). The verdict
    is cached in g's _table slot (g is immutable), so check_theorem_bound
    and check_table4_membership read it instead of evaluating again; an
    equal but distinct GramMatrix evaluates afresh.
    """
    _check_list(g.n)  # raises UnsupportedDimensionError outside 2..6
    verdict = object.__getattribute__(g, "_table")
    if verdict is None:
        a, den = g.scaled()
        integral_gram_schmidt(a)  # raises NotPositiveDefiniteError(k)
        hit = _first_violation_int(a, g.n)
        if hit is None:
            verdict = True
        else:
            u, i, q = hit
            verdict = Violation(u, i, F(q, den), F(a[i][i], den))
        object.__setattr__(g, "_table", verdict)
    return verdict


def is_minkowski_reduced_definitional(g: GramMatrix) -> Union[bool, Violation]:
    """Certify reducedness from the definition, any feasible dimension.

    Decides for each index i whether some u with gcd(u_i,...,u_n) = 1 has
    Q(u) < Q(e_i), by one complete enumeration in norm order with a
    growing radius (internally LLL-preconditioned). Sound and complete.
    Returns True, or the Violation at the smallest index with a shortest
    such u, ties broken by vector_key. i moves on once Q(u) reaches
    Q(e_i), since every shorter vector has been seen, and a vector
    admissible at i is admissible at every earlier index, so the first
    admissible u at the current i is the answer.
    """
    a, den = g.scaled()
    diag = [a[i][i] for i in range(g.n)]
    i, cap = 0, max(diag) - 1
    for q, u in _in_norm_order(_reduced_view(g), lambda: cap):
        while q >= diag[i]:
            i += 1
            if i == g.n:
                return True
        ti = tail_gcd_index(u)
        if ti is not None and ti >= i:
            return Violation(u, i, F(q, den), F(diag[i], den))
    return True


def _report(g: GramMatrix, t, iterations, fixes) -> ReductionReport:
    """The report for the basis of t's columns, built unimodular here, so
    T^T A T keeps A's content, coprime to den: no lowest-terms check."""
    a, den = g.scaled()
    reduced = GramMatrix._from_scaled(transform_gram_int(a, t), den)
    return ReductionReport(reduced, t, iterations, fixes)


def minkowski_reduce(g: GramMatrix) -> ReductionReport:
    """Reduce from the definition, any dimension.

    One greedy pass from nothing chooses the basis, as in
    greedy_minkowski_basis. Every vector admissible at index i has its
    pivot at i or later, and e_i comes first in vector_key order among
    those of pivot i, so the pass keeps e_i exactly while no index up to
    i is violated. A reduced input therefore comes back unchanged.
    Otherwise the first chosen vector that is not e_k sits at the smallest
    violated index k and is the shortest violation there, ties broken by
    vector_key: the one fix reported. iterations counts the n - k vectors
    chosen from index k on.
    """
    n = g.n
    rows = _extend_greedily(g)
    unit = identity_matrix(n)
    k = next((i for i in range(n) if rows[i] != unit[i]), None)
    if k is None:
        return ReductionReport(g, unit, 0, ())
    fix = Violation(rows[k], k, evaluate_form(g, rows[k]), g[k, k])
    return _report(g, tuple(zip(*rows)), n - k, (fix,))


def greedy_minkowski_basis(g: GramMatrix) -> ReductionReport:
    """Build a reduced basis by Minkowski's greedy definition: each e_k is
    a shortest vector extending e_1..e_{k-1} to a primitive system.

    One greedy pass in norm order chooses all n vectors, in any
    enumeration-feasible dimension (the worked 9-dimensional example
    included); ties break by vector_key. The output passes the
    definitional check by construction.
    """
    rows = _extend_greedily(g)
    return _report(g, tuple(zip(*rows)), g.n, ())


def lll_reduce(g: GramMatrix) -> ReductionReport:
    """Exact LLL with delta = 3/4 (integral Gram variant), as a report;
    a comparison baseline. iterations counts swaps."""
    t, swaps = lll_transform(g.scaled()[0])[:2]
    return _report(g, t, swaps, ())


def hermite_witness_search(g: GramMatrix, budget: int = 100_000) -> WitnessSearchResult:
    """Look for a basis whose sorted length profile beats the input's.

    Depth-first greedy over short vectors with primitivity checks: tie the
    input profile entry by entry, and the first position that can be
    strictly undercut yields a witness (any completion works). A child
    folds its vector into its parent's completion; complete_to_basis
    builds the witness. Finding a witness proves the input basis is not
    Hermite-reduced; exhausting the budget, an int >= 0 (the rule of
    :func:`exactlin._int_rows`), proves nothing.
    """
    ((budget,),) = _int_rows(((budget,),), 1, "hermite_witness_search")
    if budget < 0:
        raise InvalidInputError(f"hermite_witness_search: budget must be >= 0, got {budget}")
    n = g.n
    a = g.scaled()[0]
    targets = sorted(a[i][i] for i in range(n))  # profile, scaled
    view = _reduced_view(g)
    cands = list(_by_norm(view, _enumerate_core(view, targets[-1], 1)))
    if not cands or cands[0][0] >= targets[-1]:
        # nothing strictly shorter than the longest profile entry exists,
        # so no profile can beat this one
        return WitnessSearchResult(None, None, 0, budget)

    nodes = 0

    def dfs(prefix, completion):
        # candidates come in norm order: those shorter than the target
        # would be witnesses, those equal to it tie and go one level down
        nonlocal nodes
        level = len(prefix)
        target, tail = targets[level], completion[1]
        for q, v in cands:
            if q > target:
                break
            nodes += 1
            if nodes > budget:
                return "budget"
            if gcd(*mat_vec(tail, v)) == 1:
                if q < target:
                    return complete_to_basis(prefix + [v], n)
                if level + 1 == n:
                    continue  # full profile tie, not a witness
                out = dfs(prefix + [v], _completion([v], n, completion))
                if out is not None:
                    return out
        return None

    out = dfs([], (identity_matrix(n), identity_matrix(n)))
    if out is None or out == "budget":
        return WitnessSearchResult(None, None, min(nodes, budget), budget)
    profile = tuple(sorted(evaluate_form(g, col) for col in zip(*out)))
    return WitnessSearchResult(out, profile, nodes, budget)
