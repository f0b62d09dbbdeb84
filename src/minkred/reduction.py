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

The certificate scans the table candidates in canonical order, grouped by
|coords| and check index: the exact integral bound
Q(u) >= sum c_i^2 a_ii - 2 sum |c_i c_j| |a_ij| holds for every sign image
u of a group, so a group whose bound reaches Q(e_i) is skipped unscanned.
Its verdict is cached on the GramMatrix, next to the scaled Gram and the
LLL view, so every check of one form shares one scan.
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
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    apply_transform,
    evaluate_form,
    identity_matrix,
    integral_gram_schmidt,
    mat_vec,
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
def _scan_struct(n: int):
    """Per-dimension candidate scan structure, built on first use.

    Returns (runs, groups). A group is every candidate with the same
    |coords| and check index. groups[g] holds the (index, coefficient)
    pairs of the group's exact lower bound
    Q(u) >= sum c_i^2 a_ii - 2 sum |c_i c_j| |a_ij|, indexed into the flat
    entries of the scaled Gram followed by their negated absolute values.
    runs cut the canonical scan order into maximal stretches of one group:
    (group, check index, members), each member (coords, flattened
    quadratic-form coefficient pairs).
    """
    group_of: dict = {}
    shared: dict = {}  # one tuple per distinct pair: they recur across 2470 candidates
    groups = []
    runs = []
    for cand in tammela_reduction_candidates(n):
        coords = cand.coords
        ci = tail_gcd_index(coords)
        pairs, bound = [], []
        for i in range(n):
            if coords[i]:
                pairs.append((i * n + i, coords[i] * coords[i]))
                bound.append(pairs[-1])
                for j in range(i + 1, n):
                    if coords[j]:
                        pairs.append((i * n + j, 2 * coords[i] * coords[j]))
                        bound.append((n * n + i * n + j, abs(pairs[-1][1])))
        key = (tuple(abs(x) for x in coords), ci)
        if key not in group_of:
            group_of[key] = len(groups)
            groups.append(tuple(bound))
        gid = group_of[key]
        if not runs or runs[-1][0] != gid:
            runs.append((gid, ci, []))
        runs[-1][2].append((coords, tuple(shared.setdefault(p, p) for p in pairs)))
    return tuple((gid, ci, tuple(members)) for gid, ci, members in runs), tuple(groups)


def _first_violation_int(a, n, struct):
    """First violated inequality on the scaled integer Gram, or None.

    Monotonicity Q(e_{i+1}) >= Q(e_i) is checked first (as the candidate
    u = e_{i+1} against index i), then the expanded candidates in their
    canonical order. A group whose exact lower bound already reaches
    Q(e_ci) holds no violation, so its members are skipped; each bound is
    computed when the scan first meets its group, so the first violation
    is the one a flat scan finds.
    """
    diag = [a[i][i] for i in range(n)]
    for i in range(n - 1):
        if diag[i + 1] < diag[i]:
            u = tuple(1 if j == i + 1 else 0 for j in range(n))
            return u, i, diag[i + 1]
    flat = [x for row in a for x in row]
    signed = flat + [-abs(x) for x in flat]
    runs, groups = struct
    skip = [None] * len(groups)
    for gid, ci, members in runs:
        t = diag[ci]
        if skip[gid] is None:
            b = 0
            for idx, c in groups[gid]:
                b += c * signed[idx]
            skip[gid] = b >= t
        if skip[gid]:
            continue
        for coords, pairs in members:
            s = 0
            for idx, c in pairs:
                s += c * flat[idx]
            if s < t:
                return coords, ci, s
    return None


def is_minkowski_reduced_table(g: GramMatrix) -> Union[bool, Violation]:
    """Certify reducedness by the finite inequality system (2 <= n <= 6).

    Returns True, or the first Violation in canonical candidate order,
    the same one a flat scan of every candidate finds: only groups of
    sign images whose exact lower bound already reaches Q(e_i) are
    skipped. The verdict is cached in g's _table slot (g is immutable),
    so check_theorem_bound and check_table4_membership read it instead
    of scanning again; an equal but distinct GramMatrix scans afresh.
    """
    struct = _scan_struct(g.n)  # raises UnsupportedDimensionError outside 2..6
    verdict = object.__getattribute__(g, "_table")
    if verdict is None:
        a, den = g.scaled()
        integral_gram_schmidt(a)  # raises NotPositiveDefiniteError(k)
        hit = _first_violation_int(a, g.n, struct)
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
    """The report for the basis whose columns are the columns of t."""
    return ReductionReport(apply_transform(g, t), t, iterations, fixes)


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


def lll_reduce(g: GramMatrix, delta=F(3, 4)) -> ReductionReport:
    """Exact-rational LLL (integral Gram variant); preprocessing and
    comparison baseline. iterations counts swaps."""
    delta = Fraction(delta)
    if not (F(1, 4) < delta <= 1):
        raise ValueError(f"delta must satisfy 1/4 < delta <= 1, got {delta}")
    t, swaps = lll_transform(g.scaled()[0], delta)[:2]
    return _report(g, t, swaps, ())


def hermite_witness_search(g: GramMatrix, budget: int = 100_000) -> WitnessSearchResult:
    """Look for a basis whose sorted length profile beats the input's.

    Depth-first greedy over short vectors with primitivity checks: tie the
    input profile entry by entry, and the first position that can be
    strictly undercut yields a witness (any completion works). A child
    folds its vector into its parent's completion; complete_to_basis
    builds the witness. Finding a witness proves the input basis is not
    Hermite-reduced; exhausting the budget proves nothing.
    """
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
