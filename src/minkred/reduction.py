"""Minkowski reduction and reducedness certification.

Two certification routes: the finite inequality tables (dimensions 2..6)
and the definitional check by exhaustive enumeration (any feasible
dimension). Their agreement on random forms is itself one of the headline
properties this package exists to exercise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from ._lll import lll_transform, size_reduce_tail
from .enumeration import (
    _enumerate_core,
    _map_back,
    _reduced_view,
    complete_to_basis,
    is_primitive_system,
    lattice_minimum,
    shortest_primitive_extension,
    vector_key,
)
from .errors import (
    DependentVectorsError,
    ReductionCapError,
    UnsupportedDimensionError,
)
from .exactlin import (
    GramMatrix,
    IntMatrix,
    IntVector,
    identity_matrix,
    mat_mul,
    require_positive_definite,
    transform_gram_int,
)
from .tables import (
    MAX_TABLE_DIM,
    MIN_TABLE_DIM,
    tail_gcd_index,
    tammela_reduction_candidates,
)

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
    """Per-dimension candidate scan structure: (coords, check index,
    flattened quadratic-form coefficient pairs), in canonical scan order."""
    out = []
    for cand in tammela_reduction_candidates(n):
        coords = cand.coords
        ci = tail_gcd_index(coords)
        pairs = []
        for i in range(n):
            if coords[i]:
                pairs.append((i * n + i, coords[i] * coords[i]))
                for j in range(i + 1, n):
                    if coords[j]:
                        pairs.append((i * n + j, 2 * coords[i] * coords[j]))
        out.append((coords, ci, tuple(pairs)))
    return tuple(out)


def _first_violation_int(a, n, struct):
    """First violated inequality on the scaled integer Gram, or None.

    Monotonicity Q(e_{i+1}) >= Q(e_i) is checked first (as the candidate
    u = e_{i+1} against index i), then the expanded candidates in their
    canonical order.
    """
    diag = [a[i][i] for i in range(n)]
    for i in range(n - 1):
        if diag[i + 1] < diag[i]:
            u = tuple(1 if j == i + 1 else 0 for j in range(n))
            return u, i, diag[i + 1]
    flat = [x for row in a for x in row]
    for coords, ci, pairs in struct:
        s = 0
        for idx, c in pairs:
            s += c * flat[idx]
        if s < diag[ci]:
            return coords, ci, s
    return None


def _check_table_dim(n: int) -> None:
    if not (MIN_TABLE_DIM <= n <= MAX_TABLE_DIM):
        raise UnsupportedDimensionError(
            f"table check covers dimensions {MIN_TABLE_DIM}..{MAX_TABLE_DIM}, got {n}"
            " (use the definitional check instead)"
        )


def is_minkowski_reduced_table(g: GramMatrix) -> Union[bool, Violation]:
    """Certify reducedness by the finite inequality system (2 <= n <= 6).

    Returns True, or the first Violation in canonical candidate order.
    """
    _check_table_dim(g.n)
    require_positive_definite(g)
    a, den = g.scaled()
    hit = _first_violation_int(a, g.n, _scan_struct(g.n))
    if hit is None:
        return True
    u, i, q = hit
    return Violation(u, i, F(q, den), F(a[i][i], den))


def is_minkowski_reduced_definitional(g: GramMatrix) -> Union[bool, Violation]:
    """Certify reducedness from the definition, any feasible dimension.

    For each index i this decides whether some u with gcd(u_i,...,u_n) = 1
    has Q(u) < Q(e_i), by complete enumeration with a growing radius
    (internally LLL-preconditioned). Sound and complete.
    """
    require_positive_definite(g)
    n = g.n
    view = _reduced_view(g)
    a_orig, den = g.scaled()
    thresholds = [a_orig[i][i] for i in range(n)]  # scaled Q(e_i)
    max_needed = max(thresholds) - 1
    radius = min(min(view.a_red[i][i] for i in range(n)), max_needed)
    radius = max(radius, 1)

    while True:
        raw = _enumerate_core(view.a_red, radius, 1)
        vecs = sorted(
            ((q, _map_back(view, coords)) for coords, q in raw),
            key=lambda t: (t[0],) + vector_key(t[1]),
        )
        # best achievable norm for each tail-gcd index, as a suffix minimum
        best: list[Optional[tuple[int, IntVector]]] = [None] * n
        for q, v in vecs:
            ti = tail_gcd_index(v)
            if ti is not None and (best[ti] is None):
                best[ti] = (q, v)
        for i in range(n - 2, -1, -1):
            if best[i] is None or (
                best[i + 1] is not None and best[i + 1][0] < best[i][0]
            ):
                if best[i + 1] is not None:
                    best[i] = best[i + 1]
        unresolved = []
        for i in range(n):
            if best[i] is not None and best[i][0] < thresholds[i]:
                q, v = best[i]
                return Violation(v, i, F(q, den), F(thresholds[i], den))
            if radius < thresholds[i] - 1:
                unresolved.append(i)
        if not unresolved:
            return True
        radius = min(max(radius * 2, 1), max(thresholds[i] for i in unresolved) - 1)


def is_minkowski_reduced(g: GramMatrix, definitional: bool = False) -> Union[bool, Violation]:
    """Dispatch: table route for n <= 6 unless definitional is forced."""
    if definitional or g.n > MAX_TABLE_DIM:
        return is_minkowski_reduced_definitional(g)
    return is_minkowski_reduced_table(g)


def _swap_basis_int(a, t, i):
    """Exchange basis vectors i and i+1 on the scaled Gram and transform."""
    n = len(a)
    a[i], a[i + 1] = a[i + 1], a[i]
    for r in range(n):
        a[r][i], a[r][i + 1] = a[r][i + 1], a[r][i]
    for r in range(n):
        t[r][i], t[r][i + 1] = t[r][i + 1], t[r][i]


def minkowski_reduce(g: GramMatrix) -> ReductionReport:
    """Reduce by the violation-fixing loop (dimensions 2..6).

    Each round re-sorts by adjacent swaps (only when strictly shorter),
    finds the first violated table inequality (u, k), and replaces e_k by
    u via the canonical unimodular completion fixing e_1..e_{k-1}; gcd of
    the tail coordinates being 1 guarantees the completion exists. Each
    replacement strictly shrinks Q(e_k), so the loop terminates; a hard
    cap turns any latent bug into ReductionCapError.
    """
    n = g.n
    _check_table_dim(n)
    require_positive_definite(g)
    struct = _scan_struct(n)
    a_t, den = g.scaled()
    a = [list(row) for row in a_t]
    t = [list(row) for row in identity_matrix(n)]
    fixes: list[Violation] = []
    cap = 10 * n * len(struct)

    while True:
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                if a[i + 1][i + 1] < a[i][i]:
                    _swap_basis_int(a, t, i)
                    changed = True
        hit = _first_violation_int(a, n, struct)
        if hit is None:
            break
        u, k, q = hit
        fixes.append(Violation(u, k, F(q, den), F(a[k][k], den)))
        if len(fixes) > cap:
            raise ReductionCapError(fixes)
        prefix = [tuple(1 if j == i else 0 for j in range(n)) for i in range(k)]
        c = complete_to_basis(prefix + [u], n)
        a = [list(row) for row in transform_gram_int(a, c)]
        t = [list(row) for row in mat_mul(t, c)]
        # keeps replacement completions from blowing up across fixes
        r = size_reduce_tail(a, k + 1)
        if r is not None:
            a = [list(row) for row in transform_gram_int(a, r)]
            t = [list(row) for row in mat_mul(t, r)]

    reduced = GramMatrix([[F(x, den) for x in row] for row in a])
    return ReductionReport(reduced, tuple(tuple(r) for r in t), len(fixes), tuple(fixes))


def greedy_minkowski_basis(g: GramMatrix) -> ReductionReport:
    """Build a reduced basis by n shortest primitive extensions.

    Works in any enumeration-feasible dimension (the worked 9-dimensional
    example included); the output passes the definitional check by
    construction of the greedy algorithm.
    """
    require_positive_definite(g)
    n = g.n
    _, minima = lattice_minimum(g)
    first = min((v for v, _ in minima.vectors), key=vector_key)
    chosen = [first]
    while len(chosen) < n:
        chosen.append(shortest_primitive_extension(g, chosen))
    t = tuple(tuple(chosen[j][i] for j in range(n)) for i in range(n))
    a, den = g.scaled()
    reduced_int = transform_gram_int(a, t)
    reduced = GramMatrix([[F(x, den) for x in row] for row in reduced_int])
    return ReductionReport(reduced, t, n, ())


def lll_reduce(g: GramMatrix, delta=F(3, 4)) -> ReductionReport:
    """Exact-rational LLL (integral Gram variant); preprocessing and
    comparison baseline. iterations counts swaps."""
    delta = Fraction(delta)
    if not (F(1, 4) < delta <= 1):
        raise ValueError(f"delta must satisfy 1/4 < delta <= 1, got {delta}")
    require_positive_definite(g)
    a, den = g.scaled()
    t, swaps, _ = lll_transform(a, delta)
    reduced_int = transform_gram_int(a, t)
    reduced = GramMatrix([[F(x, den) for x in row] for row in reduced_int])
    return ReductionReport(reduced, t, swaps, ())


def hermite_witness_search(g: GramMatrix, budget: int = 100_000) -> WitnessSearchResult:
    """Look for a basis whose sorted length profile beats the input's.

    Depth-first greedy over short vectors with primitivity checks: tie the
    input profile entry by entry, and the first position that can be
    strictly undercut yields a witness (any completion works). Finding a
    witness proves the input basis is not Hermite-reduced; exhausting the
    budget proves nothing.
    """
    require_positive_definite(g)
    n = g.n
    a, den = g.scaled()
    targets = sorted(a[i][i] for i in range(n))  # profile, scaled
    view = _reduced_view(g)
    raw = _enumerate_core(view.a_red, targets[-1], 1)
    cands = sorted(
        ((q, _map_back(view, coords)) for coords, q in raw),
        key=lambda e: (e[0],) + vector_key(e[1]),
    )
    if not cands or cands[0][0] >= targets[-1]:
        # nothing strictly shorter than the longest profile entry exists,
        # so no profile can beat this one
        return WitnessSearchResult(None, None, 0, budget)

    nodes = 0

    def primitive(rows):
        try:
            return is_primitive_system(rows)
        except DependentVectorsError:
            return False

    def dfs(prefix):
        nonlocal nodes
        level = len(prefix)
        if level == n:
            return None  # full profile tie, not a witness
        target = targets[level]
        for q, v in cands:
            if q >= target:
                break
            nodes += 1
            if nodes > budget:
                return "budget"
            if primitive(prefix + [v]):
                basis = complete_to_basis(prefix + [v], n)
                return basis
        for q, v in cands:
            if q != target:
                continue
            nodes += 1
            if nodes > budget:
                return "budget"
            if primitive(prefix + [v]):
                out = dfs(prefix + [v])
                if out is not None:
                    return out
        return None

    out = dfs([])
    if out is None or out == "budget":
        return WitnessSearchResult(None, None, min(nodes, budget), budget)
    cols = [tuple(out[i][j] for i in range(n)) for j in range(n)]
    profile = tuple(
        sorted(
            F(sum(cols[j][i] * a[i][k] * cols[j][k] for i in range(n) for k in range(n)), den)
            for j in range(n)
        )
    )
    return WitnessSearchResult(out, profile, nodes, budget)
