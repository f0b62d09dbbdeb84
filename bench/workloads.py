"""Seeded inputs, pipelines and untimed correctness checks of the three
benchmark workloads.

A *form* is one input Gram matrix pushed through its workload's pipeline.
Every form of a run is built from ``--seed`` before any timing starts.
Forms come in *rounds*: a round has a fixed composition of slots
(dimension and kind), shuffled by the seed, so any whole number of rounds
has exactly the dimension mix the workload names and two seeds differ only
in the forms' content. The timed loop always stops on a round boundary.

"Generic" means ``A^T A + I`` with a random integer square A. The tests'
``T^T diag(d) T`` construction is avoided on purpose: it is always
isometric to Z^n, so it reduces to a diagonal form with only 2n relevant
vectors and would make every workload look cheap.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from typing import NamedTuple

from minkred import centering, enumeration, reduction, voronoi
from minkred.corpus import named_lattice
from minkred.exactlin import GramMatrix

# Root lattices by dimension, for the skewed slots of reduce and voronoi.
ROOTS = {
    2: ("A2", "Z2"),
    3: ("A3", "D3", "Z3"),
    4: ("A4", "D4", "D4-centered-cubic", "Z4"),
    5: ("A5", "D5", "Z5"),
    6: ("A6", "D6", "E6", "Z6"),
}

# Signed counts of Voronoi-relevant vectors of the root lattices: A_n has
# n(n+1), D_n has 2n(n-1), Z_n has 2n; E6 has 72, and D4-centered-cubic is
# D4 up to scale.
def known_relevant_count(name):
    n = int(name[1:]) if name[1:].isdigit() else None
    if name.startswith("A"):
        return n * (n + 1)
    if name.startswith("D") and n is not None:
        return 2 * n * (n - 1)
    if name.startswith("Z"):
        return 2 * n
    return {"E6": 72, "D4-centered-cubic": 24}[name]


# One round per workload: (dimension, kind) slots. A kind is "generic",
# "skew" (a root lattice of that dimension, picked by the seed, under a
# random unimodular transform) or the name of the lattice to skew.
# Dimension weights (share of forms):
#   reduce  2..6: 10/10/15/35/30 %, a quarter of them skewed root lattices,
#           so the latency median falls among dim-5 forms and p90 among
#           dim-6 forms;
#   voronoi 4..6: 30/35/35 %, with two skewed root lattices per dimension;
#   highdim 7..9: 27/36/36 %, generic dims 7..9 plus example9,
#           example9-mnh and Z9, each skewed, so the median falls among
#           dim-8 forms and p90 among dim-9 forms.
def _slots(spec):
    return tuple((n, kind) for n, kind, count in spec for _ in range(count))


ROUNDS = {
    "reduce": _slots([
        (2, "generic", 1), (2, "skew", 1),
        (3, "generic", 1), (3, "skew", 1),
        (4, "generic", 2), (4, "skew", 1),
        (5, "generic", 6), (5, "skew", 1),
        (6, "generic", 5), (6, "skew", 1),
    ]),
    "voronoi": _slots([
        (4, "generic", 4), (4, "skew", 2),
        (5, "generic", 5), (5, "skew", 2),
        (6, "generic", 5), (6, "skew", 2),
    ]),
    "highdim": _slots([
        (7, "generic", 3), (8, "generic", 4), (9, "generic", 1),
        (9, "example9", 1), (9, "example9-mnh", 1), (9, "Z9", 1),
    ]),
}

# Rounds built per run, whatever --seconds is: two to three times what the
# first measured version of the library gets through in 25 s, so a faster
# program still sees distinct forms. The pool wraps around beyond that.
POOL_ROUNDS = {"reduce": 300, "voronoi": 80, "highdim": 60}

# Generic entry range per workload, and skew strength: elementary column
# operations per dimension, each with a multiplier of absolute value at
# most 3. highdim takes 2n operations, not 3n: at 3n, 7 of 240 dim-9
# skewed forms sent greedy_minkowski_basis into a coefficient explosion in
# smith_normal_form for over 3 s each, and one ran for over 8 minutes,
# longer than a whole run may take. At 2n, none of 1800 took over 2 s.
GENERIC_RANGE = {"reduce": 50, "voronoi": 50, "highdim": 10}
SKEW_STEPS = {"reduce": 3, "voronoi": 3, "highdim": 2}
SKEW_COEFF = 3


class Form(NamedTuple):
    """One input form. The Gram matrix is kept as text ("p" or "p/q"
    entries, "," between entries, ";" between rows), so the pool of
    inputs adds little to the process's memory."""

    label: str                         # lattice name, or "generic"
    n: int
    text: str

    @classmethod
    def of(cls, label, rows):
        return cls(label, len(rows), ";".join(",".join(map(str, row)) for row in rows))

    @property
    def rows(self):
        return tuple(
            tuple(Fraction(x) if "/" in x else int(x) for x in row.split(","))
            for row in self.text.split(";")
        )

    def key(self):
        """Short hash naming this form, for the list of known failures."""
        return hashlib.sha256(f"{self.label}:{self.text}".encode()).hexdigest()[:16]


def _rng(seed, workload, round_index):
    digest = hashlib.sha256(f"{workload}:{seed}:{round_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _generic(rng, n, span):
    a = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
    return tuple(
        tuple(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j) for j in range(n))
        for i in range(n)
    )


def random_unimodular(rng, n, steps):
    """Random unimodular matrix: a signed permutation followed by
    ``steps * n`` column operations col_i += c * col_j, 0 < |c| <= SKEW_COEFF."""
    perm = list(range(n))
    rng.shuffle(perm)
    t = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        t[i][j] = rng.choice((1, -1))
    for _ in range(steps * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([x for x in range(-SKEW_COEFF, SKEW_COEFF + 1) if x])
        for r in range(n):
            t[r][i] += c * t[r][j]
    return t


def _skew(rng, name, steps):
    g = named_lattice(name).rows
    n = len(g)
    t = random_unimodular(rng, n, steps)
    gt = [[sum(g[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return tuple(
        tuple(sum(t[k][i] * gt[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def make_round(workload, seed, round_index):
    """The forms of one round, in a seed-shuffled order."""
    rng = _rng(seed, workload, round_index)
    forms = []
    for n, kind in ROUNDS[workload]:
        if kind == "generic":
            forms.append(Form.of("generic", _generic(rng, n, GENERIC_RANGE[workload])))
        else:
            name = rng.choice(ROOTS[n]) if kind == "skew" else kind
            forms.append(Form.of(name, _skew(rng, name, SKEW_STEPS[workload])))
    rng.shuffle(forms)
    return forms


def make_inputs(workload, seed, rounds):
    """``rounds`` rounds of forms, all built before any timing starts."""
    return [make_round(workload, seed, r) for r in range(rounds)]


def digest(rounds):
    """Short hash of a run's inputs, so two runs can be shown to use the
    same forms."""
    h = hashlib.sha256()
    for forms in rounds:
        for form in forms:
            h.update(f"{form.label}:{form.text}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# pipelines: module attributes are looked up at call time, so a traced run
# goes through the same wrappers the library's own cross-module calls do


def run_reduce(g):
    rep = reduction.minkowski_reduce(g)
    table = reduction.is_minkowski_reduced_table(rep.reduced)
    definitional = reduction.is_minkowski_reduced_definitional(rep.reduced)
    bound = centering.check_theorem_bound(rep.reduced)
    return rep, table, definitional, bound


def run_voronoi(g):
    rep = reduction.minkowski_reduce(g)
    return rep, voronoi.check_table4_membership(rep.reduced)


def run_highdim(g):
    lam, minima = enumeration.lattice_minimum(g)
    rep = reduction.greedy_minkowski_basis(g)
    definitional = reduction.is_minkowski_reduced_definitional(rep.reduced)
    return lam, minima, rep, definitional


PIPELINES = {"reduce": run_reduce, "voronoi": run_voronoi, "highdim": run_highdim}


# ---------------------------------------------------------------------------
# untimed checks, with arithmetic of their own rather than the library's


def _congruent(g_rows, t, h_rows):
    """h == T^T G T."""
    n = len(t)
    gt = [[sum(g_rows[i][k] * t[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return all(
        sum(t[k][i] * gt[k][j] for k in range(n)) == h_rows[i][j]
        for i in range(n)
        for j in range(n)
    )


def _det(m):
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def _basis_change_ok(form, rep):
    return abs(_det(rep.transform)) == 1 and _congruent(form.rows, rep.transform, rep.reduced.rows)


def check(workload, form, result):
    """Empty string when the result is right, else what is wrong."""
    if workload == "reduce":
        rep, table, definitional, bound = result
        if not _basis_change_ok(form, rep):
            return "reduced form is not T^T G T with |det T| = 1"
        if table is not True or definitional is not True:
            return f"verdicts table={table!r} definitional={definitional!r}"
        if bound.counterexamples:
            return f"coordinate-bound counterexamples {bound.counterexamples}"
        return ""
    if workload == "voronoi":
        rep, report = result
        n = form.n
        if not _basis_change_ok(form, rep):
            return "reduced form is not T^T G T with |det T| = 1"
        if not report.all_match:
            return f"relevant vectors outside table 4: {report.mismatches}"
        signed = 2 * report.checked  # pairs +-v, so even by construction
        if not 2 * n <= signed <= 2 * (2**n - 1):
            return f"signed relevant count {signed} out of range"
        if form.label != "generic" and signed != known_relevant_count(form.label):
            return f"{form.label}: {signed} relevant vectors, expected {known_relevant_count(form.label)}"
        return ""
    lam, _minima, rep, definitional = result
    if definitional is not True:
        return f"greedy output fails the definitional check: {definitional!r}"
    if rep.reduced.rows[0][0] != lam:
        return f"first diagonal {rep.reduced.rows[0][0]} != lambda^2 {lam}"
    if _det(rep.reduced.rows) != _det(form.rows):
        return "determinant not preserved"
    if not _basis_change_ok(form, rep):
        return "greedy form is not T^T G T with |det T| = 1"
    return ""


def result_key(result):
    """Hashable fingerprint of a pipeline result, for comparing runs."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


def fresh(form):
    """A new GramMatrix per form and pass, so no per-object cache survives
    from one timed form to the next."""
    return GramMatrix(form.rows)
