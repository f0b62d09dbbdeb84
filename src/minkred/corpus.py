"""Fixture lattices, a text file format for lattices, and JSON reports.

The 9-dimensional worked example lives here: the 12x9 embedded basis, its
Gram matrix, and the Minkowski-reduced-but-not-Hermite-reduced companion
obtained by swapping in the two starred vectors. No CLI reads the file
format yet: pyproject.toml names minkred.cli, which does not exist.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import lru_cache
from hashlib import sha256

from .errors import ParseError
from .exactlin import EmbeddedBasis, GramMatrix, apply_transform, gram_from_basis

F = Fraction

# Columns e1..e9 in an orthonormal frame of R^12. Column 8 and 9 carry the
# fractional entries; every column has squared length exactly 1.
_H = F(1, 2)
_T = F(1, 3)
_EXAMPLE9_MATRIX = (
    (_H, 0, 0, 0, 0, 0, 0, _H, 0),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (_H, 0, 0, 0, 0, 0, 0, 0, _T),
    (0, 1, 0, 0, 0, 0, 0, _H, 0),
    (0, 0, 1, 0, 0, 0, 0, _H, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, _T),
    (0, 0, 0, 0, 1, 0, 0, 0, _T),
    (0, 0, 0, 0, 0, 1, 0, 0, _T),
    (0, 0, 0, 0, 0, 0, 1, 0, _T),
    (0, 0, 0, 0, 0, 0, 0, 0, _T),
    (0, 0, 0, 0, 0, 0, 0, -_H, _T),
)

# Coordinates w.r.t. {e1..e9} of the two starred vectors: the unit vector
# completing {e1..e7} to a primitive system, and the shortest ninth vector
# (squared length 7/6) completing that system to a basis.
E8_STAR_COORDS = (-2, -1, -1, -1, -1, -1, -1, 2, 3)
E9_STAR_COORDS = (-1, 0, 0, 0, 0, 0, 0, 1, 1)


@lru_cache(maxsize=None)
def example9_embedded() -> EmbeddedBasis:
    """The 12x9 rational basis matrix of the 9-dimensional example."""
    return EmbeddedBasis(_EXAMPLE9_MATRIX)


@lru_cache(maxsize=None)
def example9_gram() -> GramMatrix:
    """Gram matrix of the embedded example basis (exact E^T E)."""
    return gram_from_basis(example9_embedded())


@lru_cache(maxsize=None)
def example9_star_transform():
    """Columns {e1,...,e7, e8*, e9*} as a unimodular transform."""
    cols = [tuple(1 if i == j else 0 for i in range(9)) for j in range(7)]
    cols.append(E8_STAR_COORDS)
    cols.append(E9_STAR_COORDS)
    return tuple(tuple(cols[j][i] for j in range(9)) for i in range(9))


@lru_cache(maxsize=None)
def example9_reduced_not_hermite() -> GramMatrix:
    """Gram of {e1..e7, e8*, e9*}: Minkowski-reduced but not Hermite-reduced."""
    return apply_transform(example9_gram(), example9_star_transform())


def _a_gram(n):
    return [[2 if i == j else 1 for j in range(n)] for i in range(n)]


def _d_basis(n):
    # columns: e_i - e_{i+1} for i < n, plus e_{n-1} + e_n
    cols = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        cols.append(v)
    v = [0] * n
    v[n - 2], v[n - 1] = 1, 1
    cols.append(v)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


_E6_GRAM = (
    (2, -1, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0),
    (0, -1, 2, -1, 0, -1),
    (0, 0, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, 0),
    (0, 0, -1, 0, 0, 2),
)

_D4_CENTERED_CUBIC = (
    (1, 0, 0, _H),
    (0, 1, 0, _H),
    (0, 0, 1, _H),
    (_H, _H, _H, 1),
)


@lru_cache(maxsize=None)
def named_lattice(name: str) -> GramMatrix:
    """Gram matrix of a named test lattice.

    Registry: Z2..Z9, A2..A6, D3..D6, E6, D4-centered-cubic, example9,
    example9-mnh.
    """
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if 1 <= n <= 9:
            return GramMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    if name.startswith("A") and name[1:].isdigit():
        n = int(name[1:])
        if 2 <= n <= 6:
            return GramMatrix(_a_gram(n))
    if name.startswith("D") and name[1:].isdigit():
        n = int(name[1:])
        if 3 <= n <= 6:
            return gram_from_basis(EmbeddedBasis(_d_basis(n)))
    if name == "E6":
        return GramMatrix(_E6_GRAM)
    if name == "D4-centered-cubic":
        return GramMatrix(_D4_CENTERED_CUBIC)
    if name == "example9":
        return example9_gram()
    if name == "example9-mnh":
        return example9_reduced_not_hermite()
    raise KeyError(f"unknown lattice name {name!r}")


# ---------------------------------------------------------------------------
# lattice files
#
# Grammar: '#' starts a comment (to end of line), blank lines are skipped.
# First token line is either "gram n" or "basis d n"; the following
# whitespace-separated entries (n*n or d*n of them, row-major) are integers
# or "p/q" rationals. Round-trips are bit exact.

def _parse_rational(tok: str) -> Fraction:
    try:
        if "/" in tok:
            p, q = tok.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational token {tok!r}") from exc


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def loads_lattice(text: str):
    """Parse a lattice file body into a GramMatrix or EmbeddedBasis."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens:
        raise ParseError("empty lattice file")
    kind = tokens[0]
    if kind == "gram":
        if len(tokens) < 2:
            raise ParseError("gram header needs a dimension")
        try:
            n = int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"bad dimension {tokens[1]!r}") from exc
        body = tokens[2:]
        if n < 1 or len(body) != n * n:
            raise ParseError(f"expected {n * n} entries for gram {n}, got {len(body)}")
        vals = [_parse_rational(t) for t in body]
        rows = [vals[i * n : (i + 1) * n] for i in range(n)]
        return GramMatrix(rows)
    if kind == "basis":
        if len(tokens) < 3:
            raise ParseError("basis header needs ambient dim and rank")
        try:
            d, n = int(tokens[1]), int(tokens[2])
        except ValueError as exc:
            raise ParseError("bad basis header dims") from exc
        body = tokens[3:]
        if d < 1 or n < 1 or len(body) != d * n:
            raise ParseError(f"expected {d * n} entries for basis {d} {n}, got {len(body)}")
        vals = [_parse_rational(t) for t in body]
        rows = [vals[i * n : (i + 1) * n] for i in range(d)]
        return EmbeddedBasis(rows)
    raise ParseError(f"unknown lattice kind {kind!r}")


def dumps_lattice(obj) -> str:
    """Serialize a GramMatrix or EmbeddedBasis in canonical form."""
    out = io.StringIO()
    if isinstance(obj, GramMatrix):
        out.write(f"gram {obj.n}\n")
        rows = obj.rows
    elif isinstance(obj, EmbeddedBasis):
        out.write(f"basis {obj.ambient_dim} {obj.rank}\n")
        rows = obj.matrix
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    for row in rows:
        out.write(" ".join(format_rational(x) for x in row) + "\n")
    return out.getvalue()


def read_lattice_file(path):
    with open(path, "r", encoding="utf-8") as f:
        return loads_lattice(f.read())


def write_lattice_file(path, obj):
    with open(path, "w", encoding="utf-8") as f:
        f.write(dumps_lattice(obj))


def lattice_hash(obj) -> str:
    """sha256 of the canonical serialization (formatting-insensitive)."""
    return sha256(dumps_lattice(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# JSON reports

def _jsonify(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, GramMatrix):
        return [[_jsonify(x) for x in row] for row in value.rows]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def render_report(command: str, input_hash, results, violations=None, timings=None) -> str:
    """Stable JSON report. Rationals are serialized as "p/q" strings;
    timings are included only when explicitly passed (reports are expected
    to be byte-identical across reruns otherwise)."""
    doc = {
        "command": command,
        "input_hash": input_hash,
        "results": _jsonify(results),
        "violations": _jsonify(violations if violations is not None else []),
    }
    if timings is not None:
        doc["timings"] = timings
    return json.dumps(doc, indent=2, sort_keys=True)
