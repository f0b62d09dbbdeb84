"""One rule for integer-coordinate input and one for rational input, at
every entry point that takes them.

Integer coordinates: ints, integral Fractions and integral floats pass as
plain ints; any other entry raises InvalidInputError (NotUnimodularError,
a subclass, for apply_transform) naming the entry point and the position
(i,j). Rationals: ints and Fractions pass, floats only when integral; any
other entry raises InvalidInputError the same way. Every rejection of
outside input is a LatticeError.
"""

from fractions import Fraction as F

import pytest

from minkred.centering import centering_data, check_theorem_bound, classify_centering
from minkred.corpus import named_lattice
from minkred.enumeration import (
    complete_to_basis,
    enumerate_short_vectors,
    is_primitive_system,
)
from minkred.errors import (
    InvalidInputError,
    LatticeError,
    NotUnimodularError,
    UnsupportedDimensionError,
)
from minkred.exactlin import (
    GramMatrix,
    apply_transform,
    evaluate_form,
    gram_from_basis,
    int_determinant,
    int_matrix_rank,
)
from minkred.reduction import hermite_witness_search, is_minkowski_reduced_table
from minkred.tables import (
    centering_classes,
    dump_tables,
    max_theorem_bound,
    relevant_abs_patterns,
    tammela_reduction_candidates,
)
from minkred.voronoi import check_table4_membership

A2 = named_lattice("A2")

# entry point: (call on rows of coordinates, valid int rows)
ENTRIES = {
    "apply_transform": (lambda rows: apply_transform(A2, rows), [[1, 1], [0, 1]]),
    "evaluate_form": (lambda rows: evaluate_form(A2, rows[0]), [[2, -1]]),
    "centering_data": (centering_data, [[2, 1], [0, 3]]),
    "is_primitive_system": (is_primitive_system, [[1, 2], [0, 1]]),
    "complete_to_basis": (lambda rows: complete_to_basis(rows, 2), [[3, 2]]),
    "int_determinant": (int_determinant, [[2, 1], [1, 3]]),
    "int_matrix_rank": (int_matrix_rank, [[1, 2], [3, 4]]),
}


@pytest.mark.parametrize("bad", [F(3, 2), 2.5, "1", None, float("nan")], ids=repr)
@pytest.mark.parametrize("name", ENTRIES)
def test_non_integer_entry_is_rejected_by_name_and_position(name, bad):
    call, rows = ENTRIES[name]
    rows = [list(row) for row in rows]
    i, j = len(rows) - 1, 1
    rows[i][j] = bad
    error = NotUnimodularError if name == "apply_transform" else InvalidInputError
    with pytest.raises(error, match=rf"^{name}: entry \({i},{j}\)"):
        call(rows)


@pytest.mark.parametrize("kind", [F, float])
@pytest.mark.parametrize("name", ENTRIES)
def test_integral_fractions_and_floats_pass_as_ints(name, kind):
    call, rows = ENTRIES[name]
    # repr tells a plain int from an integral Fraction or float in the result
    assert repr(call([[kind(x) for x in row] for row in rows])) == repr(call(rows))


@pytest.mark.parametrize("name, call", [
    ("centering_data", lambda: centering_data([[2.5, 0], [0, 1]])),
    ("is_primitive_system", lambda: is_primitive_system([[1.5, 0]])),
    ("complete_to_basis", lambda: complete_to_basis([[F(1, 2), 1]], 2)),
    ("evaluate_form", lambda: evaluate_form(A2, [F(1, 2), 1])),
    ("int_determinant", lambda: int_determinant([[1.5]])),
    ("int_matrix_rank", lambda: int_matrix_rank([[0.5, 0], [0, 1]])),
])
def test_formerly_truncated_inputs_raise(name, call):
    with pytest.raises(InvalidInputError, match=rf"^{name}: entry \(0,0\)"):
        call()


# entry point: (call on rows of rationals, valid rows of ints and Fractions)
RATIONAL_ENTRIES = {
    "GramMatrix": (GramMatrix, [[2, F(1, 2)], [F(1, 2), 3]]),
    "gram_from_basis": (gram_from_basis, [[1, F(1, 3)], [0, 2], [F(1, 2), 1]]),
    "enumerate_short_vectors": (lambda rows: enumerate_short_vectors(A2, rows[0][0]), [[3]]),
}


@pytest.mark.parametrize(
    "bad", [0.1, 2.5, "a", "1/2", None, float("nan"), float("inf")], ids=repr
)
@pytest.mark.parametrize("name", RATIONAL_ENTRIES)
def test_non_rational_entry_is_rejected_by_name_and_position(name, bad):
    call, rows = RATIONAL_ENTRIES[name]
    rows = [list(row) for row in rows]
    i, j = len(rows) - 1, len(rows[-1]) - 1
    rows[i][j] = bad
    with pytest.raises(InvalidInputError, match=rf"^{name}: entry \({i},{j}\)"):
        call(rows)


@pytest.mark.parametrize("kind", [F, float])
@pytest.mark.parametrize("name", RATIONAL_ENTRIES)
def test_fractions_and_integral_floats_pass(name, kind):
    call, rows = RATIONAL_ENTRIES[name]
    converted = [[kind(x) if x == int(x) else x for x in row] for row in rows]
    assert call(converted) == call(rows)


@pytest.mark.parametrize("name, call", [
    ("GramMatrix", lambda: GramMatrix([[0.1]])),
    ("GramMatrix", lambda: GramMatrix([["a"]])),
    ("enumerate_short_vectors", lambda: enumerate_short_vectors(A2, "x")),
    ("enumerate_short_vectors", lambda: enumerate_short_vectors(A2, None)),
    # integer inputs that escaped the rule the same way
    ("hermite_witness_search", lambda: hermite_witness_search(A2, "x")),
    ("hermite_witness_search", lambda: hermite_witness_search(A2, None)),
    ("hermite_witness_search", lambda: hermite_witness_search(A2, 1.5)),
])
def test_formerly_escaping_rationals_raise(name, call):
    with pytest.raises(InvalidInputError, match=rf"^{name}: entry \(0,0\)"):
        call()


@pytest.mark.parametrize("name, call", [
    ("enumerate_short_vectors", lambda: enumerate_short_vectors(A2, 0)),
    ("hermite_witness_search", lambda: hermite_witness_search(A2, -1)),
])
def test_domain_errors_are_lattice_errors(name, call):
    with pytest.raises(LatticeError, match=rf"^{name}: ") as info:
        call()
    assert isinstance(info.value, InvalidInputError) and isinstance(info.value, ValueError)


def test_integral_budget_passes_as_int():
    g = named_lattice("D4")
    assert repr(hermite_witness_search(g, 2000.0)) == repr(hermite_witness_search(g, 2000))


# the table dimension of every table entry point: n -> its result
TABLE_ENTRIES = {
    "tammela_reduction_candidates": tammela_reduction_candidates,
    "relevant_abs_patterns": relevant_abs_patterns,
    "centering_classes": centering_classes,
    "max_theorem_bound": max_theorem_bound,
    "dump_tables": dump_tables,
}


@pytest.mark.parametrize("bad", [3.5, F(7, 2), "3", None, [3]], ids=repr)
@pytest.mark.parametrize("name", TABLE_ENTRIES)
def test_table_dimension_follows_the_integer_rule(name, bad):
    with pytest.raises(InvalidInputError, match=rf"^{name}: entry \(0,0\)"):
        TABLE_ENTRIES[name](bad)


@pytest.mark.parametrize("kind", [F, float])
@pytest.mark.parametrize("name", TABLE_ENTRIES)
def test_integral_table_dimension_passes(name, kind):
    assert TABLE_ENTRIES[name](kind(3)) == TABLE_ENTRIES[name](3)


@pytest.mark.parametrize("n", [1, 7, 7.0])
@pytest.mark.parametrize("name", TABLE_ENTRIES)
def test_table_dimension_out_of_range(name, n):
    with pytest.raises(UnsupportedDimensionError, match=rf"^{name}: tables cover dimensions 2\.\.6"):
        TABLE_ENTRIES[name](n)


@pytest.mark.parametrize("n", [1, 7])
def test_centering_dimension_out_of_range(n):
    # classify_centering gates the data's dimension itself and names itself
    data = centering_data([[(3 if i == j == 0 else int(i == j)) for j in range(n)] for i in range(n)])
    with pytest.raises(UnsupportedDimensionError, match=rf"^classify_centering: tables cover dimensions 2\.\.6, got {n}$"):
        classify_centering(data)


FORM_TABLE_ENTRIES = {
    "is_minkowski_reduced_table": is_minkowski_reduced_table,
    "check_theorem_bound": check_theorem_bound,
    "check_table4_membership": check_table4_membership,
}


@pytest.mark.parametrize("name", ["Z1", "E7"])
@pytest.mark.parametrize("entry", FORM_TABLE_ENTRIES)
def test_form_dimension_out_of_range_names_its_entry(entry, name):
    with pytest.raises(UnsupportedDimensionError, match=rf"^{entry}: tables cover dimensions 2\.\.6"):
        FORM_TABLE_ENTRIES[entry](named_lattice(name))


@pytest.mark.parametrize("name", [3, ["Z2"], None], ids=repr)
def test_lattice_name_that_is_not_a_str_is_rejected(name):
    # checked before the registry's cache, which an unhashable name would escape
    with pytest.raises(InvalidInputError, match=r"^named_lattice: "):
        named_lattice(name)


def test_unknown_lattice_name_is_a_key_error():
    # names are looked up exactly: no second spelling of a registry name
    # (leading zeros, non-ASCII digits) builds a second GramMatrix
    for name in ("Z10", "Z01", "A002", "D05", "Z\u0663"):
        with pytest.raises(KeyError):
            named_lattice(name)
