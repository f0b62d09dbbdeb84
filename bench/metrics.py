"""Metric definitions and the per-layer metrics computed from a traced run.

Every per-layer metric is per traced form. ``*_calls``, ``*_checks`` and
the other counts come from calls and return values and repeat exactly for
a seed. ``*_self_ms`` is self time (span minus child spans); every other
``*_ms`` is the inclusive time of outermost calls, so an entry point's time
contains the layers it calls. ``<name>.d<n>`` restricts an entry-point time
to the forms of dimension n.
"""

from __future__ import annotations

from collections import defaultdict

from minkred.tables import MAX_TABLE_DIM, MIN_TABLE_DIM, tammela_reduction_candidates
from tracing import Span, self_times

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("forms_per_s", "1/s", "higher"),
    ("form_ms_p50", "ms", "lower"),
    ("form_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# (metric, traced function, what is read from its spans)
CALLS, SELF, INCL, VALUE = "calls", "self", "incl", "value"
_LAYER = (
    ("lll.calls", "_lll.lll_transform", CALLS),
    ("lll.self_ms", "_lll.lll_transform", SELF),
    ("lll.swaps", "_lll.lll_transform", VALUE),
    ("enumeration.view_builds", "enumeration._reduced_view", CALLS),
    ("enumeration.fp_calls", "enumeration._enumerate_core", CALLS),
    ("enumeration.fp_leaves", "enumeration._enumerate_core", VALUE),
    ("enumeration.fp_self_ms", "enumeration._enumerate_core", SELF),
    ("enumeration.coset_calls", "enumeration.coset_minima", CALLS),
    ("enumeration.coset_ms", "enumeration.coset_minima", INCL),
    ("enumeration.completion_calls", "enumeration.complete_to_basis", CALLS),
    ("enumeration.completion_ms", "enumeration.complete_to_basis", INCL),
    ("enumeration.primitive_checks", "enumeration.is_primitive_system", CALLS),
    ("enumeration.extension_ms", "enumeration.shortest_primitive_extension", INCL),
    ("enumeration.minimum_ms", "enumeration.lattice_minimum", INCL),
    ("exactlin.snf_calls", "exactlin.smith_normal_form", CALLS),
    ("exactlin.snf_self_ms", "exactlin.smith_normal_form", SELF),
    ("exactlin.inverse_calls", "exactlin.int_matrix_inverse", CALLS),
    ("exactlin.inverse_self_ms", "exactlin.int_matrix_inverse", SELF),
    ("exactlin.rank_calls", "exactlin.int_matrix_rank", CALLS),
    ("reduction.reduce_ms", "reduction.minkowski_reduce", INCL),
    ("reduction.table_check_ms", "reduction.is_minkowski_reduced_table", INCL),
    ("reduction.definitional_ms", "reduction.is_minkowski_reduced_definitional", INCL),
    ("reduction.greedy_ms", "reduction.greedy_minkowski_basis", INCL),
    ("voronoi.relevant_ms", "voronoi.relevant_vectors", INCL),
    ("voronoi.relevant_pairs", "voronoi.relevant_vectors", VALUE),
    ("centering.bound_ms", "centering.check_theorem_bound", INCL),
)

# Entry-point times split by the dimensions some workload runs them on.
BY_DIM = (
    ("reduction.reduce_ms", range(2, 7)),
    ("reduction.table_check_ms", range(2, 7)),
    ("reduction.definitional_ms", range(2, 10)),
    ("reduction.greedy_ms", range(7, 10)),
    ("voronoi.relevant_ms", range(4, 7)),
    ("enumeration.minimum_ms", range(2, 10)),
    ("centering.bound_ms", range(2, 7)),
)


def _unit(name):
    return "ms/form" if name.endswith("_ms") or "_ms." in name else "count/form"


def per_layer_definitions():
    """(name, unit, better) of every per-layer metric, in report order."""
    defs = [(name, _unit(name), "higher" if name == "voronoi.relevant_pairs" else "lower")
            for name, _, _ in _LAYER]
    defs += [
        ("enumeration.coset_useful_ratio", "ratio", "higher"),
        ("enumeration.primitive_accept_ratio", "ratio", "higher"),
        ("exactlin.transform_calls", "count/form", "lower"),
        ("reduction.fixes", "count/form", "lower"),
        ("reduction.scan_candidates", "count/form", "lower"),
        ("tables.build_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    defs += [(f"{name}.d{n}", "ms/form", "lower") for name, dims in BY_DIM for n in dims]
    return defs


def value_extractors():
    """Exact counts read from return values, for the tracer.

    A table scan that returns a violation examined the candidates of
    ``tammela_reduction_candidates(n)`` up to and including the violating
    one (none, when the violation is of the monotonicity Q(e_i) <= Q(e_i+1),
    whose vector is no candidate); a scan that returns True examined the
    whole table. The positions are looked up here, before any tracing.
    """
    positions = {
        n: {c.coords: i for i, c in enumerate(tammela_reduction_candidates(n))}
        for n in range(MIN_TABLE_DIM, MAX_TABLE_DIM + 1)
    }

    def scanned(n, vector):
        return positions[n].get(vector, -1) + 1

    def table(args, result):
        n = args[0].n
        return len(positions[n]) if result is True else scanned(n, result.vector)

    def reduce(args, result):
        n = args[0].n
        fixes = result.violations_fixed
        return len(fixes), sum(scanned(n, v.vector) for v in fixes) + len(positions[n])

    return {
        "_lll.lll_transform": lambda args, result: result[1],
        "enumeration._enumerate_core": lambda args, result: len(result),
        "enumeration.is_primitive_system": lambda args, result: int(result),
        "voronoi.relevant_vectors": lambda args, result: len(result.vectors),
        "reduction.is_minkowski_reduced_table": table,
        "reduction.minkowski_reduce": reduce,
    }


def layer_metrics(names, spans, form_dims, form_scale, tables_build_s, overhead_ratio):
    """Per-layer metrics of a traced run.

    ``form_dims[i]`` is the dimension of the form with trace id i; every
    trace id is one pipeline execution. ``form_scale[i]`` turns that form's
    wall times into reference times (see hostspeed.py).
    """
    forms = len(form_dims)
    per_dim_forms = defaultdict(int)
    for n in form_dims:
        per_dim_forms[n] += 1
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    incl_dim_ns = defaultdict(int)
    values = defaultdict(list)
    for span, own in zip(spans, self_times(spans)):
        name = names[span[Span.NAME]]
        scale = form_scale[span[Span.FORM]]
        calls[name] += 1
        self_ns[name] += own * scale
        if span[Span.OUTER]:
            dur = (span[Span.END] - span[Span.START]) * scale
            incl_ns[name] += dur
            incl_dim_ns[name, form_dims[span[Span.FORM]]] += dur
        if span[Span.VALUE] is not None:
            values[name].append(span[Span.VALUE])

    read = {
        CALLS: lambda f: calls[f] / forms,
        SELF: lambda f: self_ns[f] / 1e6 / forms,
        INCL: lambda f: incl_ns[f] / 1e6 / forms,
        VALUE: lambda f: sum(values[f]) / forms,
    }
    out = {name: read[kind](func) for name, func, kind in _LAYER}

    coset_calls = calls["enumeration.coset_minima"]
    checks = calls["enumeration.is_primitive_system"]
    reduce_values = values["reduction.minkowski_reduce"]
    out["enumeration.coset_useful_ratio"] = (
        sum(values["voronoi.relevant_vectors"]) / coset_calls if coset_calls else 0.0
    )
    out["enumeration.primitive_accept_ratio"] = (
        sum(values["enumeration.is_primitive_system"]) / checks if checks else 0.0
    )
    out["exactlin.transform_calls"] = (
        calls["exactlin.transform_gram_int"] + calls["exactlin.apply_transform"]
    ) / forms
    out["reduction.fixes"] = sum(v[0] for v in reduce_values) / forms
    out["reduction.scan_candidates"] = (
        sum(v[1] for v in reduce_values) + sum(values["reduction.is_minkowski_reduced_table"])
    ) / forms
    out["tables.build_s"] = tables_build_s
    out["trace.overhead_ratio"] = overhead_ratio

    func_of = {name: func for name, func, _ in _LAYER}
    for name, dims in BY_DIM:
        for n in dims:
            count = per_dim_forms[n]
            ns = incl_dim_ns[func_of[name], n]
            out[f"{name}.d{n}"] = ns / 1e6 / count if count else 0.0
    return out
