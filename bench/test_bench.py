"""Tests of the benchmark itself: exact counts, traced == untraced results,
clean removal of the tracer's wrappers, BENCHMARK.json in step with the
metrics the benchmark prints, failed forms gating ``correct``, and the
host-speed scaling of form times.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

WORKLOADS = sorted(W.PIPELINES)


def _traced_pass(workload, forms):
    tracer = tracing.Tracer(metrics.value_extractors())
    keys = []
    with tracer:
        for i, form in enumerate(forms):
            tracer.form = i
            keys.append(W.result_key(W.PIPELINES[workload](W.fresh(form))))
    values = metrics.layer_metrics(
        tracer.names, tracer.spans, [f.n for f in forms], [1.0] * len(forms), 0.0, 1.0)
    return keys, values


def _counts(values):
    units = {name: unit for name, unit, _ in metrics.per_layer_definitions()}
    return {k: v for k, v in values.items() if units[k] in ("count/form", "ratio")
            and k != "trace.overhead_ratio"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_tracing_changes_no_result(workload):
    forms = W.make_round(workload, 7, 0)
    untraced = [W.result_key(W.PIPELINES[workload](W.fresh(f))) for f in forms]
    keys1, values1 = _traced_pass(workload, forms)
    keys2, values2 = _traced_pass(workload, forms)
    assert keys1 == keys2 == untraced
    assert _counts(values1) == _counts(values2)
    assert values1["lll.calls"] > 0
    assert values1["reduction.scan_candidates" if workload != "highdim"
                   else "enumeration.primitive_checks"] > 0


def test_wrappers_are_removed():
    before = [(mod, dict(vars(mod))) for mod in tracing.modules()]
    tracer = tracing.Tracer()
    with tracer:
        assert tracer._patches
        W.run_reduce(W.fresh(W.make_round("reduce", 1, 0)[0]))
    for mod, names in before:
        after = vars(mod)
        assert all(after[name] is obj for name, obj in names.items()), mod.__name__


def test_rebinds_every_namespace():
    from minkred import enumeration, reduction

    with tracing.Tracer():
        for name in ("complete_to_basis", "_enumerate_core", "_reduced_view", "lll_transform"):
            assert hasattr(getattr(reduction, name), "__wrapped__"), name
        assert getattr(enumeration, "_reduced_view") is getattr(reduction, "_reduced_view")


def test_inputs_follow_the_seed():
    assert W.digest(W.make_inputs("voronoi", 3, 2)) == W.digest(W.make_inputs("voronoi", 3, 2))
    assert W.digest(W.make_inputs("voronoi", 3, 2)) != W.digest(W.make_inputs("voronoi", 4, 2))
    for workload, slots in W.ROUNDS.items():
        forms = W.make_round(workload, 5, 0)
        assert sorted(f.n for f in forms) == sorted(n for n, _ in slots)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        metrics.per_layer_definitions())
    assert sorted(w["name"] for w in spec["workloads"]) == WORKLOADS


def test_only_a_listed_raise_keeps_a_run_correct(monkeypatch):
    import run
    from minkred.errors import ReductionCapError

    listed = json.loads((BENCH / "known_failures.json").read_text())["forms"][0]
    form = next(f for f in W.make_round(listed["workload"], listed["seed"], listed["round"])
                if f.key() == listed["key"])
    known = {(listed["workload"], listed["key"]): listed["error"]}
    out = run.execute(listed["workload"], form, known)
    assert out.failure and out.known
    assert run.report({}, (), 1, [out])["correct"]

    other = W.make_round("reduce", 1, 0)[0]

    def raises(g):
        raise ReductionCapError([])

    monkeypatch.setitem(W.PIPELINES, "reduce", raises)
    out = run.execute("reduce", other, known)
    assert out.failure and not out.known
    assert not run.report({}, (), 1, [out])["correct"]


def test_a_runaway_form_is_stopped(monkeypatch):
    import run

    monkeypatch.setattr(run, "FORM_CAP_S", 0.05)
    monkeypatch.setitem(W.PIPELINES, "reduce", lambda g: [0 for _ in iter(int, 1)])
    out = run.execute("reduce", W.make_round("reduce", 1, 0)[0])
    assert "ran over" in out.failure and not out.known and out.seconds < 5


def test_each_form_is_scaled_by_the_samples_around_it(monkeypatch):
    import hostspeed

    samples = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples) * hostspeed.REFERENCE_S)
    scaler = hostspeed.Scaler()
    for seconds in (0.01, hostspeed.SAMPLE_EVERY_S, 0.01):
        scaler.add(seconds)
    scaler.close()
    assert scaler.factors == pytest.approx([1 / 3, 1 / 3, 1 / 2.5])
