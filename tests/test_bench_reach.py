"""The benchmark's reach into the library.

bench/ names library functions and errors: its tracer wraps them, its gate
test raises one, and its workloads call the entry points. A library change
that drops or renames one of them makes a benchmark run fail, so these
tests fail first. They import bench/ and edit nothing in it.
"""

import sys
from pathlib import Path

import pytest

from minkred import enumeration, reduction

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import tracing
    import workloads as W
finally:
    sys.path.remove(str(BENCH))


def test_tracer_targets_resolve():
    names = set(tracing.targets().values())
    for short, extra in tracing.EXTRA.items():
        assert {f"{short}.{name}" for name in extra} <= names


def test_reduction_binds_the_traced_names():
    for name in ("complete_to_basis", "_enumerate_core", "_reduced_view", "lll_transform"):
        assert callable(getattr(reduction, name)), name
    assert reduction.complete_to_basis is enumeration.complete_to_basis


def test_gate_error_imports():
    from minkred.errors import ReductionCapError

    assert isinstance(ReductionCapError([]), RuntimeError)


@pytest.mark.parametrize("workload", ["highdim", "reduce", "voronoi"])
def test_round_zero_passes_its_checks(workload):
    assert workload in W.PIPELINES
    for form in W.make_round(workload, 1, 0):
        assert W.check(workload, form, W.PIPELINES[workload](W.fresh(form))) == "", form.label
