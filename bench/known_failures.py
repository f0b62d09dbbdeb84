"""Find the forms of the input pools on which the library raises, and list
them in bench/known_failures.json.

A listed form that raises the listed error still counts in ``failed``, but
does not make a run incorrect; any other failure does. Only the slots where
a known defect can strike are scanned: ``minkowski_reduce`` gives up with
ReductionCapError after 10 n × (table size) fixes, a cap that skewed forms
reach in dimensions 2 and 3 (40 and 300 fixes) and nowhere near in higher
dimensions. Wrong results are never listed.

Usage (from the repository root):

    python3 bench/known_failures.py FIRST_SEED LAST_SEED
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402

PATH = BENCH / "known_failures.json"
SCANNED = {"reduce": 3}    # workload: highest dimension scanned


def load():
    """{(workload, form key): error class name} of the listed forms."""
    if not PATH.is_file():
        return {}
    return {(f["workload"], f["key"]): f["error"]
            for f in json.loads(PATH.read_text())["forms"]}


def scan(first, last):
    found = []
    for workload, top in SCANNED.items():
        for seed in range(first, last + 1):
            for r in range(W.POOL_ROUNDS[workload]):
                for form in W.make_round(workload, seed, r):
                    if form.n > top:
                        continue
                    try:
                        result = W.PIPELINES[workload](W.fresh(form))
                    except Exception as exc:
                        found.append({"workload": workload, "seed": seed, "round": r,
                                      "label": form.label, "n": form.n,
                                      "key": form.key(), "error": type(exc).__name__})
                        print(found[-1], file=sys.stderr)
                        continue
                    problem = W.check(workload, form, result)
                    if problem:
                        raise SystemExit(f"wrong result, not listed: seed {seed} "
                                         f"round {r} {form.label}: {problem}")
    return found


def main(first, last):
    forms = scan(first, last)
    PATH.write_text(json.dumps(
        {"seeds": [first, last], "scanned": {k: f"dims <= {v}" for k, v in SCANNED.items()},
         "forms": forms}, indent=1) + "\n")
    print(f"{len(forms)} forms listed in {PATH.name}")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
