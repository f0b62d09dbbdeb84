"""minkred benchmark: one closed-loop caller, one process, no threads.

Usage (from the repository root):

    python3 bench/run.py --workload reduce|voronoi|highdim --seed N \
        --seconds S --trace 0|1

Each form starts only after the previous one has finished. ``--trace 0``
times forms until S seconds of form time have been measured (whole rounds,
at least MIN_SAMPLES forms) and reports the end-to-end metrics.
``--trace 1`` alternates traced and untraced passes over a fixed set of
forms for S seconds and reports the per-layer metrics; it writes its spans
to bench/out/ when it ends. Both modes check every result after its timer
stops. A form that raises, runs over FORM_CAP_S or returns a wrong result
counts in ``failed`` and makes the run incorrect, unless it is a form listed
in bench/known_failures.json raising its listed error. Every reported time
is scaled to the reference host speed of hostspeed.py, from host-speed
samples taken between forms. Human-readable lines come first;
the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import hostspeed  # from this script's directory, first on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PROBES = 7                 # set-up probes per run, after one warm-up probe
MIN_SAMPLES = 110          # so at least ten latencies lie beyond p90
TRACE_ROUNDS = {"reduce": 5, "voronoi": 2, "highdim": 2}
# A form still running after this long is stopped and counts as failed, so
# one runaway form cannot hold a run past its time limit. The slowest form
# of the first measured version took under 2 s.
FORM_CAP_S = 10


class FormTimeout(BaseException):
    """Raised into a form that runs over FORM_CAP_S. A BaseException, so
    no ``except Exception`` in the library can swallow it."""


def _time_out(signum, frame):
    raise FormTimeout


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_package():
    if not (SRC / "minkred" / "__init__.py").is_file():
        fail(f"no minkred sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import minkred

    if SRC not in Path(minkred.__file__).resolve().parents:
        fail(f"minkred imported from {minkred.__file__}, not from {SRC}")


def setup_probes():
    """Median import and table-build times over PROBES fresh processes, in
    reference seconds, and the median unscaled total."""
    runs = []
    for i in range(PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        if i:  # the first probe also writes the byte-code cache
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
    total = statistics.median(r["import_ref_s"] + r["tables_ref_s"] for r in runs)
    tables = statistics.median(r["tables_ref_s"] for r in runs)
    wall = statistics.median(r["import_s"] + r["tables_s"] for r in runs)
    return total, tables, wall


class Outcome(NamedTuple):
    seconds: float
    key: str | None     # fingerprint of the result; None when the form raised
    failure: str        # why the form failed, or "" when it did not
    known: bool         # the form raised the error listed for it as known


def execute(workload, form, known=None):
    """Run one form, then check its result with the timer stopped.

    A form that raises, runs over FORM_CAP_S or fails its check has
    failed. ``known`` maps (workload, form key) to the error class name the
    form is known to raise at the first measured version of the library."""
    import workloads as W

    g = W.fresh(form)
    pipeline = W.PIPELINES[workload]
    signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, FORM_CAP_S)
    start = perf_counter()
    try:
        result = pipeline(g)
        seconds = perf_counter() - start
    except FormTimeout:
        seconds = perf_counter() - start
        return Outcome(seconds, None, f"{form.label} dim {form.n} ran over {FORM_CAP_S} s", False)
    except Exception as exc:  # a failed form is counted, not fatal
        seconds = perf_counter() - start
        listed = (known or {}).get((workload, form.key())) == type(exc).__name__
        return Outcome(seconds, None, f"{form.label} dim {form.n} raised {exc!r}"
                       + (" (a known failure)" if listed else ""), listed)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    problem = W.check(workload, form, result)
    failure = problem and f"{form.label} dim {form.n}: {problem}"
    return Outcome(seconds, W.result_key(result), failure, False)


def scaled(outs, scaler):
    """The outcomes with their times in reference seconds."""
    return [out._replace(seconds=out.seconds * f) for out, f in zip(outs, scaler.factors)]


def warm_up(workload, rounds, known):
    """Fill the library's per-dimension caches outside any timing, then
    move the inputs and those caches out of the garbage collector's sight,
    so collection pauses do not grow with the size of the input pool."""
    for form in rounds[0]:
        execute(workload, form, known)
    gc.collect()
    gc.freeze()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed, seconds, known):
    import workloads as W

    pool = W.make_inputs(workload, seed, W.POOL_ROUNDS[workload])
    print(f"inputs {workload} seed {seed}: {len(pool)} rounds of "
          f"{len(pool[0])} forms, digest {W.digest(pool)}")
    warm_up(workload, pool, known)
    print(f"peak RSS after building the inputs and warming up: {peak_rss_mb():.1f} MB")
    unscaled, scaler = [], hostspeed.Scaler()
    wall, r = 0.0, 0
    while wall < seconds or len(unscaled) < MIN_SAMPLES:
        for form in pool[r % len(pool)]:
            unscaled.append(execute(workload, form, known))
            scaler.add(unscaled[-1].seconds)
            wall += unscaled[-1].seconds
        r += 1
    scaler.close()
    if r > len(pool):
        print(f"note: the pool wrapped around ({r} rounds run, {len(pool)} built)")
    outs = scaled(unscaled, scaler)
    failures = [out for out in outs if out.failure]
    # a failed form missed any latency limit: it counts as the cap
    latencies = [max(out.seconds, FORM_CAP_S) if out.failure else out.seconds for out in outs]
    measured = sum(out.seconds for out in outs)
    deciles = statistics.quantiles([out.seconds for out in unscaled], n=10)
    print(f"unscaled wall time: {(len(outs) - len(failures)) / wall:.4g} forms/s, "
          f"p50 {deciles[4] * 1e3:.4g} ms, p90 {deciles[8] * 1e3:.4g} ms; "
          f"the host ran at {wall / measured:.3f} x the reference time")
    return latencies, measured, failures


def traced_run(workload, seed, seconds, known):
    import metrics
    import tracing
    import workloads as W

    rounds = W.make_inputs(workload, seed, TRACE_ROUNDS[workload])
    forms = [form for forms in rounds for form in forms]
    print(f"inputs {workload} seed {seed}: {len(forms)} traced forms, "
          f"digest {W.digest(rounds)}")
    warm_up(workload, rounds, known)
    tracer = tracing.Tracer(metrics.value_extractors())
    passes, scaler = [], hostspeed.Scaler()  # traced and untraced by turns
    wall = 0.0
    while wall < seconds:
        with tracer:
            traced = []
            for form in forms:
                tracer.form += 1
                traced.append(execute(workload, form, known))
                scaler.add(traced[-1].seconds)
        untraced = []
        for form in forms:
            untraced.append(execute(workload, form, known))
            scaler.add(untraced[-1].seconds)
        passes += [traced, untraced]
        wall += sum(out.seconds for out in traced + untraced)
    scaler.close()
    flat = scaled([out for outs in passes for out in outs], scaler)
    k = len(forms)
    passes = [flat[i:i + k] for i in range(0, len(flat), k)]
    # trace id i is the i-th traced form
    form_dims = [form.n for _ in passes[::2] for form in forms]
    form_scale = [f for i in range(0, len(flat), 2 * k) for f in scaler.factors[i:i + k]]
    traced_s = sum(out.seconds for outs in passes[::2] for out in outs)
    untraced_s = sum(out.seconds for outs in passes[1::2] for out in outs)
    failures, expected = [], [out.key for out in passes[1]]
    for traced, untraced in zip(passes[::2], passes[1::2]):
        for i in range(len(forms)):
            for label, out in (("traced", traced[i]), ("untraced", untraced[i])):
                if not out.failure and out.key != expected[i]:
                    out = out._replace(
                        failure=f"{label} form {i}: result differs from the first untraced pass")
                if out.failure:
                    failures.append(out)
    return tracer, form_dims, form_scale, traced_s / untraced_s, failures


def write_spans(tracer, workload, seed):
    import tracing

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    S = tracing.Span
    with gzip.open(path, "wt") as out:
        out.write("span\tname\tform\tparent\tstart_ns\tend_ns\tself_ns\tvalue\n")
        for i, (s, own) in enumerate(zip(tracer.spans, tracing.self_times(tracer.spans))):
            out.write(f"{i}\t{tracer.names[s[S.NAME]]}\t{s[S.FORM]}\t{s[S.PARENT]}\t"
                      f"{s[S.START]}\t{s[S.END]}\t{own}\t{s[S.VALUE]}\n")
    return path


def report(metrics, definitions, attempted, failures):
    """Print every metric with its unit; return the result object.

    Every failed form counts in ``failed``. ``correct`` is false when some
    form failed other than by raising the error listed for it as known."""
    units = {name: unit for name, unit, _ in definitions}
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'failed_share':40s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} of {attempted} forms)")
    for out in failures[:20]:
        print(f"FAILED {out.failure}", file=sys.stderr)
    return {
        "correct": all(out.known for out in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _, _ in definitions},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        fail("--seconds must be positive")

    import_package()
    import known_failures  # from this script's directory, first on sys.path
    import metrics

    known = known_failures.load()

    setup_s, tables_s, setup_wall_s = setup_probes()
    print(f"setup: median of {PROBES} fresh processes; unscaled {setup_wall_s:.4g} s")
    if args.trace:
        tracer, form_dims, form_scale, overhead, failures = traced_run(
            args.workload, args.seed, args.seconds, known)
        values = metrics.layer_metrics(
            tracer.names, tracer.spans, form_dims, form_scale, tables_s, overhead)
        print(f"traced forms: {len(form_dims)}; spans: {len(tracer.spans)} written to "
              f"{write_spans(tracer, args.workload, args.seed).relative_to(ROOT)}")
        result = report(values, metrics.per_layer_definitions(), 2 * len(form_dims), failures)
    else:
        latencies, measured, failures = timed_run(args.workload, args.seed, args.seconds, known)
        deciles = statistics.quantiles(latencies, n=10)
        values = {
            "setup_s": setup_s,
            "forms_per_s": (len(latencies) - len(failures)) / measured,
            "form_ms_p50": deciles[4] * 1e3,
            "form_ms_p90": deciles[8] * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        print(f"latency samples: {len(latencies)}, "
              f"{sum(1 for x in latencies if x > deciles[8])} beyond p90")
        result = report(values, metrics.END_TO_END, len(latencies), failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
