"""Set-up cost of a fresh process: import minkred, then build the dims 2..6
tables every command pays for on first use.

Usage: python3 bench/setup_probe.py <src-dir>
Prints {"import_s": ..., "tables_s": ..., "import_ref_s": ...,
"tables_ref_s": ...} as one JSON line: wall times, and the same times in
reference seconds (see hostspeed.py). The import is scaled by host-speed
samples taken just after it; each dimension's tables by samples taken just
before and just after them.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter


def main(src):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import minkred
    from minkred import centering, corpus, enumeration, reduction, tables, voronoi  # noqa: F401
    import_s = perf_counter() - t0
    import hostspeed  # from this script's directory, after the timed import: it loads fractions

    def kernel_s():
        return statistics.median(hostspeed.sample() for _ in range(3))

    before = kernel_s()
    import_ref_s = import_s * hostspeed.REFERENCE_S / before
    tables_s = tables_ref_s = 0.0
    for n in range(tables.MIN_TABLE_DIM, tables.MAX_TABLE_DIM + 1):
        start = perf_counter()
        tables.tammela_reduction_candidates(n)
        tables.relevant_abs_patterns(n)
        tables.centering_classes(n)
        wall = perf_counter() - start
        after = kernel_s()
        tables_s += wall
        tables_ref_s += wall * hostspeed.REFERENCE_S / ((before + after) / 2)
        before = after
    if Path(src).resolve() not in Path(minkred.__file__).resolve().parents:
        raise SystemExit(f"minkred imported from {minkred.__file__}, not {src}")
    print(json.dumps({"import_s": import_s, "tables_s": tables_s,
                      "import_ref_s": import_ref_s, "tables_ref_s": tables_ref_s}))


if __name__ == "__main__":
    main(sys.argv[1])
