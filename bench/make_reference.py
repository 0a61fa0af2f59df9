"""Regenerate bench/wide_box_reference.json: the violation count of every
rank-2 catalog row on the exhaustive bound-3 box, taken from the vectorised
`sweep` and cross-checked element by element against the exact per-element
oracle `sweep_exact`.

    PYTHONPATH=src python3 bench/make_reference.py

It exits 1 without writing when the two sweeps disagree on any row.  The
exact oracle is slow (minutes per failing row), which is why the benchmark
compares against the recorded counts instead of re-running it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from crystref import build_group, catalog_ids, sweep, sweep_exact

BOUND = 3
OUT = Path(__file__).resolve().parent / "wide_box_reference.json"


def main() -> int:
    rows = {}
    ok = True
    for gid in catalog_ids():
        if gid.n != 2:
            continue
        spec = build_group(gid)
        start = time.perf_counter()
        fast = sweep(spec, bound=BOUND)
        exact = sweep_exact(spec, bound=BOUND)
        fast_set = {v.element.text() for v in fast.violations}
        exact_set = {v.element.text() for v in exact.violations}
        agree = (fast_set == exact_set
                 and fast.violation_count == exact.violation_count
                 and fast.with_fixed_point == exact.with_fixed_point)
        ok &= agree
        print(f"{spec.name:18s} violations {fast.violation_count:5d} "
              f"exact {exact.violation_count:5d} with_fixed_point "
              f"{fast.with_fixed_point:6d} {'agree' if agree else 'DISAGREE'} "
              f"({time.perf_counter() - start:.0f}s)", flush=True)
        rows[spec.name] = {"examined": fast.examined,
                           "with_fixed_point": fast.with_fixed_point,
                           "violation_count": fast.violation_count}
    if not ok:
        print("sweep and sweep_exact disagree; reference not written",
              file=sys.stderr)
        return 1
    OUT.write_text(json.dumps({"bound": BOUND, "cross_checked_with": "sweep_exact",
                               "rows": rows}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
