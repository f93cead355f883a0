#!/usr/bin/env python3
"""Fredholm layer timing: per determinant, the assembly of the folded
matrix F(s) and the LU of I - F, on the real axis and off it, best of N
calls each, for each c and level; one JSON line per (c, level).  Runs with
one BLAS thread.

    python3 scripts/fredholm_timing.py --levels 2 3 --repeat 15
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")   # before numpy is imported

import argparse
import json
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from juliazeta.dynamics import MapSpec
from juliazeta.zeta import FredholmEvaluator

DIMENSION_CS = (-3.0, -4.0, -5.0, -6.0, -8.0, -12.0, -20.0)
S_AXIS, S_OFF = 0.5 + 0j, 0.5 + 20j   # the points timed on and off the real axis


def best_ms(k, fn):
    """The least wall time of k calls, in ms."""
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, nargs="+", default=list(DIMENSION_CS))
    ap.add_argument("--levels", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()

    for c in args.c:
        for level in args.levels:
            build_ms = best_ms(args.repeat, lambda: FredholmEvaluator(MapSpec(c=c), level=level))
            ev = FredholmEvaluator(MapSpec(c=c), level=level)
            out = {"c": c, "level": level, "order": ev.order, "size": ev.size,
                   "build_ms": build_ms}
            for where, s in (("axis", S_AXIS), ("off", S_OFF)):
                a = np.eye(ev.size) - ev.matrix(s)
                out[f"{where}_matrix_ms"] = best_ms(args.repeat, lambda: ev.matrix(s))
                out[f"{where}_lu_ms"] = best_ms(args.repeat, lambda: np.linalg.slogdet(a))
                out[f"{where}_call_ms"] = best_ms(args.repeat, lambda: ev(s))
            print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
