#!/usr/bin/env python3
"""Catalog layer timing: best-of-7 wall time of building, saving and
loading the Real1D periodic-orbit catalog of z^2 + c, and each per
periodic point, printed as one JSON line.  Runs with one BLAS thread.

    python3 scripts/catalog_timing.py --c -6 --n-max 16 --tol-point 5e-13
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")   # before numpy is imported

import argparse
import json
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from juliazeta.dynamics import MapSpec, build_orbit_catalog, load_catalog, save_catalog

REPEAT = 7   # k: the calls timed per step, best of which is kept


def best_of(k, fn):
    """The least wall time of k calls, and the last call's result."""
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=-6.0)
    ap.add_argument("--n-max", type=int, default=16)
    ap.add_argument("--tol-point", type=float, default=5e-13)
    args = ap.parse_args()

    spec = MapSpec(c=args.c, tol_point=args.tol_point)
    build_s, cat = best_of(REPEAT, lambda: build_orbit_catalog(spec, args.n_max))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "catalog.json")
        save_s, _ = best_of(REPEAT, lambda: save_catalog(cat, path))
        load_s, _ = best_of(REPEAT, lambda: load_catalog(path))
    points = sum(p.size for p in cat.points)
    out = {"c": args.c, "n_max": args.n_max, "tol_point": args.tol_point,
           "prime_orbits": sum(len(w) for w in cat.words),
           "periodic_points": points, "build_s": build_s, "save_s": save_s,
           "load_s": load_s}
    for step in ("build", "save", "load"):
        out[f"{step}_us_per_point"] = out[f"{step}_s"] / points * 1e6
    print(json.dumps(out))


if __name__ == "__main__":
    main()
