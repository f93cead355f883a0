#!/usr/bin/env python3
"""Desk-scale checks of the binomial length model: the affine fixture's
cycle sums against the model product, and the zero-side/orbit-side
pairing identity across test-function windows."""

import argparse
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from juliazeta.dynamics import AffinePair
from juliazeta.pairing import TestFunction, identity_residual
from juliazeta.zeros import Rectangle, scan_region
from juliazeta.zeta import CycleEvaluator, ModelEvaluator, model_dimension


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=2.0)
    ap.add_argument("--b", type=float, default=4.0)
    ap.add_argument("--n-max", type=int, default=14)
    ap.add_argument("--height", type=float, default=60.0)
    args = ap.parse_args()

    fixture = AffinePair((args.a, args.b))
    catalog = fixture.orbit_catalog(args.n_max)
    delta = model_dimension(args.a, args.b)
    print(f"model dimension delta = {delta:.8f}")

    print("cycle sums vs model product:")
    cycle, product = CycleEvaluator(catalog), ModelEvaluator(args.a, args.b, 60)
    for s in (2.5, 3.0 + 1.0j, 3.5 - 2.0j):
        got = cycle.zeta_value(s).log_value
        want = product.zeta_value(s).log_value
        print(f"  s={s}:  |cycle - product| = {abs(got - want):.2e}")

    ev = ModelEvaluator(args.a, args.b, 40)
    region = Rectangle(-3.0, 1.0, -args.height, args.height)
    zeros = scan_region(ev, region)
    print(f"{len(zeros)} zeros in {region}")

    l1 = math.log(min(args.a, args.b))
    print("pairing identity (residual vs orbit side):")
    for d, g in ((l1 + 0.01, 0.3 * l1), (2 * l1, 0.4 * l1), (3 * l1, 0.4 * l1)):
        res = identity_residual(catalog, ev, delta, TestFunction(d=d, gamma=g),
                                region, zeros=zeros)
        print(f"  d={d:.3f} gamma={g:.3f}:  orbit={res.orbit_side:.6f}  "
              f"zero={res.zero_side:.6f}  residual={res.residual:.2e} "
              f"({100 * res.residual / res.orbit_side:.2f}%)  "
              f"tail={res.zero_tail_estimate:.2e}  passed={res.passed}")


if __name__ == "__main__":
    main()
