#!/usr/bin/env python3
"""Two routes to the Julia-set dimension across a sweep of real
parameters: the leading real zero of det(I - L(s)) against the
box-counting fit of the backward covers."""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from juliazeta.cover import box_dimension
from juliazeta.dynamics import MapSpec
from juliazeta.util import write_csv
from juliazeta.zeros import DELTA_BRACKET, leading_real_zero
from juliazeta.zeta import FredholmEvaluator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c-values", type=float, nargs="+",
                    default=[-3.0, -4.0, -5.0, -6.0, -8.0, -12.0, -20.0])
    ap.add_argument("--level", type=int, default=2)
    ap.add_argument("--out", default="dimension_study.csv")
    args = ap.parse_args()

    rows = []
    for c in args.c_values:
        spec = MapSpec(c=c)
        ev = FredholmEvaluator(spec, level=args.level)
        delta_zeta = leading_real_zero(ev, DELTA_BRACKET).s.real
        fit, _ = box_dimension(spec)
        rows.append((c, delta_zeta, fit.delta_box,
                     abs(delta_zeta - fit.delta_box), fit.r2))
        print(f"c={c:8.2f}  delta_zeta={delta_zeta:.6f}  "
              f"delta_box={fit.delta_box:.4f}  "
              f"|diff|={abs(delta_zeta - fit.delta_box):.4f}  r2={fit.r2:.4f}")
    write_csv(args.out, "c,delta_zeta,delta_box,abs_diff,box_r2", rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
