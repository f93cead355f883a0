#!/usr/bin/env python3
"""Resonance census for one quadratic parameter: scan the strip, export
the zeros, fit strip/poly counting exponents, and probe the growth bound
in the same strip.  The summary also counts the determinants (assembled
Fredholm matrices) that the leading real zero and the scan took."""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from juliazeta.util import atomic_write_text
from juliazeta.dynamics import MapSpec
from juliazeta.zeros import (DELTA_BRACKET, PolyFamily, Rectangle, StripFamily,
                             counting_report, export_zeros,
                             growth_exponent_probe, leading_real_zero,
                             scan_region)
from juliazeta.zeta import FredholmEvaluator


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=-6.0)
    ap.add_argument("--height", type=float, default=40.0)
    ap.add_argument("--re-min", type=float, default=-2.0)
    ap.add_argument("--level", type=int, default=2)
    ap.add_argument("--out-dir", default="census")
    args = ap.parse_args()

    spec = MapSpec(c=args.c)
    ev = FredholmEvaluator(spec, level=args.level)
    matrix, determinants = ev.matrix, [0]

    def counted(s):
        determinants[0] += 1
        return matrix(s)

    ev.matrix = counted
    delta = leading_real_zero(ev, DELTA_BRACKET).s.real
    leading = determinants[0]
    print(f"leading real zero delta = {delta:.8f}")

    rect = Rectangle(args.re_min, delta + 1.0, -args.height, args.height)
    t0 = time.monotonic()
    zeros = scan_region(ev, rect)
    scan = determinants[0] - leading
    print(f"{len(zeros)} zeros in {rect} [{time.monotonic() - t0:.0f}s]")

    os.makedirs(args.out_dir, exist_ok=True)
    export_zeros(os.path.join(args.out_dir, "zeros.csv"), zeros)

    rs = [args.height * f for f in (0.125, 0.175, 0.25, 0.35, 0.5, 0.7, 1.0)]
    strip = counting_report(zeros, StripFamily(-args.re_min), rs)
    strip.to_csv(os.path.join(args.out_dir, "strip_counts.csv"))
    summary = {"delta": delta, "strip": strip.summary(),
               "conjectured_strip_exponent": 1.0 + delta,
               "determinants": {"leading_real_zero": leading, "scan": scan,
                                "per_zero": scan / len(zeros) if zeros else None}}
    for alpha in (0.0, 0.5, 1.0):
        rep = counting_report(zeros, PolyFamily(alpha), rs)
        summary[f"poly_alpha_{alpha}"] = rep.summary()
    growth = growth_exponent_probe(ev, -args.re_min, rs)
    summary["growth"] = {"exponent": growth.exponent, "r2": growth.r2}
    atomic_write_text(os.path.join(args.out_dir, "census_summary.json"),
                      json.dumps(summary, indent=1) + "\n")
    print(f"strip exponent {strip.exponent:.3f} "
          f"(conjectured {1.0 + delta:.3f}); growth exponent "
          f"{growth.exponent:.3f} (dimension {delta:.3f})")
    print(f"artifacts in {args.out_dir}/")


if __name__ == "__main__":
    main()
