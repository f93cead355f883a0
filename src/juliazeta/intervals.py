"""Outward-rounded interval and disk arithmetic.

Real intervals use `math.nextafter` to push endpoints outward after every
operation, so enclosures remain valid under double rounding.  Complex
disks (used by the two-variable certificate) instead inflate radii by a
fixed relative slack per step; those enclosures are a numerical
certificate, not a proof.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchPointError

DISK_SLACK = 1e-10  # relative inflation per disk operation


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def shift(self, a: float) -> "Interval":
        # outward rounding: one ulp each way covers the rounding of lo+a, hi+a
        return Interval(math.nextafter(self.lo + a, -math.inf),
                        math.nextafter(self.hi + a, math.inf))

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise ValueError(f"sqrt of interval reaching below zero: {self}")
        return Interval(math.nextafter(math.sqrt(self.lo), -math.inf) if self.lo > 0 else 0.0,
                        math.nextafter(math.sqrt(self.hi), math.inf))


@dataclass(frozen=True)
class Disk:
    """Closed disk in the plane; enclosure arithmetic inflates radii."""
    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError("negative disk radius")

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sqrt_shift(self, c: complex, sign: int) -> "Disk":
        """Enclosure of {±sqrt(z - c) : z in disk} with the principal branch.

        Requires the shifted disk to avoid the branch cut (-inf, 0]; the
        image enclosure uses the sup of |d/dz sqrt(z-c)| on the disk.
        """
        w = self.center - c
        d = abs(w)
        if d <= self.radius:
            raise BranchPointError(
                f"disk around {self.center} encloses the branch point {c}")
        # the cut is hit when the shifted disk meets the non-positive real axis
        if w.real <= 0.0 and abs(w.imag) <= self.radius:
            raise BranchPointError(
                f"disk around {self.center} shifted by {-c} straddles the sqrt cut")
        root = cmath.sqrt(w)
        sup_deriv = 0.5 / math.sqrt(d - self.radius)
        rad = self.radius * sup_deriv * (1.0 + DISK_SLACK) + 1e-300
        return Disk(root if sign == 0 else -root, rad)
