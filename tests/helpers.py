"""Small helpers shared by the test modules."""

import math
from fractions import Fraction

from chsurf.congruence import CongruenceSpec
from chsurf.curve import CurveSpec, Placement
from chsurf.surface import SurfaceSpec


# Curves with denominators 3, 5, 7 and 8 and offsets past 1 that the grid
# of ``chsurf.verify.grid_specs`` does not use.
OFF_GRID_SPECS = [
    CurveSpec(n, d, Fraction(a))
    for n in range(1, 8)
    for d in range(1, 8)
    if math.gcd(n, d) == 1
    for a in ("2/3", "7/5", "3/7", "9/2", "13/8")
]


def make_spec(n, d, a="0", q="0", cx="0", cy="0", h="0"):
    """A placed surface from exact values, given as strings or rationals."""
    return SurfaceSpec(
        CurveSpec(n, d, Fraction(a)),
        CongruenceSpec(Fraction(q)),
        Placement(Fraction(cx), Fraction(cy), Fraction(h)),
    )


def parse_obj(data: bytes):
    """Minimal OBJ reader used as the round-trip oracle: (vertices, 0-based faces)."""
    vertices, faces = [], []
    for line in data.decode("ascii").splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "v":
            vertices.append(tuple(float(p) for p in parts[1:4]))
        elif parts[0] == "f":
            faces.append(tuple(int(p) - 1 for p in parts[1:4]))
    return vertices, faces
