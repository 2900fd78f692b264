"""Two-parameter families of circles through the axis points (0, 0, +-sqrt(q)).

A family is classified by the sign of the rational parameter q: elliptic
(two real base points), parabolic (the points coincide at the origin and
every circle is tangent to the z axis there), hyperbolic (the points are
imaginary and the real locus of zero-radius circles is the circle
x^2 + y^2 = -q in the plane z = 0).

A circle of a family is named by a :class:`chsurf.surface.CircleKey`.
Frozen values; thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


@dataclass(frozen=True)
class CongruenceSpec:
    """q is the squared height of the base points; q < 0 makes them imaginary."""

    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))

    @cached_property
    def q_float(self) -> float:
        """``float(q)``, converted once per family."""
        return float(self.q)
