"""Two-parameter families of circles through the axis points (0, 0, +-sqrt(q)).

A family is classified by the sign of the rational parameter q: elliptic
(two real base points), parabolic (the points coincide at the origin and
every circle is tangent to the z axis there), hyperbolic (the points are
imaginary and the real locus of zero-radius circles is the circle
x^2 + y^2 = -q in the plane z = 0).

Every circle of a family lies in a meridian plane (a plane containing the
z axis) with its center on the plane z = 0, so each one is pinned by three
numbers: the meridian direction modulo pi, the signed center offset in that
half-plane, and the radius.  The radius is dependent data, radius^2 =
offset^2 + q, but is carried explicitly for convenience.

Pure functions over frozen values; thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence


class AxisPointError(ValueError):
    """Raised for points on the z axis, where every circle of the family passes."""


class DegenerateCircleError(ValueError):
    """Raised when the requested circle has zero radius (hyperbolic waist)."""


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


@dataclass(frozen=True)
class CircleKey:
    """Canonical coordinates of one circle of a family.

    ``meridian_angle`` lies in [0, pi); flipping the half-plane direction by
    pi negates ``center_offset`` and names the same circle.
    """

    meridian_angle: float
    center_offset: float
    radius: float


def circle_through(spec: CongruenceSpec, point: Sequence[float]) -> CircleKey:
    """The unique circle of the family through an off-axis point.

    In signed meridian coordinates (u, z) the circle has center (c, 0) with
    c = (u^2 + z^2 - q) / (2u) and radius sqrt(c^2 + q), which is exactly the
    distance from (c, 0) to the point.
    """
    x, y, z = (float(v) for v in point)
    q = spec.q_float
    rho_sq = x * x + y * y
    scale = max(1.0, rho_sq + z * z + abs(q))
    if rho_sq <= (1e-12 * scale) ** 2:
        raise AxisPointError(f"point {point!r} lies on the z axis")
    angle = math.atan2(y, x) % math.pi
    if angle >= math.pi:  # atan2 output of exactly pi wraps to 0
        angle = 0.0
    u = x * math.cos(angle) + y * math.sin(angle)
    offset = (rho_sq + z * z - q) / (2.0 * u)
    radius_sq = offset * offset + q
    if radius_sq <= 1e-12 * scale:
        raise DegenerateCircleError(
            f"point {point!r} lies on the zero-radius circle of q = {spec.q}"
        )
    return CircleKey(angle, offset, math.sqrt(radius_sq))


def circle_key_close(k1: CircleKey, k2: CircleKey, tol: float) -> bool:
    """Whether two keys name the same circle, up to the half-plane flip."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = max(
        1.0,
        abs(k1.center_offset),
        abs(k2.center_offset),
        k1.radius,
        k2.radius,
    )
    if abs(k1.radius - k2.radius) > tol * scale:
        return False
    d_angle = abs(k1.meridian_angle - k2.meridian_angle)
    if d_angle <= tol and abs(k1.center_offset - k2.center_offset) <= tol * scale:
        return True
    # Wrap across the 0/pi boundary: the flipped representative negates the offset.
    if abs(d_angle - math.pi) <= tol and abs(k1.center_offset + k2.center_offset) <= tol * scale:
        return True
    return False
