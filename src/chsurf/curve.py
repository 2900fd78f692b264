"""Cyclic-harmonic curves r(phi) = cos(n*phi/d) + a and their exact algebra.

The polar family is parametrized by coprime positive integers n, d and a
rational offset a >= 0.  Everything symbolic here is exact: the implicit
equation is a primitive integer polynomial, the property table (order,
multiplicity at the pole, multiplicity at the circular points at infinity)
is integer arithmetic, and the circular-point multiplicity check runs on
Gaussian integers held as pairs of ints.  Floating point only enters through
the polar/point samplers.

All functions are pure and the spec types are frozen, so a parameter grid
can be processed in parallel without any locking.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Callable, Optional, Sequence, Tuple, Union

from .poly import MultiPoly

XY = ("x", "y")

DEFAULT_SEED = 809


@dataclass(frozen=True)
class CurveSpec:
    """Parameters (n, d, a) of one curve; n/d must be in lowest terms."""

    n: int
    d: int
    a: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.d, int):
            raise ValueError("n and d must be integers")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if gcd(self.n, self.d) != 1:
            raise ValueError(f"n/d must be in lowest terms, got {self.n}/{self.d}")
        object.__setattr__(self, "a", Fraction(self.a))
        if self.a < 0:
            raise ValueError("a must be non-negative")

    @property
    def parameter_period(self) -> float:
        """Length of the closed parameter interval [0, 2*d*pi)."""
        return 2.0 * self.d * math.pi

    @property
    def is_odd_rose(self) -> bool:
        """True for a = 0 with n*d odd: the curve retraces after d*pi."""
        return self.a == 0 and (self.n * self.d) % 2 == 1


class ShapeClass(Enum):
    FOLIATE = "foliate"
    PROLATE = "prolate"
    CUSPIDATE = "cuspidate"
    CURTATE = "curtate"


@dataclass(frozen=True)
class CurveProperties:
    order: int
    origin_multiplicity: int
    absolute_multiplicity: int


@dataclass(frozen=True)
class Placement:
    """Pose of a curve in space: pole at (cx, cy, height), plane z = height."""

    cx: Fraction = Fraction(0)
    cy: Fraction = Fraction(0)
    height: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "cx", Fraction(self.cx))
        object.__setattr__(self, "cy", Fraction(self.cy))
        object.__setattr__(self, "height", Fraction(self.height))

    @property
    def pole_on_axis(self) -> bool:
        return self.cx == 0 and self.cy == 0


def polar_radius(spec: CurveSpec, phi: float) -> float:
    """Signed radius cos(n*phi/d) + a; negative values flip the direction."""
    return math.cos(spec.n * phi / spec.d) + float(spec.a)


def shape_class(spec: CurveSpec) -> ShapeClass:
    if spec.a == 0:
        return ShapeClass.FOLIATE
    if spec.a < 1:
        return ShapeClass.PROLATE
    if spec.a == 1:
        return ShapeClass.CUSPIDATE
    return ShapeClass.CURTATE


def curve_point(
    spec: CurveSpec, placement: Placement, phi: float
) -> Tuple[float, float, float]:
    """Point of the placed curve in 3-space at parameter phi.

    :func:`point_function` repeats this formula for repeated evaluation.
    """
    r = polar_radius(spec, phi)
    return (
        float(placement.cx) + r * math.cos(phi),
        float(placement.cy) + r * math.sin(phi),
        float(placement.height),
    )


def point_function(
    spec: CurveSpec, placement: Placement
) -> Callable[[float], Tuple[float, float, float]]:
    """:func:`curve_point` for one placed curve, as a function of phi.

    The rationals are converted to floats once, here, and the returned
    function repeats ``curve_point``'s operations in the same order, so its
    points are bit-identical to that one's.  Keep the two formulas in step.
    """
    n, d = spec.n, spec.d
    a = float(spec.a)
    cx, cy, z = float(placement.cx), float(placement.cy), float(placement.height)

    def point(phi: float) -> Tuple[float, float, float]:
        r = math.cos(n * phi / d) + a
        return (cx + r * math.cos(phi), cy + r * math.sin(phi), z)

    return point


def _branch_below(spec: CurveSpec) -> bool:
    """True when the d < n table branch applies (n = d = 1 included)."""
    return spec.d < spec.n or spec.n == spec.d


def curve_properties(spec: CurveSpec) -> CurveProperties:
    """Order and singularity multiplicities of the algebraic curve."""
    n, d = spec.n, spec.d
    below = _branch_below(spec)
    if spec.is_odd_rose:
        return CurveProperties(n + d, n, d if below else (n + d) // 2)
    return CurveProperties(2 * (n + d), 2 * n, 2 * d if below else n + d)


# -- implicit equation ---------------------------------------------------------
#
# Writing w = x^2 + y^2 and S = sum_i (-1)^i C(n,2i) x^(n-2i) y^(2i), the
# defining trigonometric identity splits into an even and an odd part in
# sqrt(w).  Squaring the appropriate rearrangement eliminates the radical,
# which yields a polynomial of total degree 2(n+d) for a != 0 (and for the
# even-product roses), or degree n+d without squaring for odd-product roses.


def _cos_multiple_angle(n: int) -> MultiPoly:
    """sum_{2i <= n} (-1)^i C(n,2i) x^(n-2i) y^(2i)."""
    terms = {}
    for i in range(n // 2 + 1):
        terms[(n - 2 * i, 2 * i)] = Fraction((-1) ** i * comb(n, 2 * i))
    return MultiPoly(XY, terms)


def _odd_upper_bound(d: int, k: int) -> int:
    half = (d - 2 * k) // 2
    return half if d % 2 == 1 else half - 1


def _radial_even_coeffs(d: int, a: Fraction) -> list:
    """Coefficients e_l of the even radial sum E(w) = sum_l e_l w^l."""
    coeffs = [Fraction(0)] * (d // 2 + 1)
    for j in range(d // 2 + 1):
        for k in range(j + 1):
            base = Fraction((-1) ** (d - k) * comb(d, 2 * j) * comb(j, k))
            for l in range((d - 2 * k) // 2 + 1):
                exponent = d - 2 * k - 2 * l
                coeffs[l] += base * comb(d - 2 * k, 2 * l) * a**exponent
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs

def _radial_odd_coeffs(d: int, a: Fraction) -> list:
    """Coefficients o_l of the odd radial sum O(w) = sum_l o_l w^l."""
    coeffs = [Fraction(0)] * (d // 2 + 1)
    for j in range(d // 2 + 1):
        for k in range(j + 1):
            base = Fraction((-1) ** (d - k - 1) * comb(d, 2 * j) * comb(j, k))
            for l in range(_odd_upper_bound(d, k) + 1):
                exponent = d - 2 * k - 2 * l - 1
                coeffs[l] += base * comb(d - 2 * k, 2 * l + 1) * a**exponent
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _w_power_poly(coeffs: Sequence[Fraction], shift: int) -> MultiPoly:
    """Expand w^shift * sum_l coeffs[l] w^l with w = x^2 + y^2."""
    w = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
    result = MultiPoly.zero(XY)
    power = w**shift
    for l, c in enumerate(coeffs):
        if c:
            result = result + power * c
        power = power * w
    return result


def _rose_implicit(spec: CurveSpec) -> MultiPoly:
    n, d = spec.n, spec.d
    s_poly = _cos_multiple_angle(n)
    if (n * d) % 2 == 1:
        # Single-sheet case: both sides are already polynomial in w.
        coeffs = {}
        for k in range(d // 2 + 1):
            for j in range(k + 1):
                exp = (n + d) // 2 - k + j
                value = Fraction((-1) ** (j + k) * comb(d, 2 * k) * comb(k, j))
                coeffs[exp] = coeffs.get(exp, Fraction(0)) + value
        highest = max(coeffs)
        dense = [coeffs.get(e, Fraction(0)) for e in range(highest + 1)]
        return _w_power_poly(dense, 0) - s_poly
    # Even-product roses carry a lone sqrt(w): square both sides.
    by_u = {}
    for k in range(d // 2 + 1):
        for j in range(k + 1):
            u = k - j
            by_u[u] = by_u.get(u, Fraction(0)) + Fraction((-1) ** u * comb(d, 2 * k) * comb(k, j))
    base_exp = (n + d - 1) // 2
    dense = [Fraction(0)] * (base_exp + 1)
    for u, value in by_u.items():
        dense[base_exp - u] += value
    half = _w_power_poly(dense, 0)
    w = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
    return w * half * half - s_poly * s_poly


def _offset_implicit(spec: CurveSpec) -> MultiPoly:
    n, d, a = spec.n, spec.d, spec.a
    s_poly = _cos_multiple_angle(n)
    even = _radial_even_coeffs(d, a)
    odd = _radial_odd_coeffs(d, a)
    w = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
    if n % 2 == 0:
        body = s_poly - _w_power_poly(even, n // 2)
        odd_part = _w_power_poly(odd, 0)
        return body * body - w ** (n + 1) * odd_part * odd_part
    body = s_poly - _w_power_poly(odd, (n + 1) // 2)
    even_part = _w_power_poly(even, 0)
    return body * body - w**n * even_part * even_part


@lru_cache(maxsize=None)
def implicit_equation(spec: CurveSpec) -> MultiPoly:
    """Primitive integer polynomial in (x, y) vanishing on the whole curve.

    Total degree equals ``curve_properties(spec).order``; the sign is pinned
    by the canonical-order leading coefficient.
    """
    raw = _rose_implicit(spec) if spec.a == 0 else _offset_implicit(spec)
    return raw.primitive()


@lru_cache(maxsize=None)
def homogeneous_implicit(spec: CurveSpec) -> MultiPoly:
    """Implicit equation over (x0, x1, x2) with x = x1/x0, y = x2/x0."""
    return implicit_equation(spec).rename_variables(("x1", "x2")).homogenize("x0")


# -- tangent cone at the pole ----------------------------------------------------


def _cone_constant(d: int, a: Fraction) -> Fraction:
    """Double binomial sum scaling the radial part of the pole tangent cone."""
    total = Fraction(0)
    for j in range(d // 2 + 1):
        for k in range(j + 1):
            total += Fraction((-1) ** (d - k) * comb(d, 2 * j) * comb(j, k)) * a ** (d - 2 * k)
    return total


def origin_cone_constant(spec: CurveSpec) -> Fraction:
    return _cone_constant(spec.d, spec.a)


def origin_cone_constant_closed(spec: CurveSpec) -> complex:
    """Closed form ((-s-a)^d + (s-a)^d)/2 with s = sqrt(a^2-1) (complex for a < 1).

    The two summands are conjugate (or both real), so the result is real up
    to roundoff; callers may assert a tiny imaginary part.
    """
    a = float(spec.a)
    s = cmath.sqrt(complex(a * a - 1.0))
    d = spec.d
    return ((-s - a) ** d + (s - a) ** d) / 2.0


def tangent_cone(spec: CurveSpec) -> MultiPoly:
    """Degree-2n homogeneous form cutting out the tangent lines at the pole.

    Undefined for odd-product roses, whose pole is only an n-fold point; use
    ``implicit_equation(spec).lowest_form()`` there instead.
    """
    if spec.is_odd_rose:
        raise ValueError("odd-product rose: the pole cone is the degree-n lowest form")
    n = spec.n
    constant = origin_cone_constant(spec)
    s_poly = _cos_multiple_angle(n)
    w = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
    if n % 2 == 0:
        body = s_poly - w ** (n // 2) * constant
        cone = body * body
    else:
        cone = w**n * (constant * constant) - s_poly * s_poly
    return cone.primitive()


# -- multiplicity at the circular points at infinity ------------------------------


# Powers of i as (re, im) pairs, indexed by the exponent mod 4.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def absolute_point_multiplicity(spec: CurveSpec, m: Union[int, Fraction]) -> int:
    """Intersection multiplicity along the line x2 = i*x1 + m*x0.

    The pencil of lines through (0, 1, i) is parametrized by m; for generic
    m the result is the multiplicity of the circular point itself.  With
    x1 = 1 and x0 = t the homogeneous equation restricted to the line is
    g(t) = sum c_ab t^(D-a-b) (i + m t)^b, and the answer is its order at
    t = 0.  Scaling g by den(m)^D keeps every coefficient a Gaussian integer,
    held as an (re, im) pair of ints.
    """
    m = Fraction(m)
    implicit = implicit_equation(spec)
    degree = implicit.total_degree
    num_powers = [m.numerator**k for k in range(degree + 1)]
    den_powers = [m.denominator**k for k in range(degree + 1)]
    re = [0] * (degree + 1)
    im = [0] * (degree + 1)
    for (a, b), coeff in implicit.terms.items():
        c = coeff.re.numerator  # a primitive integer polynomial: real, denominator 1
        shift = degree - a - b
        for k in range(b + 1):
            value = c * comb(b, k) * num_powers[k] * den_powers[degree - k]
            unit_re, unit_im = _I_POWERS[(b - k) % 4]
            re[shift + k] += unit_re * value
            im[shift + k] += unit_im * value
    for order in range(degree + 1):
        if re[order] or im[order]:
            return order
    raise RuntimeError("line lies on the curve; implicit equation is broken")


def _random_rational(rng: random.Random) -> Fraction:
    value = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    return -value if rng.random() < 0.5 else value


def verified_absolute_multiplicity(
    spec: CurveSpec, seed: Optional[int] = None, draws: int = 3
) -> int:
    """Majority multiplicity over several seeded rational slopes.

    Raises when no value wins the majority, which would flag every drawn
    line as non-generic.
    """
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    slopes = set()
    while len(slopes) < draws:
        slopes.add(_random_rational(rng))
    votes = {}
    for m in sorted(slopes):
        value = absolute_point_multiplicity(spec, m)
        votes[value] = votes.get(value, 0) + 1
    best, count = max(votes.items(), key=lambda kv: kv[1])
    if count * 2 <= draws:
        raise RuntimeError(f"no majority across slopes: {votes}")
    return best
