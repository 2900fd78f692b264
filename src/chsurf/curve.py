"""Cyclic-harmonic curves r(phi) = cos(n*phi/d) + a and their exact algebra.

The polar family is parametrized by coprime positive integers n, d and a
rational offset a >= 0.  Everything symbolic here is exact: the implicit
equation and the pole tangent cone are built on integer term maps (with
a = p/r, every radial sum is scaled by r^d = den(a)^d) and wrapped once as
an integer ``MultiPoly``, whose ``primitive()`` divides out the content and
pins the sign.  The property table (order, multiplicity at the pole,
multiplicity at the circular points at infinity) is integer arithmetic.
The circular-point multiplicity is also read off the implicit equation, as
the lowest degree of its expansion at (0 : 1 : i), on Gaussian integers held
as pairs of ints.  Floating point only enters through the polar/point
samplers.

All functions are pure and the spec types are frozen, so the equations are
cached per spec.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import MultiPoly

XY = ("x", "y")


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

    @cached_property
    def a_float(self) -> float:
        """``float(a)``, converted once per spec for the float samplers."""
        return float(self.a)


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

    @cached_property
    def pole_float(self) -> Tuple[float, float, float]:
        """``(cx, cy, height)`` as floats, converted once per placement."""
        return (float(self.cx), float(self.cy), float(self.height))


def polar_radius(spec: CurveSpec, phi: float) -> float:
    """Signed radius cos(n*phi/d) + a; negative values flip the direction."""
    return math.cos(spec.n * phi / spec.d) + spec.a_float


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
    cx, cy, z = placement.pole_float
    return (cx + r * math.cos(phi), cy + r * math.sin(phi), z)


def point_function(
    spec: CurveSpec, placement: Placement
) -> Callable[[float], Tuple[float, float, float]]:
    """:func:`curve_point` for one placed curve, as a function of phi.

    The returned function repeats ``curve_point``'s operations in the same
    order, so its points are bit-identical to that one's.  Three more copies
    compute the point inline, with the same operations, to skip the call
    and the tuple:

    - ``surface._center_function``, the sampled center trace;
    - ``surface._polish_coincidence``, the Newton step of the singular-circle
      scan;
    - ``surface._gap_function``, the sphere and waist gaps of the root
      finders.

    In ``tests/test_surface.py``, ``test_float_once_evaluators_match_curve_point``
    pins this function and the center trace to ``curve_point``,
    ``test_polish_matches_reference_on_sweep_starts`` the Newton step and
    ``test_root_finders_match_curve_point_reference`` the gaps.  Keep the
    formulas in step.
    """
    n, d = spec.n, spec.d
    a = spec.a_float
    cx, cy, z = placement.pole_float

    def point(phi: float) -> Tuple[float, float, float]:
        r = math.cos(n * phi / d) + a
        return (cx + r * math.cos(phi), cy + r * math.sin(phi), z)

    return point


def _branch_below(spec: CurveSpec) -> bool:
    """True when the d < n table branch applies (n = d = 1 included).

    ``surface.table_branch`` names this branch "lt" and the other "gt".
    """
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
# With w = x^2 + y^2 and S = Re (x + iy)^n = sum_i (-1)^i C(n,2i) x^(n-2i) y^(2i),
# the curve satisfies S = w^(n/2) T_d(sqrt(w) - a), T_d the Chebyshev
# polynomial.  T_d(sqrt(w) - a) = E(w) + sqrt(w) O(w) splits into an even and
# an odd part; isolating the part that carries a lone sqrt(w) and squaring
# eliminates the radical, which yields a polynomial of total degree 2(n+d).
# For odd-product roses that part is zero and the unsquared side, of degree
# n+d, is the equation.  Writing a = p/r and scaling S, E and O by r^d keeps
# every coefficient an integer, so the build runs on {(i, j): int} term maps;
# they become a MultiPoly once, and its primitive part is the equation.


def _cos_multiple_angle(n: int, scale: int) -> dict:
    """scale * sum_{2i <= n} (-1)^i C(n,2i) x^(n-2i) y^(2i)."""
    return {(n - 2 * i, 2 * i): scale * (-1) ** i * comb(n, 2 * i) for i in range(n // 2 + 1)}


def _radial_coeffs(d: int, p: int, r: int) -> Tuple[list, list]:
    """Integer coefficients of E and O in r^d T_d(sqrt(w) - p/r) = E(w) + sqrt(w) O(w)."""
    previous, chebyshev = [1], [0, 1]
    for _ in range(d - 1):
        following = [0] + [2 * c for c in chebyshev]
        for k, c in enumerate(previous):
            following[k] -= c
        previous, chebyshev = chebyshev, following
    # r^d (s - p/r)^m = r^(d-m) (r s - p)^m, collected by powers of s = sqrt(w).
    coeffs = [0] * (d + 1)
    for m, t in enumerate(chebyshev):
        for k in range(m + 1):
            coeffs[k] += t * comb(m, k) * (-p) ** (m - k) * r ** (d - m + k)
    return coeffs[0::2], coeffs[1::2]


def _w_power_poly(coeffs: Sequence[int], shift: int) -> dict:
    """Expand w^shift * sum_l coeffs[l] w^l with w = x^2 + y^2."""
    terms = {}
    for l, c in enumerate(coeffs):
        m = l + shift
        for k in range(m + 1):
            key = (2 * k, 2 * (m - k))
            terms[key] = terms.get(key, 0) + c * comb(m, k)
    return terms


def _sub(p: dict, q: dict) -> dict:
    difference = dict(p)
    for e, c in q.items():
        difference[e] = difference.get(e, 0) - c
    return difference


def _mul(p: dict, q: dict) -> dict:
    product = {}
    for (i, j), c in p.items():
        for (k, l), e in q.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + c * e
    return product


@lru_cache(maxsize=None)
def implicit_equation(spec: CurveSpec) -> MultiPoly:
    """Primitive integer polynomial in (x, y) vanishing on the whole curve.

    Total degree equals ``curve_properties(spec).order``; the sign is pinned
    by the canonical-order leading coefficient.
    """
    n, d, r = spec.n, spec.d, spec.a.denominator
    even, odd = _radial_coeffs(d, spec.a.numerator, r)
    # Even n: S - w^(n/2) E = sqrt(w)^(n+1) O.  Odd n: S - w^((n+1)/2) O = sqrt(w)^n E.
    kept, radical = (even, odd) if n % 2 == 0 else (odd, even)
    body = _sub(_cos_multiple_angle(n, r**d), _w_power_poly(kept, (n + 1) // 2))
    if spec.is_odd_rose:
        return MultiPoly(XY, body).primitive()
    square = [0] * (2 * len(radical) - 1)
    for k, c in enumerate(radical):
        for l, e in enumerate(radical):
            square[k + l] += c * e
    terms = _sub(_mul(body, body), _w_power_poly(square, n + 1 - n % 2))
    return MultiPoly(XY, terms).primitive()


@lru_cache(maxsize=None)
def homogeneous_implicit(spec: CurveSpec) -> MultiPoly:
    """Implicit equation over (x0, x1, x2) with x = x1/x0, y = x2/x0."""
    return implicit_equation(spec).rename_variables(("x1", "x2")).homogenize("x0")


# -- tangent cone at the pole ----------------------------------------------------


def origin_cone_constant(spec: CurveSpec) -> Fraction:
    """T_d(-a), the value E(0)/r^d of the even radial sum at the pole."""
    r = spec.a.denominator
    return Fraction(_radial_coeffs(spec.d, spec.a.numerator, r)[0][0], r**spec.d)


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
    ``implicit_equation(spec).lowest_form()`` there instead.  The cone
    constant p/q enters scaled by q, so the form is built on integers.
    """
    if spec.is_odd_rose:
        raise ValueError("odd-product rose: the pole cone is the degree-n lowest form")
    n = spec.n
    constant = origin_cone_constant(spec)
    s_terms = _cos_multiple_angle(n, constant.denominator)
    if n % 2 == 0:
        body = _sub(s_terms, _w_power_poly([constant.numerator], n // 2))
        return MultiPoly(XY, _mul(body, body)).primitive()
    terms = _sub(_w_power_poly([constant.numerator**2], n), _mul(s_terms, s_terms))
    return MultiPoly(XY, terms).primitive()


# -- multiplicity at the circular points at infinity ------------------------------


# Powers of i as (re, im) pairs, indexed by the exponent mod 4.
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def absolute_point_multiplicity(spec: CurveSpec) -> int:
    """Multiplicity of the curve at the circular point (0 : 1 : i).

    In the chart x1 = 1 put u = x0 and v = x2 - i.  The homogeneous equation
    becomes G(u, v) = sum c_ab u^(D-a-b) (i + v)^b, so its coefficient of
    u^s v^k is S_(s,k) = sum c_ab C(b, k) i^(b-k) over the terms with shift
    D - a - b = s.  The multiplicity is the lowest total degree s + k of a
    nonzero S_(s,k).  The equation is real, so the conjugate point
    (0 : 1 : -i) has the same multiplicity.

    Each S_(s,k) is a Gaussian integer held as an (re, im) pair of ints.
    The search runs from the lowest total degree up and stops at the first
    nonzero coefficient.
    """
    implicit = implicit_equation(spec)
    degree = implicit.total_degree
    by_shift: Dict[int, List[Tuple[int, int]]] = {}
    for (a, b), coeff in implicit.terms.items():
        by_shift.setdefault(degree - a - b, []).append((b, coeff.re))  # the equation is real
    for order in range(degree + 1):
        for shift, terms in by_shift.items():
            k = order - shift  # u^shift v^k, with v^k taken from (i + v)^b
            if k < 0:
                continue
            re = im = 0
            for b, c in terms:
                if k > b:
                    continue
                value = c * comb(b, k)
                unit_re, unit_im = _I_POWERS[(b - k) % 4]
                re += unit_re * value
                im += unit_im * value
            if re or im:
                return order
    raise RuntimeError("the implicit equation is zero")


def verified_absolute_multiplicity(spec: CurveSpec, seed: Optional[int] = None) -> int:
    """:func:`absolute_point_multiplicity`; ``seed`` is ignored, kept for older callers."""
    return absolute_point_multiplicity(spec)
