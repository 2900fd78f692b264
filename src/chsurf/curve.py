"""Cyclic-harmonic curves r(phi) = cos(n*phi/d) + a and their exact algebra.

The polar family is parametrized by coprime positive integers n, d and a
rational offset a >= 0.  Everything symbolic here is exact: the implicit
equation and the pole tangent cone are built on integer term maps (with
a = p/r, every radial sum is scaled by r^d = den(a)^d).  These maps are
built here and never validated: ``MultiPoly._primitive_of_ints`` turns each
one into its primitive ``MultiPoly`` in one pass, dividing out the content
and pinning the sign.  The property table (order, multiplicity at the pole,
multiplicity at the circular points at infinity) is integer arithmetic.
The circular-point multiplicity is also read off the implicit equation, as
the lowest degree of its expansion at (0 : 1 : i).  That expansion is never
formed: its coefficients of u^s v^k are the Taylor coefficients at t = i of
one real polynomial g_s(t) per shift s, so the lowest k with a nonzero one is
the multiplicity of the root i of g_s.  g_s is real, so that is how often
t^2 + 1 divides g_s exactly, counted by integer division.  The implicit
equation squares no bivariate map: with S = Re z^n it takes S^2 from the
identity 2 S^2 = w^n + Re z^(2n), so its only squares are univariate in
w = x^2 + y^2.  The tangent cone squares its own body directly, by symmetry
(c^2 per term, 2 c_i c_j per pair), so the cone check compares two
different constructions.  The pole cone constant
T_d(-a) has a second exact route, a binomial closed form.  Floating point
only enters through the polar/point samplers.

All functions are pure and the spec types are frozen, so the equations are
cached per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd
from typing import Dict, List, Optional, Sequence, Tuple

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

    @property
    def trace_period(self) -> float:
        """Length of the interval traced once: ``parameter_period``, halved for odd roses."""
        return self.parameter_period / 2.0 if self.is_odd_rose else self.parameter_period

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

    ``surface.singular_circles`` lists the inline copies of these
    operations in ``surface``'s inner loops.
    """
    r = polar_radius(spec, phi)
    cx, cy, z = placement.pole_float
    return (cx + r * math.cos(phi), cy + r * math.sin(phi), z)


def _gaussian_power(re: int, im: int, k: int) -> Tuple[int, int]:
    """(re + i im)^k on ints, by repeated squaring."""
    out_re, out_im = 1, 0
    while k:
        if k & 1:
            out_re, out_im = out_re * re - out_im * im, out_re * im + out_im * re
        re, im = re * re - im * im, 2 * re * im
        k >>= 1
    return out_re, out_im


def rational_point(spec: CurveSpec, u: int, v: int) -> Tuple[int, int, int]:
    """Integers (X, Y, Z): the curve point at tan(theta/2) = u/v is (X/Z, Y/Z) from the pole.

    With theta = phi/d, q = u^2 + v^2 and w_k = (v + iu)^(2k), cos k*theta
    and sin k*theta are Re w_k / q^k and Im w_k / q^k.  With a = p/m the
    radius is rho / (m q^n), rho = m Re w_n + p q^n, so X = rho Re w_d,
    Y = rho Im w_d and Z = m q^(n+d).  The point is the pole exactly when
    rho = 0, that is when cos n*theta = -a.
    """
    n, d, p, m = spec.n, spec.d, spec.a.numerator, spec.a.denominator
    q = u * u + v * v
    half = (v * v - u * u, 2 * u * v)  # w_1 = (v + iu)^2
    rho = m * _gaussian_power(*half, n)[0] + p * q**n
    re_d, im_d = _gaussian_power(*half, d)
    return rho * re_d, rho * im_d, m * q ** (n + d)


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
# an odd part.  Writing a = p/r and scaling by c = r^d keeps every coefficient
# an integer: c S - w^s K = sqrt(w)^t R, with (s, K, t, R) = (n/2, E, n+1, O)
# for even n and ((n+1)/2, O, n, E) for odd n.  For odd-product roses R is
# zero and the body c S - w^s K, of degree n+d, is the equation.  Otherwise
# squaring eliminates the radical: F = (c S - w^s K)^2 - w^t R^2, of total
# degree 2(n+d).  Since 2 S^2 = w^n + Re z^(2n) (z = x + iy),
#
#     2 F = c^2 Re z^(2n) + U(w) - 4 c S w^s K(w),
#     U(w) = c^2 w^n + 2 w^(2s) K(w)^2 - 2 w^t R(w)^2,
#
# so the only squares are of the univariate K and R, and the one bivariate
# product is S's floor(n/2) + 1 terms times the expanded w^s K.  The build
# runs on {(i, j): int} term maps, and one pass of
# MultiPoly._primitive_of_ints takes 2 F straight to the primitive equation,
# which is also the primitive part of F.


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
    """Expand w^shift * sum_l coeffs[l] w^l with w = x^2 + y^2.

    Each power w^m gives the terms x^(2k) y^(2(m-k)) of total degree 2m
    alone, so no two (l, k) share a key.
    """
    return {
        (2 * k, 2 * (m - k)): c * comb(m, k)
        for m, c in enumerate(coeffs, shift)
        if c
        for k in range(m + 1)
    }


def _sub(p: dict, q: dict) -> dict:
    difference = dict(p)
    for e, c in q.items():
        difference[e] = difference.get(e, 0) - c
    return difference


def _square(p: dict) -> dict:
    """p^2, as c^2 per term plus 2 c_i c_j per pair i < j of terms."""
    items = list(p.items())
    square = {}
    get = square.get
    for index, ((i, j), c) in enumerate(items):
        key = (2 * i, 2 * j)
        square[key] = get(key, 0) + c * c
        twice = 2 * c
        for (k, l), e in items[index + 1 :]:
            key = (i + k, j + l)
            square[key] = get(key, 0) + twice * e
    return square


@lru_cache(maxsize=None)
def implicit_equation(spec: CurveSpec) -> MultiPoly:
    """Primitive integer polynomial in (x, y) vanishing on the whole curve.

    Total degree equals ``curve_properties(spec).order``; the sign is pinned
    by the canonical-order leading coefficient.
    """
    n, d, r = spec.n, spec.d, spec.a.denominator
    even, odd = _radial_coeffs(d, spec.a.numerator, r)
    # Even n: c S - w^(n/2) E = sqrt(w)^(n+1) O.  Odd n: c S - w^((n+1)/2) O = sqrt(w)^n E.
    kept, radical = (even, odd) if n % 2 == 0 else (odd, even)
    s, t, c = (n + 1) // 2, n + 1 - n % 2, r**d
    if spec.is_odd_rose:
        body = _sub(_cos_multiple_angle(n, c), _w_power_poly(kept, s))
        return MultiPoly._primitive_of_ints(XY, body)
    # 2 F = c^2 Re z^(2n) + U(w) - 4 c S w^s K(w); U's degree in w is at most n + d.
    u = [0] * (n + d + 1)
    u[n] = c * c
    for k, e in enumerate(kept):
        for l, f in enumerate(kept):
            u[2 * s + k + l] += 2 * e * f
    for k, e in enumerate(radical):
        for l, f in enumerate(radical):
            u[t + k + l] -= 2 * e * f
    terms = _w_power_poly(u, 0)
    get = terms.get
    for key, e in _cos_multiple_angle(2 * n, c * c).items():
        terms[key] = get(key, 0) + e
    cross = _w_power_poly(kept, s).items()
    for (i, j), e in _cos_multiple_angle(n, 4 * c).items():
        for (k, l), f in cross:
            key = (i + k, j + l)
            terms[key] = get(key, 0) - e * f
    return MultiPoly._primitive_of_ints(XY, terms)


@lru_cache(maxsize=None)
def homogeneous_implicit(spec: CurveSpec) -> MultiPoly:
    """Implicit equation over (x0, x1, x2) with x = x1/x0, y = x2/x0, padded by powers of x0."""
    affine = implicit_equation(spec)
    degree = affine.total_degree
    terms = {(degree - a - b, a, b): c for (a, b), c in affine.terms.items()}
    return MultiPoly(("x0", "x1", "x2"), terms, degree)


# -- tangent cone at the pole ----------------------------------------------------


def origin_cone_constant(spec: CurveSpec) -> Fraction:
    """T_d(-a), the value E(0)/r^d of the even radial sum at the pole."""
    r = spec.a.denominator
    return Fraction(_radial_coeffs(spec.d, spec.a.numerator, r)[0][0], r**spec.d)


def origin_cone_constant_closed(spec: CurveSpec) -> Fraction:
    """T_d(-a) from the closed form ((-a + s)^d + (-a - s)^d)/2 with s^2 = a^2 - 1.

    Expanded by the binomial theorem the odd powers of s cancel, leaving the
    rational sum over even k of C(d, k) (a^2 - 1)^(k/2) (-a)^(d-k).  It
    shares nothing with the Chebyshev recurrence of ``_radial_coeffs``.
    """
    a, d = spec.a, spec.d
    return sum(comb(d, k) * (a * a - 1) ** (k // 2) * (-a) ** (d - k) for k in range(0, d + 1, 2))


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
        return MultiPoly._primitive_of_ints(XY, _square(body))
    terms = _sub(_w_power_poly([constant.numerator**2], n), _square(s_terms))
    return MultiPoly._primitive_of_ints(XY, terms)


# -- multiplicity at the circular points at infinity ------------------------------


def _t2_plus_1_multiplicity(coeffs: List[int], limit: int) -> int:
    """How often t^2 + 1 divides sum coeffs[b] t^b exactly, counted up to ``limit``.

    ``coeffs`` is dense with a nonzero last entry.  Each step divides by the
    monic t^2 + 1 from the top, so the quotient stays integral, and stops at
    the first nonzero remainder.
    """
    count = 0
    while count < limit and len(coeffs) > 2:
        quotient = coeffs[2:] + [0, 0]
        for b in range(len(quotient) - 3, 1, -1):
            quotient[b - 2] -= quotient[b]
        if quotient[0] != coeffs[0] or quotient[1] != coeffs[1]:
            break
        coeffs = quotient[:-2]
        count += 1
    return count


def absolute_point_multiplicity(spec: CurveSpec) -> int:
    """Multiplicity of the curve at the circular point (0 : 1 : i).

    In the chart x1 = 1 put u = x0 and v = x2 - i.  The homogeneous equation
    becomes G(u, v) = sum c_ab u^(D-a-b) (i + v)^b, so its coefficient of
    u^s v^k is S_(s,k) = sum c_ab C(b, k) i^(b-k) over the terms with shift
    D - a - b = s.  The multiplicity is the lowest total degree s + k of a
    nonzero S_(s,k).  The equation is real, so the conjugate point
    (0 : 1 : -i) has the same multiplicity.

    S_(s,k) is read without expanding it.  With g_s(t) = sum c_ab t^b over
    the shift-s terms, S_(s,k) is the k-th Taylor coefficient of g_s at
    t = i, so the lowest k with S_(s,k) != 0 is the multiplicity of the
    root t = i of g_s.  g_s is real, so -i is a root of the same
    multiplicity, and that is how often t^2 + 1 divides g_s exactly.  The
    shifts run from the lowest up, and each count stops once s + k reaches
    the lowest total degree found so far.
    """
    implicit = implicit_equation(spec)
    degree = implicit.total_degree
    by_shift: Dict[int, Dict[int, int]] = {}
    for (a, b), coeff in implicit.terms.items():
        by_shift.setdefault(degree - a - b, {})[b] = coeff.re  # the equation is real
    if not by_shift:
        raise RuntimeError("the implicit equation is zero")
    best = degree + 1
    for shift in sorted(by_shift):
        if shift >= best:
            break
        terms = by_shift[shift]
        coeffs = [0] * (max(terms) + 1)
        for b, c in terms.items():
            coeffs[b] = c
        best = min(best, shift + _t2_plus_1_multiplicity(coeffs, best - shift))
    return best


def verified_absolute_multiplicity(spec: CurveSpec, seed: Optional[int] = None) -> int:
    """:func:`absolute_point_multiplicity`, ``seed`` ignored; called by ``bench/cases.py`` only."""
    return absolute_point_multiplicity(spec)
