"""Circular surfaces swept by family circles through a placed curve.

A surface is the union of all circles of a congruence (the family fixed
by ``SurfaceSpec.q``) that meet a cyclic-harmonic curve placed in a
horizontal plane.  Its algebraic invariants (order, multiplicity of the
absolute conic, of the z axis, and of the two base points) depend only on
the curve's property table and on how the curve sits relative to the axis;
``classify`` computes them twice, once from the general count formulas and
once from the closed-form classification table, and insists the two agree.

A circle is keyed (``circle_key``) and its points are placed
(``parametric_point``) from the frame of one point on it (``_circle_frame``).

Incidence with the axis is decided exactly over the rationals.  With the
pole on the axis it is a comparison of the placement with q; off the axis
the branch count is the degree of a polynomial gcd over Q(i), computed on
Gaussian integers, so no float tolerance enters the classification.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from .curve import (
    CurveSpec,
    Placement,
    _branch_below,
    curve_point,
    curve_properties,
)

AXIS_EPS = 1e-9
RADICAND_EPS = 1e-12
PARAM_DEDUP = 1e-6
ROOT_EPS = 1e-9
DEFAULT_ROOT_GRID = 4096


@dataclass(frozen=True)
class SurfaceSpec:
    """A placed curve and the congruence of circles through (0, 0, +-sqrt(q)).

    ``q`` is the squared height of the congruence's two base points on the
    z axis.  Its sign gives the family: elliptic (q > 0, two real base
    points), parabolic (q = 0, the points coincide at the origin and every
    circle is tangent to the z axis there) or hyperbolic (q < 0, the points
    are imaginary and the real locus of zero-radius circles is the waist
    x^2 + y^2 = -q in the plane z = 0).
    """

    curve: CurveSpec
    q: Fraction
    placement: Placement

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))

    @cached_property
    def q_float(self) -> float:
        """``float(q)``, converted once per spec."""
        return float(self.q)

    @cached_property
    def plane_extent(self) -> float:
        """Coarse bound on planar coordinates: pole offset plus peak radius.

        It is at least 1.0 and scales the axis tests, which compare a planar
        distance, so the height of the curve's plane does not widen them.
        """
        cx, cy, _ = self.placement.pole_float
        return 1.0 + self.curve.a_float + math.hypot(cx, cy)

    @cached_property
    def extent(self) -> float:
        """Coarse bound on coordinates: ``plane_extent`` plus the plane's height.

        Every term is non-negative, so it is at least 1.0 and scales a
        tolerance as it is.
        """
        return self.plane_extent + abs(self.placement.pole_float[2])

    @cached_property
    def axis_bound(self) -> float:
        """Planar distance within which a point counts as on the z axis."""
        return AXIS_EPS * self.plane_extent


@dataclass(frozen=True)
class IncidenceType:
    """How the curve meets the axis: kind 1-5, branch count j for kinds 3-4."""

    kind: int
    j: Optional[int] = None

    def __post_init__(self):
        if self.kind not in (1, 2, 3, 4, 5):
            raise ValueError(f"kind must be 1..5, got {self.kind}")
        if self.kind in (3, 4):
            if not self.j or self.j < 1:
                raise ValueError("kinds 3 and 4 require j >= 1")
        elif self.j is not None:
            raise ValueError(f"kind {self.kind} does not take j")


@dataclass(frozen=True)
class SurfaceClassification:
    order: int
    absolute_conic: int
    axis: int
    directing_points: int
    type_label: str
    j: Optional[int] = None

    def numbers(self) -> Tuple[int, int, int, int]:
        return (self.order, self.absolute_conic, self.axis, self.directing_points)

    def to_dict(self) -> dict:
        record = {
            "type": self.type_label,
            "order": self.order,
            "absolute_conic": self.absolute_conic,
            "axis": self.axis,
            "directing_points": self.directing_points,
        }
        if self.j is not None:
            record["j"] = self.j
        return record


@dataclass(frozen=True)
class CircleKey:
    """Canonical coordinates of one circle of a congruence.

    Every circle of a family lies in a meridian plane (a plane containing
    the z axis) with its center on the plane z = 0, so three numbers pin it:
    the meridian direction modulo pi, the signed center offset in that
    half-plane, and the radius (dependent data, radius^2 = offset^2 + q,
    carried for convenience).  ``meridian_angle`` lies in [0, pi); flipping
    the half-plane by pi negates ``center_offset`` and names the same circle.
    """

    meridian_angle: float
    center_offset: float
    radius: float


# -- parametric evaluation -------------------------------------------------------


def radicand(point: Tuple[float, float, float], q: float) -> float:
    """4*q*|a_xy|^2 + (|a|^2 - q)^2 at a curve point a, clamped at zero.

    ``point`` is the curve point (x, y, z) and ``q`` the float of the
    congruence's q.  Algebraically this equals (|a|^2 + q)^2 - 4*q*z^2,
    which is non-negative for every q and vanishes exactly where the curve
    meets the zero-radius circle of a hyperbolic family.
    """
    x, y, z = point
    rho_sq = x * x + y * y
    norm_sq = rho_sq + z * z
    try:
        value = 4.0 * q * rho_sq + (norm_sq - q) ** 2
        scale = max(1.0, (norm_sq + abs(q)) ** 2)
    except OverflowError:
        raise OverflowError("the radicand at a curve point overflows float64") from None
    if abs(value) <= RADICAND_EPS * scale:
        return 0.0
    return value


def _circle_frame(spec: SurfaceSpec, point: Tuple[float, float, float]) -> Optional[tuple]:
    """The generating circle through a curve point, as ``parametric_point`` reads it.

    Returns ``(x, y, root, norm_sq, two_rho_sq, two_rho)``: the point's
    planar coordinates, ``sqrt(radicand)``, ``|p|^2``, ``2*rho^2`` and
    ``2*rho`` with ``rho`` the point's distance from the z axis.  Returns
    None when ``rho`` is within the spec's ``axis_bound`` of the axis,
    where the circle is not unique.  ``root == 0.0`` marks a point circle;
    with q >= 0 it is the clamp near the axis (see :func:`generating_circle`).
    """
    x, y, z = point
    rho_sq = x * x + y * y
    rho = math.sqrt(rho_sq)
    if rho <= spec.axis_bound:
        return None
    root = math.sqrt(radicand(point, spec.q_float))
    return (x, y, root, rho_sq + z * z, 2.0 * rho_sq, 2.0 * rho)


def parametric_point(frame: tuple, q: float, cos_theta, sin_theta) -> tuple:
    """Point at angle theta on the circle of a :func:`_circle_frame`; q is the float q.

    ``along = (root*cos theta + |p|^2 - q) * (1/(2*rho^2))`` gives
    ``(x*along, y*along, root/(2*rho) * sin theta)``.  Frame entries, cosine
    and sine may be floats or broadcasting numpy arrays; every operation is
    elementwise, so each array element has the bits of the float call.
    """
    x, y, root, norm_sq, two_rho_sq, two_rho = frame
    along = (root * cos_theta + norm_sq - q) * (1.0 / two_rho_sq)
    return (x * along, y * along, root / two_rho * sin_theta)


def circle_key(frame: tuple, q: float) -> CircleKey:
    """The key of the circle of a :func:`_circle_frame`; q is the float q.

    In signed meridian coordinates (u, z) the circle has center (c, 0) with
    c = (|p|^2 - q) / (2u) and radius sqrt(c^2 + q), which is exactly the
    distance from (c, 0) to the point p.
    """
    x, y, _, norm_sq, _, _ = frame
    angle = math.atan2(y, x) % math.pi
    if angle >= math.pi:  # atan2 output of exactly pi wraps to 0
        angle = 0.0
    u = x * math.cos(angle) + y * math.sin(angle)
    offset = (norm_sq - q) / (2.0 * u)
    return CircleKey(angle, offset, math.sqrt(offset * offset + q))


def circle_key_close(k1: CircleKey, k2: CircleKey, tol: float) -> bool:
    """Whether two keys name the same circle, up to the half-plane flip."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = max(1.0, abs(k1.center_offset), abs(k2.center_offset), k1.radius, k2.radius)
    if abs(k1.radius - k2.radius) > tol * scale:
        return False
    d_angle = abs(k1.meridian_angle - k2.meridian_angle)
    if d_angle <= tol and abs(k1.center_offset - k2.center_offset) <= tol * scale:
        return True
    # Wrap across the 0/pi boundary: the flipped representative negates the offset.
    return abs(d_angle - math.pi) <= tol and abs(k1.center_offset + k2.center_offset) <= tol * scale


def generating_circle(spec: SurfaceSpec, t: float) -> CircleKey:
    """CircleKey of the generating circle at curve parameter t.

    A ``ValueError`` on the z axis, which every circle meets, or on a point
    circle.  Only q < 0 has point circles off the axis; with q >= 0 a zero
    root is the radicand's clamp near the axis, and the key stands.
    """
    q = spec.q_float
    frame = _circle_frame(spec, curve_point(spec.curve, spec.placement, t))
    if frame is None:
        raise ValueError(f"the curve meets the z axis at t = {t!r}, so no one circle passes there")
    if frame[2] == 0.0 and q < 0:
        raise ValueError(f"the generating circle at t = {t!r} is a point circle")
    return circle_key(frame, q)


# -- incidence with the axis ------------------------------------------------------


def _gauss_gcd(p: Tuple[int, int], q: Tuple[int, int]) -> Tuple[int, int]:
    """A gcd of two Gaussian integers (re, im), up to a unit."""
    a, b = p
    c, d = q
    while c or d:
        norm = c * c + d * d
        # (a + bi) / (c + di), each part rounded to the nearest integer.
        qr = (2 * (a * c + b * d) + norm) // (2 * norm)
        qi = (2 * (b * c - a * d) + norm) // (2 * norm)
        a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
    return a, b


def _primitive(p: list) -> list:
    """p divided by a Gaussian gcd of its coefficients, p not all zero."""
    g = (0, 0)
    for c in p:
        if c[0] or c[1]:
            g = _gauss_gcd(c, g)
            if g[0] * g[0] + g[1] * g[1] == 1:
                return p
    gr, gi = g
    norm = gr * gr + gi * gi
    return [((re * gr + im * gi) // norm, (im * gr - re * gi) // norm) for re, im in p]


def _gcd_degree(a: list, b: list) -> int:
    """Degree of gcd(a, b) over Q(i), for b != 0.

    A polynomial is the list of its Gaussian-integer (re, im) coefficients,
    lowest degree first; leading zeros are allowed.  The gcd is found by a
    primitive pseudo-remainder sequence: each remainder is computed without
    division and then divided by a Gaussian gcd of its coefficients.
    Dividing by the gcd of the integer parts alone is not enough: a content
    factor such as 1+2i is no rational integer, and it would compound from
    one remainder to the next.
    """
    a, b = list(a), list(b)
    while True:
        while b and not (b[-1][0] or b[-1][1]):
            b.pop()
        if not b:
            return len(a) - 1
        b = _primitive(b)
        lead_re, lead_im = b[-1]
        shift = len(b) - 1
        for top in range(len(a) - 1, shift - 1, -1):
            cr, ci = a[top]
            if not (cr or ci):
                continue
            # a <- lead * a - a[top] * z^(top - shift) * b, which clears a[top].
            low = top - shift
            for k in range(top):
                re, im = a[k]
                re, im = lead_re * re - lead_im * im, lead_re * im + lead_im * re
                if k >= low:
                    br, bi = b[k - low]
                    re -= cr * br - ci * bi
                    im -= cr * bi + ci * br
                a[k] = (re, im)
        a, b = b, a[:shift]


def _axis_passage_count(curve: CurveSpec, placement: Placement) -> int:
    """Parameters in [0, 2*d*pi) at which the curve meets the axis, pole off it.

    With the axis at (u, v) = (-cx, -cy) from the pole and z = exp(i*phi/d),
    the 2d angles phi = atan2(v, u) + k*pi aimed at the axis are the simple
    roots of g(z) = (u^2 + v^2)*z^(2d) - (u+iv)^2, and phi is a passage iff
    r(phi) = (u-iv)*exp(i*phi), i.e. f(z) = z^(2n) + 2a*z^n + 1 - 2(u-iv)*z^(n+d)
    vanishes there too.  So the count is deg gcd(f, g), exact over Q(i).
    Scaling f by the common denominator L of a, cx and cy, and g by L^2,
    gives both Gaussian-integer coefficients.
    """
    n, d = curve.n, curve.d
    scale = math.lcm(curve.a.denominator, placement.cx.denominator, placement.cy.denominator)
    a = int(curve.a * scale)
    u, v = int(-placement.cx * scale), int(-placement.cy * scale)
    f = [(0, 0)] * (max(2 * n, n + d) + 1)
    for exponent, (re, im) in ((0, (scale, 0)), (n, (2 * a, 0)), (2 * n, (scale, 0)), (n + d, (-2 * u, 2 * v))):
        f[exponent] = (f[exponent][0] + re, f[exponent][1] + im)
    g = [(v * v - u * u, -2 * u * v)] + [(0, 0)] * (2 * d - 1) + [(u * u + v * v, 0)]
    return _gcd_degree(f, g)


def incidence_type(spec: SurfaceSpec) -> IncidenceType:
    """Detect which classification case the placement realizes, exactly.

    With the pole on the axis the kind follows from the height and q.  Off
    the axis, j counts the parameters of the passages through the axis, odd
    roses identifying the two retraced halves; a cusp is one parameter, and
    isolated complex points of the implicit curve are none.
    """
    placement = spec.placement
    q = spec.q
    if placement.pole_on_axis:
        return IncidenceType(1) if placement.height**2 == q else IncidenceType(2)
    passages = _axis_passage_count(spec.curve, placement)
    if not passages:
        return IncidenceType(5)
    j = passages // 2 if spec.curve.is_odd_rose else passages
    at_directing_point = q >= 0 and placement.height**2 == q
    return IncidenceType(3 if at_directing_point else 4, j)


# -- classification ---------------------------------------------------------------


def classification_from_counts(
    m: int, conic_pairs: int, axis_points: int, p1: int, p2: int
) -> Tuple[int, int, int, int]:
    """(order, absolute conic, axis, directing points) from the curve's counts.

    ``m``: curve order; ``conic_pairs``: multiplicity at the circular points
    at infinity; ``axis_points``: intersections with the axis; ``p1``/``p2``:
    multiplicities at the two base points.
    """
    counts = (m, conic_pairs, axis_points, p1, p2)
    if any(not isinstance(v, int) or v < 0 for v in counts):
        raise ValueError(f"counts must be non-negative integers, got {counts}")
    order = 3 * m - (axis_points + 2 * conic_pairs + 2 * p1 + 2 * p2)
    conic = m - (axis_points + p1 + p2)
    axis = m - 2 * conic_pairs + axis_points
    points = 2 * m - (2 * conic_pairs + p1 + p2)
    if order <= 0 or points <= 0 or conic < 0 or axis < 0:
        raise ValueError(
            f"inconsistent counts {counts}: order={order}, conic={conic}, "
            f"axis={axis}, points={points}"
        )
    return (order, conic, axis, points)


Row = Callable[[int, int, int], Tuple[int, int, int, int]]

# Closed forms of the classification table, keyed by
# (incidence kind, "A" for odd-product roses else "B", "lt" when d < n).
CLASSIFICATION_TABLE: Dict[Tuple[int, str, str], Row] = {
    (1, "A", "lt"): lambda n, d, j: (n + d, d, n - d, n),
    (1, "A", "gt"): lambda n, d, j: (2 * d, d, 0, d),
    (1, "B", "lt"): lambda n, d, j: (2 * (n + d), 2 * d, 2 * (n - d), 2 * n),
    (1, "B", "gt"): lambda n, d, j: (4 * d, 2 * d, 0, 2 * d),
    (2, "A", "lt"): lambda n, d, j: (2 * n + d, d, 2 * n - d, 2 * n),
    (2, "A", "gt"): lambda n, d, j: (n + 2 * d, d, n, n + d),
    (2, "B", "lt"): lambda n, d, j: (2 * (2 * n + d), 2 * d, 2 * (2 * n - d), 4 * n),
    (2, "B", "gt"): lambda n, d, j: (2 * (n + 2 * d), 2 * d, 2 * n, 2 * (n + d)),
    (3, "A", "lt"): lambda n, d, j: (3 * n + d - 2 * j, n + d - j, n - d, 2 * n - j),
    (3, "A", "gt"): lambda n, d, j: (2 * (n + d) - 2 * j, n + d - j, 0, n + d - j),
    (3, "B", "lt"): lambda n, d, j: (2 * (3 * n + d) - 2 * j, 2 * (n + d) - j, 2 * (n - d), 4 * n - j),
    (3, "B", "gt"): lambda n, d, j: (4 * (n + d) - 2 * j, 2 * (n + d) - j, 0, 2 * (n + d) - j),
    (4, "A", "lt"): lambda n, d, j: (3 * n + d - j, n + d - j, n - d + j, 2 * n),
    (4, "A", "gt"): lambda n, d, j: (2 * (n + d) - j, n + d - j, j, n + d),
    (4, "B", "lt"): lambda n, d, j: (2 * (3 * n + d) - j, 2 * (n + d) - j, 2 * (n - d) + j, 4 * n),
    (4, "B", "gt"): lambda n, d, j: (4 * (n + d) - j, 2 * (n + d) - j, j, 2 * (n + d)),
    (5, "A", "lt"): lambda n, d, j: (3 * n + d, n + d, n - d, 2 * n),
    (5, "A", "gt"): lambda n, d, j: (2 * (n + d), n + d, 0, n + d),
    (5, "B", "lt"): lambda n, d, j: (2 * (3 * n + d), 2 * (n + d), 2 * (n - d), 4 * n),
    (5, "B", "gt"): lambda n, d, j: (4 * (n + d), 2 * (n + d), 0, 2 * (n + d)),
}


def table_variant(curve: CurveSpec) -> str:
    return "A" if curve.is_odd_rose else "B"


def table_branch(curve: CurveSpec) -> str:
    return "lt" if _branch_below(curve) else "gt"


def table_row(curve: CurveSpec, incidence: IncidenceType) -> Tuple[int, int, int, int]:
    """(order, absolute conic, axis, directing points) from the closed-form table."""
    row = CLASSIFICATION_TABLE[(incidence.kind, table_variant(curve), table_branch(curve))]
    return row(curve.n, curve.d, incidence.j or 0)


def count_row(curve: CurveSpec, incidence: IncidenceType) -> Tuple[int, int, int, int]:
    """The same four numbers from the count formulas.

    Raises ``ValueError`` when the incidence cannot occur on this curve.
    """
    props = curve_properties(curve)
    origin, j = props.origin_multiplicity, incidence.j or 0
    if incidence.kind == 1:
        axis_points, p1, p2 = 0, origin, 0
    elif incidence.kind == 2:
        axis_points, p1, p2 = origin, 0, 0
    elif incidence.kind == 3:
        axis_points, p1, p2 = 0, j, 0
    elif incidence.kind == 4:
        axis_points, p1, p2 = j, 0, 0
    else:
        axis_points, p1, p2 = 0, 0, 0
    return classification_from_counts(props.order, props.absolute_multiplicity, axis_points, p1, p2)


def classify(spec: SurfaceSpec) -> SurfaceClassification:
    """Order and singular multiplicities of the surface, dual-path checked."""
    incidence = incidence_type(spec)
    curve = spec.curve
    from_counts = count_row(curve, incidence)
    expected = table_row(curve, incidence)
    if from_counts != expected:
        raise RuntimeError(
            f"classification paths disagree for {spec}: counts give "
            f"{from_counts}, table row gives {expected}"
        )
    return SurfaceClassification(
        *expected, type_label=f"{incidence.kind}{table_variant(curve)}", j=incidence.j
    )


# -- periodic root finding ------------------------------------------------------------


def _periodic_roots(f: Callable[[float], float], period: float, grid: int) -> List[float]:
    """Zeros of a smooth periodic function on [0, period).

    One pass over the grid reads each value with its two neighbours, which
    wrap around the seam at ``period``.  An exact zero is a root; a sign
    change with the following value is refined by bisection; a near-zero
    local minimum of |f| is refined by golden-section search, which catches
    tangential (even-order) contacts that never change sign.  A grid value
    that is not finite is an ``OverflowError``.
    """
    ts = [period * i / grid for i in range(grid)]
    vals = list(map(f, ts))
    if not all(map(math.isfinite, vals)):
        # An overflowed grid makes every point look like a root.
        raise OverflowError("a sampled value of the gap is not finite in float64")
    scale = max(1.0, max(map(abs, vals)))
    step = period / grid

    def bisect(lo: float, hi: float, flo: float) -> float:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fmid = f(mid)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
            if hi - lo <= 1e-12:
                break
        return 0.5 * (lo + hi)

    def golden_min(lo: float, hi: float) -> float:
        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = abs(f(c)), abs(f(d))
        for _ in range(90):
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = abs(f(c))
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = abs(f(d))
            if b - a <= 1e-12:
                break
        return 0.5 * (a + b)

    roots: List[float] = []
    previous = vals[-1:] + vals[:-1]
    following = vals[1:] + vals[:1]
    for t, before, here, after in zip(ts, previous, vals, following):
        if here == 0.0:
            roots.append(t)
            continue
        if here * after < 0.0:
            roots.append(bisect(t, t + step, here))
        size = abs(here)
        if size <= 1e-3 * scale and size <= abs(before) and size <= abs(after):
            candidate = golden_min(t - step, t + step) % period
            if abs(f(candidate)) <= ROOT_EPS * scale:
                roots.append(candidate)
    roots.sort()
    deduped: List[float] = []
    for value in roots:
        if not deduped or value - deduped[-1] > PARAM_DEDUP:
            deduped.append(value)
    if len(deduped) >= 2 and (deduped[0] + period) - deduped[-1] <= PARAM_DEDUP:
        deduped.pop()
    return deduped


def _plane_constants(spec: SurfaceSpec) -> Tuple[float, float, float, float, float]:
    """(n, d, a, cx, cy) as floats, for the inline copies of the curve point.

    ``n * t / d`` converts an int n or d as ``float()`` does anyway, so float
    n and d give the same bits with less work per evaluation.
    """
    cx, cy, _ = spec.placement.pole_float
    return (float(spec.curve.n), float(spec.curve.d), spec.curve.a_float, cx, cy)


def _gap_function(spec: SurfaceSpec, lift: float, shift: float) -> Callable[[float], float]:
    """t -> x^2 + y^2 + lift + shift at the curve point, summed left to right.

    With ``lift = z^2`` and ``shift = -q`` this is the gap to the sphere
    ``|p|^2 = q`` (subtracting q and adding -q are one IEEE operation); with
    ``lift = 0.0`` and ``shift = q`` it is the gap to the waist circle
    ``x^2 + y^2 = -q`` (adding 0.0 to a sum of squares changes no bit).  The
    point is computed inline with :func:`curve.curve_point`'s operations,
    so no point tuple is built; ``test_root_finders_match_curve_point_reference``
    pins the roots.
    """
    n, d, a, cx, cy = _plane_constants(spec)
    cos, sin = math.cos, math.sin

    def gap(t: float) -> float:
        r = cos(n * t / d) + a
        x = cx + r * cos(t)
        y = cy + r * sin(t)
        return x * x + y * y + lift + shift

    return gap


def _surd_positive(u: Fraction, v: Fraction, w: Fraction) -> bool:
    """Whether u + v*sqrt(w) > 0, for rationals u, v and w >= 0, decided by squaring."""
    if u >= 0 and v >= 0:
        return u > 0 or v * w > 0
    if u <= 0 and v <= 0:
        return False
    square = u * u - v * v * w
    return square > 0 if u > 0 else square < 0


def _misses_radius(spec: SurfaceSpec, radius_sq: Fraction) -> bool:
    """Whether no curve point lies at distance R = sqrt(radius_sq) from the axis, in Q.

    With the pole at c = (cx, cy) and A = 1 + a, every curve point P has
    max(|c| - A, (a - 1) - |c|) <= |P| <= |c| + A, so the curve misses the
    circle when R lies strictly outside that range.  Each comparison is
    squared into the sign of u + v*|c|, with |c| = sqrt(w).
    """
    placement, outer = spec.placement, 1 + spec.curve.a
    w = placement.cx * placement.cx + placement.cy * placement.cy

    def exceeds(u, v) -> bool:  # u + v*|c| > R >= 0
        return _surd_positive(u, v, w) and _surd_positive(u * u + v * v * w - radius_sq, 2 * u * v, w)

    beyond = _surd_positive(radius_sq - outer * outer - w, -2 * outer, w)  # R > |c| + A
    return beyond or exceeds(-outer, 1) or exceeds(spec.curve.a - 1, -1)


# -- singular circles ---------------------------------------------------------------


def _center_constants(spec: SurfaceSpec) -> tuple:
    """Floats of the center trace: (n, d, a, cx, cy, z_sq, q, axis_bound, waist_bound, scale).

    Gathered once per query for :func:`_center_function` and
    :func:`_polish_coincidence`; ``scale`` is the extent, at least 1, and
    ``axis_bound`` is the spec's.
    """
    n, d, a, cx, cy = _plane_constants(spec)
    z = spec.placement.pole_float[2]
    q = spec.q_float
    scale = spec.extent
    try:
        waist_bound = RADICAND_EPS * scale ** 2
    except OverflowError:
        raise OverflowError("the squared extent of the surface overflows float64") from None
    return (n, d, a, cx, cy, z * z, q, spec.axis_bound, waist_bound, scale)


def _center_function(constants: tuple) -> Callable[[float], Optional[Tuple[float, float]]]:
    """Center of the generating circle at t, mapped into the unit disk; None when degenerate.

    ``constants`` is :func:`_center_constants` of the spec.

    Away from the axis, two parameters share a generating circle exactly
    when their planar centers coincide at a nonzero point, so off-center
    singular circles are self-intersections of this trace.  The center c
    is returned as c / (1 + |c|), an injective map of the plane into the
    unit disk that keeps chord intersection tests meaningful where centers
    run off to infinity near an axis crossing of the curve.  The curve
    point is computed inline with :func:`curve.curve_point`'s operations in
    the same order, so the points are bit-identical to ones built on
    ``curve_point`` (``test_float_once_evaluators_match_curve_point``).
    """
    n, d, a, cx, cy, z_sq, q, axis_bound, waist_bound, _ = constants
    cos, sin, sqrt, hypot = math.cos, math.sin, math.sqrt, math.hypot

    def center(t: float) -> Optional[Tuple[float, float]]:
        r = cos(n * t / d) + a
        x = cx + r * cos(t)
        y = cy + r * sin(t)
        rho_sq = x * x + y * y
        if sqrt(rho_sq) <= axis_bound:
            return None
        lam = (rho_sq + z_sq - q) / (2.0 * rho_sq)
        if lam * lam * rho_sq + q <= waist_bound:
            return None  # zero-radius circle on the hyperbolic waist
        x *= lam
        y *= lam
        factor = 1.0 / (1.0 + hypot(x, y))
        return (x * factor, y * factor)

    return center


def _polish_coincidence(
    constants: tuple, t1: float, t2: float, domain: float
) -> Optional[Tuple[float, float, Tuple[float, float]]]:
    """Newton-polish (t1, t2) so the two circle centers coincide.

    ``constants`` is :func:`_center_constants` of the spec.  Returns the
    polished pair, reduced mod ``domain``, and the center there, or None.
    Each step is straight-line code with four inline copies of
    :func:`_center_function`'s planar center, before its map into the
    disk, each in its order of operations: the centers at t1 and t2, the
    convergence test, and only then the step centers at t1 + step and
    t2 + step, which the forward differences reuse; so a step that
    converges or ends the 60 computes no step center.
    After 60 steps the pair is accepted at a looser tolerance or rejected.
    None also means a degenerate center at t1, t2 or a step point, or a
    singular Jacobian.  ``test_polish_matches_reference_on_sweep_starts``
    replays every start of the sweep (and of one benchmark pool query that
    reaches the singular Jacobian) through a Newton step built on
    ``curve_point`` and expects the same result, None included, with each
    of the six exits seen at least once;
    ``test_polish_tests_convergence_before_its_step_centers`` pins the
    order of the convergence test and the step centers.
    """
    n, d, a, cx, cy, z_sq, q, axis_bound, waist_bound, scale = constants
    cos, sin, sqrt, hypot = math.cos, math.sin, math.sqrt, math.hypot
    step = 1e-7 * domain
    limit = 0.05 * domain
    tolerance = 1e-13 * scale
    for iteration in range(61):
        if iteration == 60:
            tolerance = 1e-10 * scale  # the last check, after 60 steps
        u1 = t1 % domain
        r = cos(n * u1 / d) + a
        x = cx + r * cos(u1)
        y = cy + r * sin(u1)
        rho_sq = x * x + y * y
        if sqrt(rho_sq) <= axis_bound:
            return None
        lam = (rho_sq + z_sq - q) / (2.0 * rho_sq)
        if lam * lam * rho_sq + q <= waist_bound:
            return None
        ax = lam * x
        ay = lam * y
        u2 = t2 % domain
        r = cos(n * u2 / d) + a
        x = cx + r * cos(u2)
        y = cy + r * sin(u2)
        rho_sq = x * x + y * y
        if sqrt(rho_sq) <= axis_bound:
            return None
        lam = (rho_sq + z_sq - q) / (2.0 * rho_sq)
        if lam * lam * rho_sq + q <= waist_bound:
            return None
        bx = lam * x
        by = lam * y
        fx = ax - bx
        fy = ay - by
        if hypot(fx, fy) <= tolerance:
            return (u1, u2, (ax, ay))
        if iteration == 60:
            return None
        t = (t1 + step) % domain
        r = cos(n * t / d) + a
        x = cx + r * cos(t)
        y = cy + r * sin(t)
        rho_sq = x * x + y * y
        if sqrt(rho_sq) <= axis_bound:
            return None
        lam = (rho_sq + z_sq - q) / (2.0 * rho_sq)
        if lam * lam * rho_sq + q <= waist_bound:
            return None
        sx = lam * x
        sy = lam * y
        t = (t2 + step) % domain
        r = cos(n * t / d) + a
        x = cx + r * cos(t)
        y = cy + r * sin(t)
        rho_sq = x * x + y * y
        if sqrt(rho_sq) <= axis_bound:
            return None
        lam = (rho_sq + z_sq - q) / (2.0 * rho_sq)
        if lam * lam * rho_sq + q <= waist_bound:
            return None
        tx = lam * x
        ty = lam * y
        j11 = ((sx - bx) - fx) / step
        j21 = ((sy - by) - fy) / step
        j12 = ((ax - tx) - fx) / step
        j22 = ((ay - ty) - fy) / step
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-18:
            return None
        dt1 = (-fx * j22 + fy * j12) / det
        dt2 = (-j11 * fy + j21 * fx) / det
        # max(-limit, min(limit, dt)) without the calls, NaN included.
        dt1 = dt1 if dt1 < limit else limit
        dt2 = dt2 if dt2 < limit else limit
        t1 += dt1 if dt1 > -limit else -limit
        t2 += dt2 if dt2 > -limit else -limit
    return None  # not reached: iteration 60 always returns


def _off_center_coincidences(spec: SurfaceSpec, samples: int) -> List[Tuple[float, float]]:
    """Parameter pairs sharing one generating circle with nonzero offset.

    The float kernel of :func:`singular_circles`.  The center trace over
    the curve's ``trace_period`` is sampled in the unit disk with
    :func:`_center_function`, and segment i joins samples i and i + 1 (mod
    samples).  A sweep over the segments' x-extents finds the pairs whose
    boxes overlap and tests each for a crossing on the spot, keeping only
    the crossings.  The crossing test is the one inline copy of the segment
    intersection, given the lower-index segment first, with bounds of 1e-12
    either side of [0, 1].  The crossings are then polished by
    :func:`_polish_coincidence` in ascending segment order.  So the result
    is the list an all-pairs scan would give, in the same order:
    ``test_sweep_matches_all_pairs_scan`` compares it with one built on
    ``curve_point`` and the test module's own ``_segment_intersection``, and
    ``test_surface_query_pool_byte_pin`` pins the CLI's output over the
    benchmark's query pool.
    """
    constants = _center_constants(spec)
    center = _center_function(constants)
    scale = constants[-1]
    domain = spec.curve.trace_period
    ts = [domain * i / samples for i in range(samples)]
    ends = ts[1:] + [domain]
    points = list(map(center, ts))
    nexts = points[1:] + points[:1]

    # Flat boxes, one slot per sample index; a segment with a degenerate end is left out.
    segments = [i for i in range(samples) if points[i] is not None and nexts[i] is not None]
    x_low = [0.0] * samples
    x_high = [0.0] * samples
    y_low = [0.0] * samples
    y_high = [0.0] * samples
    for i in segments:
        (ax, ay), (bx, by) = points[i], nexts[i]
        # min and max of each pair without the calls, NaN and -0.0 included.
        x_low[i] = bx if bx < ax else ax
        x_high[i] = bx if bx > ax else ax
        y_low[i] = by if by < ay else ay
        y_high[i] = by if by > ay else ay

    # Ordered by low x, a segment's x-extent meets (ends included) exactly
    # the later segments whose low x is at most its high x.
    order = sorted(segments, key=x_low.__getitem__)
    sorted_lows = [x_low[i] for i in order]
    crossings = []
    for pos, i in enumerate(order):
        top, y_min, y_max = x_high[i], y_low[i], y_high[i]
        for k in order[pos + 1 : bisect_right(sorted_lows, top, pos + 1)]:
            if y_low[k] > y_max or y_high[k] < y_min:
                continue
            if (k - i) % samples in (1, samples - 1):
                continue  # adjacent samples trace one passage, not two
            lo, hi = (i, k) if i < k else (k, i)
            # Do segments lo and hi cross?  s and u are the fractions along each.
            (p1x, p1y), (p2x, p2y) = points[lo], nexts[lo]
            (p3x, p3y), (p4x, p4y) = points[hi], nexts[hi]
            d1x, d1y = p2x - p1x, p2y - p1y
            d2x, d2y = p4x - p3x, p4y - p3y
            denom = d1x * d2y - d1y * d2x
            if denom == 0.0:
                continue
            bx, by = p3x - p1x, p3y - p1y
            s = (bx * d2y - by * d2x) / denom
            u = (bx * d1y - by * d1x) / denom
            if -1e-12 <= s <= 1.0 + 1e-12 and -1e-12 <= u <= 1.0 + 1e-12:
                crossings.append((lo, hi))
    crossings.sort()

    pairs: List[Tuple[float, float]] = []
    for lo, hi in crossings:
        t1 = 0.5 * (ts[lo] + ends[lo])
        t2 = 0.5 * (ts[hi] + ends[hi])
        polished = _polish_coincidence(constants, t1, t2, domain)
        if polished is None:
            continue
        t1, t2, at = polished
        if min(abs(t1 - t2), domain - abs(t1 - t2)) <= PARAM_DEDUP:
            continue  # collapsed to a single passage
        if math.hypot(*at) <= 1e-5 * scale:
            continue  # axis-centered circles are handled separately
        pairs.append((t1, t2))
    return pairs


def _axis_centered_groups(spec: SurfaceSpec, samples: int) -> List[List[float]]:
    """Passage groups on circles centered on the axis (elliptic only).

    Such a circle has radius sqrt(q), so its passages are the parameters in
    ``trace_period`` where the curve meets the sphere |p|^2 = q, grouped by
    meridian plane.  The plane z = h meets it only if q >= h^2, and the
    curve can reach that section, at distance sqrt(q - h^2) from the axis,
    only where :func:`_misses_radius` does not rule it out; both are tests
    in Q, and the root scan runs only when both pass.
    """
    q, h = spec.q, spec.placement.height
    if q <= 0 or q < h * h or _misses_radius(spec, q - h * h):
        return []
    z = spec.placement.pole_float[2]
    gap = _gap_function(spec, z * z, -spec.q_float)
    roots = _periodic_roots(gap, spec.curve.trace_period, max(4 * samples, 2048))
    planed = []
    for t in roots:
        x, y, _ = curve_point(spec.curve, spec.placement, t)
        if math.sqrt(x * x + y * y) <= spec.axis_bound:
            continue
        planed.append((math.atan2(y, x) % math.pi, t))
    groups: List[List[Tuple[float, float]]] = []
    for angle, t in sorted(planed):
        for group in groups:
            delta = abs(group[0][0] - angle)
            if min(delta, math.pi - delta) <= 1e-6:
                group.append((angle, t))
                break
        else:
            groups.append([(angle, t)])
    return [[t for _, t in group] for group in groups if len(group) >= 2]


def singular_circles(spec: SurfaceSpec, samples: int = 512) -> List[Tuple[CircleKey, int]]:
    """Circles met by the curve more than once, with their branch counts.

    Off-center circles come from self-intersections of the planar center
    trace, sampled in the unit disk at ``samples`` parameters
    (:func:`_center_function`, :func:`_off_center_coincidences`).  A sweep
    over the segments sorted by x-extent tests only the pairs whose
    bounding boxes overlap, so the cost grows with the number of
    overlapping pairs rather than with samples^2.
    Each crossing is polished to an exact coincidence.  Axis-centered
    circles come from sphere crossings grouped by meridian plane
    (:func:`_axis_centered_groups`); that scan is skipped when a test in Q
    (:func:`_misses_radius`) shows the curve never reaches the sphere's
    section.  Each connected component of the coincidence graph yields one
    circle whose multiplicity is the number of distinct curve passages in
    it; the domain is the curve's ``trace_period``.  Passages within
    PARAM_DEDUP of each other, across the wrap at the domain included, are
    one passage; one dict of buckets twice PARAM_DEDUP wide indexes them.
    ``test_passage_merge_matches_three_image_lookup`` pins the merge against
    a plain three-image lookup, at the seam, at bucket edges and on the
    sweep's pairs.

    The curve point is evaluated by six inline copies of
    ``curve.curve_point``'s formula in three inner loops, five of them as
    part of the center formula: one in :func:`_center_function` (sampling),
    four in :func:`_polish_coincidence` (Newton: t1, t2 and the two step
    points), and one in :func:`_gap_function` (sphere crossings).  The
    segment crossing test is inline in the sweep of
    :func:`_off_center_coincidences`.  Each copy is pinned by a test named
    in its function's docstring, and ``test_surface_query_pool_byte_pin``
    pins the bytes of the benchmark's 160 pool queries.  Keep the copies in
    step with ``curve_point``.
    """
    if samples < 16:
        raise ValueError("samples must be at least 16")
    domain = spec.curve.trace_period
    pairs = _off_center_coincidences(spec, samples)

    # Union-find over deduplicated passage parameters.  A parameter joins
    # the earliest-inserted node within PARAM_DEDUP of it, across the wrap at
    # domain included.  ``buckets`` maps floor(t / width) to the indices of
    # the nodes in that bucket.  The buckets are twice PARAM_DEDUP wide, so
    # a node within PARAM_DEDUP of t - domain, t or t + domain lies in the
    # bucket of that image or in one next to it, even after the division
    # rounds; only those buckets are tested.  Nodes lie in [0, domain], so an
    # image farther than width outside it is skipped.  A new node is its own
    # root, and each pair is united as it is read.
    nodes: List[float] = []
    buckets: Dict[int, List[int]] = {}
    parent: List[int] = []
    width = 2.0 * PARAM_DEDUP
    floor = math.floor

    def node_index(t: float) -> int:
        found = len(nodes)
        for image in (t - domain, t, t + domain):
            if not -width <= image <= domain + width:
                continue
            bucket = floor(image / width)
            for key in (bucket - 1, bucket, bucket + 1):
                for idx in buckets.get(key, ()):
                    gap = abs(nodes[idx] - t)
                    if idx < found and min(gap, domain - gap) <= PARAM_DEDUP:
                        found = idx
        if found == len(nodes):
            buckets.setdefault(floor(t / width), []).append(found)
            nodes.append(t)
            parent.append(found)
        return found

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for t1, t2 in pairs:
        r1, r2 = find(node_index(t1)), find(node_index(t2))
        if r1 != r2:
            parent[r2] = r1

    components: Dict[int, List[float]] = {}
    for idx, t in enumerate(nodes):
        components.setdefault(find(idx), []).append(t)

    results = [
        (generating_circle(spec, min(params)), len(params))
        for params in [*components.values(), *_axis_centered_groups(spec, samples)]
        if len(params) >= 2
    ]
    results.sort(key=lambda item: (item[0].meridian_angle, item[0].center_offset))
    return results


# -- intersections with the zero-radius circle -----------------------------------------


def zero_circle_parameters(spec: SurfaceSpec, grid: int = DEFAULT_ROOT_GRID) -> List[float]:
    """Curve parameters where the curve meets the zero-radius circle.

    Finds both transversal crossings (sign changes, refined by bisection)
    and tangential contacts (near-zero local minima of |gap|, refined by
    golden-section search); the latter matter because curtate curves often
    touch the waist circle without crossing it.  ``grid`` is the number of
    sample points; fewer than 64 is a ``ValueError``.  When the exact range
    test :func:`_misses_radius` shows that the curve never reaches the waist
    circle, of radius sqrt(-q), the scan is skipped and the list is empty.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64")
    if spec.q >= 0 or spec.placement.height != 0 or _misses_radius(spec, -spec.q):
        return []
    gap = _gap_function(spec, 0.0, spec.q_float)
    return _periodic_roots(gap, spec.curve.parameter_period, grid)


def zero_circle_intersections(
    spec: SurfaceSpec, grid: int = DEFAULT_ROOT_GRID
) -> List[Tuple[float, float, float]]:
    """Distinct points where the curve meets the zero-radius circle.

    These are genuine surface singularities; several parameters may land on
    one point (e.g. every radius zero of a rose sits at its pole), so the
    parameter list is deduplicated by position.
    """
    params = zero_circle_parameters(spec, grid)
    points: List[Tuple[float, float, float]] = []
    scale = spec.extent
    for t in params:
        candidate = curve_point(spec.curve, spec.placement, t)
        if all(
            math.dist(candidate, existing) > 1e-6 * scale for existing in points
        ):
            points.append(candidate)
    points.sort()
    return points
