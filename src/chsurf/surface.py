"""Circular surfaces swept by family circles through a placed curve.

A surface is the union of all circles of a congruence (see
:mod:`chsurf.congruence`) that meet a cyclic-harmonic curve placed in a
horizontal plane.  Its algebraic invariants (order, multiplicity of the
absolute conic, of the z axis, and of the two base points) depend only on
the curve's property table and on how the curve sits relative to the axis;
``classify`` computes them twice, once from the general count formulas and
once from the closed-form classification table, and insists the two agree.

Incidence with the axis is decided exactly over the rationals.  With the
pole on the axis it is a comparison of the placement with q; off the axis
the branch count is the degree of a polynomial gcd over Q(i), computed on
Gaussian integers, so no float tolerance enters the classification.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .congruence import CircleKey, CongruenceSpec, circle_through
from .curve import (
    CurveSpec,
    Placement,
    _branch_below,
    curve_point,
    curve_properties,
    point_function,
)

AXIS_EPS = 1e-9
RADICAND_EPS = 1e-12
PARAM_DEDUP = 1e-6
ROOT_EPS = 1e-9
DEFAULT_ROOT_GRID = 4096


@dataclass(frozen=True)
class SurfaceSpec:
    curve: CurveSpec
    congruence: CongruenceSpec
    placement: Placement

    @property
    def extent(self) -> float:
        """Coarse bound on coordinates: pole offset plus peak radius."""
        return (
            1.0
            + float(self.curve.a)
            + math.hypot(float(self.placement.cx), float(self.placement.cy))
            + abs(float(self.placement.height))
        )


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

    def __str__(self) -> str:
        if self.j is None:
            return f"Type{self.kind}"
        return f"Type{self.kind}(j={self.j})"


@dataclass(frozen=True)
class SurfaceClassification:
    order: int
    absolute_conic: int
    axis: int
    directing_points: int
    type_label: Optional[str] = None
    j: Optional[int] = None

    def numbers(self) -> Tuple[int, int, int, int]:
        return (self.order, self.absolute_conic, self.axis, self.directing_points)

    def to_dict(self) -> dict:
        record = {}
        if self.type_label is not None:
            record["type"] = self.type_label
        record.update(
            order=self.order,
            absolute_conic=self.absolute_conic,
            axis=self.axis,
            directing_points=self.directing_points,
        )
        if self.j is not None:
            record["j"] = self.j
        return record


# -- parametric evaluation -------------------------------------------------------


def radicand(spec: SurfaceSpec, t: float) -> float:
    """4*q*|a_xy|^2 + (|a|^2 - q)^2 at curve parameter t, clamped at zero.

    Algebraically this equals (|a|^2 + q)^2 - 4*q*z^2, which is non-negative
    for every q and vanishes exactly where the curve meets the zero-radius
    circle of a hyperbolic family.
    """
    return _radicand_at(curve_point(spec.curve, spec.placement, t), float(spec.congruence.q))


def _radicand_at(point: Tuple[float, float, float], q: float) -> float:
    """:func:`radicand` at a curve point already evaluated, for a float q."""
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


def parametric_point(spec: SurfaceSpec, t: float, theta: float) -> Tuple[float, float, float]:
    """Point of the surface: angle theta on the circle through the curve at t."""
    x, y, z = curve_point(spec.curve, spec.placement, t)
    rho_sq = x * x + y * y
    rho = math.sqrt(rho_sq)
    if rho <= AXIS_EPS * max(1.0, spec.extent):
        raise ValueError(f"curve point at t={t} lies on the z axis")
    q = float(spec.congruence.q)
    norm_sq = rho_sq + z * z
    root = math.sqrt(radicand(spec, t))
    along = (root * math.cos(theta) + norm_sq - q) / (2.0 * rho_sq)
    return (x * along, y * along, root * math.sin(theta) / (2.0 * rho))


def generating_circle(spec: SurfaceSpec, t: float) -> CircleKey:
    """CircleKey of the generating circle at curve parameter t."""
    return circle_through(spec.congruence, curve_point(spec.curve, spec.placement, t))


def curve_theta(spec: SurfaceSpec, t: float) -> float:
    """Circle angle at which the generating circle passes through the curve.

    Angles are measured in the curve point's own half-plane frame, matching
    the parametrization used by :func:`parametric_point`.
    """
    x, y, z = curve_point(spec.curve, spec.placement, t)
    rho = math.hypot(x, y)
    q = float(spec.congruence.q)
    center = (rho * rho + z * z - q) / (2.0 * rho)
    return math.atan2(z, rho - center)


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
    q = spec.congruence.q
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
) -> SurfaceClassification:
    """Surface invariants from the curve order and its incidence counts.

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
    return SurfaceClassification(order, conic, axis, points)


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


def incidence_counts(curve: CurveSpec, incidence: IncidenceType) -> Tuple[int, int, int]:
    """(axis_points, p1, p2) for the count-formula path."""
    origin = curve_properties(curve).origin_multiplicity
    j = incidence.j or 0
    if incidence.kind == 1:
        return 0, origin, 0
    if incidence.kind == 2:
        return origin, 0, 0
    if incidence.kind == 3:
        return 0, j, 0
    if incidence.kind == 4:
        return j, 0, 0
    return 0, 0, 0


def classify(spec: SurfaceSpec) -> SurfaceClassification:
    """Order and singular multiplicities of the surface, dual-path checked."""
    incidence = incidence_type(spec)
    curve = spec.curve
    props = curve_properties(curve)
    axis_points, p1, p2 = incidence_counts(curve, incidence)
    from_counts = classification_from_counts(
        props.order, props.absolute_multiplicity, axis_points, p1, p2
    )
    variant = table_variant(curve)
    row = CLASSIFICATION_TABLE[(incidence.kind, variant, table_branch(curve))]
    expected = row(curve.n, curve.d, incidence.j or 0)
    if from_counts.numbers() != expected:
        raise RuntimeError(
            f"classification paths disagree for {spec}: counts give "
            f"{from_counts.numbers()}, table row gives {expected}"
        )
    return SurfaceClassification(
        *expected, type_label=f"{incidence.kind}{variant}", j=incidence.j
    )


# -- periodic root finding ------------------------------------------------------------


def _periodic_roots(f: Callable[[float], float], period: float, grid: int) -> List[float]:
    """Zeros of a smooth periodic function on [0, period).

    Sign changes are refined by bisection; near-zero local minima of |f| are
    refined by golden-section search, which catches tangential (even-order)
    contacts that never change sign.  A grid value that is not finite is an
    ``OverflowError``.
    """
    n_points = max(int(grid), 64)
    ts = [period * i / n_points for i in range(n_points)]
    vals = [f(t) for t in ts]
    if not all(map(math.isfinite, vals)):
        # An overflowed grid makes every point look like a root.
        raise OverflowError("a sampled value of the gap is not finite in float64")
    scale = max(1.0, max(map(abs, vals)))
    step = period / n_points

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
    for i in range(n_points):
        k = (i + 1) % n_points
        if vals[i] == 0.0:
            roots.append(ts[i])
        elif vals[i] * vals[k] < 0.0:
            roots.append(bisect(ts[i], ts[i] + step, vals[i]))
    for i in range(n_points):
        here = abs(vals[i])
        if here == 0.0:
            continue
        if here <= abs(vals[i - 1]) and here <= abs(vals[(i + 1) % n_points]):
            if here <= 1e-3 * scale:
                candidate = golden_min(ts[i] - step, ts[i] + step) % period
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


# -- singular circles ---------------------------------------------------------------


def _center_function(spec: SurfaceSpec) -> Callable[[float], Optional[Tuple[float, float]]]:
    """Planar center of the generating circle at t; None when degenerate.

    Away from the axis, two parameters share a generating circle exactly
    when these centers coincide at a nonzero point, so off-center singular
    circles are self-intersections of this planar trace.  The spec's
    rationals are converted once, when the function is built, and the curve
    point is computed inline with :func:`curve.point_function`'s operations
    in the same order, so the centers are bit-identical to ones built on
    ``curve_point``.  Keep the formulas in step.
    """
    n, d = spec.curve.n, spec.curve.d
    a = float(spec.curve.a)
    cx, cy, z = float(spec.placement.cx), float(spec.placement.cy), float(spec.placement.height)
    z_sq = z * z
    q = float(spec.congruence.q)
    scale = max(1.0, spec.extent)
    axis_bound = AXIS_EPS * scale
    try:
        waist_bound = RADICAND_EPS * scale ** 2
    except OverflowError:
        raise OverflowError("the squared extent of the surface overflows float64") from None
    cos, sin, sqrt = math.cos, math.sin, math.sqrt

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
        return (lam * x, lam * y)

    return center


def _compress(point: Tuple[float, float]) -> Tuple[float, float]:
    """Injective map of the plane into the unit disk.

    Keeps chord intersection tests meaningful even where circle centers
    run off to infinity near an axis crossing of the curve.
    """
    norm = math.hypot(point[0], point[1])
    factor = 1.0 / (1.0 + norm)
    return (point[0] * factor, point[1] * factor)


def _segment_intersection(p1, p2, p3, p4) -> Optional[Tuple[float, float]]:
    """Fractions (s, u) in [0,1]^2 where segments p1p2 and p3p4 cross."""
    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom == 0.0:
        return None
    bx, by = p3[0] - p1[0], p3[1] - p1[1]
    s = (bx * d2y - by * d2x) / denom
    u = (bx * d1y - by * d1x) / denom
    if -1e-12 <= s <= 1.0 + 1e-12 and -1e-12 <= u <= 1.0 + 1e-12:
        return (min(max(s, 0.0), 1.0), min(max(u, 0.0), 1.0))
    return None


def _polish_coincidence(
    center: Callable[[float], Optional[Tuple[float, float]]],
    scale: float,
    t1: float,
    t2: float,
    domain: float,
) -> Optional[Tuple[float, float]]:
    """Newton-polish (t1, t2) so the two circle centers coincide.

    ``center`` is the spec's :func:`_center_function` and ``scale`` its
    ``max(1, extent)``.  Each step evaluates the center at t1, t2,
    t1 + step and t2 + step once; the forward differences reuse them.
    """
    step = 1e-7 * domain
    for _ in range(60):
        ca = center(t1 % domain)
        cb = center(t2 % domain)
        if ca is None or cb is None:
            return None
        f = (ca[0] - cb[0], ca[1] - cb[1])
        if math.hypot(*f) <= 1e-13 * scale:
            return (t1 % domain, t2 % domain)
        ca_step = center((t1 + step) % domain)
        cb_step = center((t2 + step) % domain)
        if ca_step is None or cb_step is None:
            return None
        fa = (ca_step[0] - cb[0], ca_step[1] - cb[1])
        fb = (ca[0] - cb_step[0], ca[1] - cb_step[1])
        j11 = (fa[0] - f[0]) / step
        j21 = (fa[1] - f[1]) / step
        j12 = (fb[0] - f[0]) / step
        j22 = (fb[1] - f[1]) / step
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-18:
            return None
        dt1 = (-f[0] * j22 + f[1] * j12) / det
        dt2 = (-j11 * f[1] + j21 * f[0]) / det
        limit = 0.05 * domain
        dt1 = max(-limit, min(limit, dt1))
        dt2 = max(-limit, min(limit, dt2))
        t1 += dt1
        t2 += dt2
    ca = center(t1 % domain)
    cb = center(t2 % domain)
    if ca is not None and cb is not None and math.hypot(ca[0] - cb[0], ca[1] - cb[1]) <= 1e-10 * scale:
        return (t1 % domain, t2 % domain)
    return None


def _off_center_coincidences(
    spec: SurfaceSpec, samples: int, domain: float
) -> List[Tuple[float, float]]:
    """Parameter pairs sharing one generating circle with nonzero offset.

    Crossing segments of the sampled, compressed center trace are polished
    to exact coincidences.  Candidate pairs come from a sweep over the
    segments' x-extents and are tested in ascending segment order, so the
    result is the list an all-pairs scan would give, in the same order.
    """
    center = _center_function(spec)
    ts = [domain * i / samples for i in range(samples)]
    compressed = [None if c is None else _compress(c) for c in map(center, ts)]
    scale = max(1.0, spec.extent)

    segments = []  # (index, t_start, t_end, compressed endpoints)
    for i in range(samples):
        k = (i + 1) % samples
        if compressed[i] is None or compressed[k] is None:
            continue
        t_end = ts[k] if k else domain
        segments.append((i, ts[i], t_end, compressed[i], compressed[k]))

    # Ordered by low x, a segment's x-extent meets (ends included) exactly
    # the later segments whose low x is at most its high x.  The tests here
    # are pure, so running them in sweep order changes nothing; crossings are
    # polished in ascending segment order, as an all-pairs scan would.
    boxes = [
        (min(pa[0], pb[0]), max(pa[0], pb[0]), min(pa[1], pb[1]), max(pa[1], pb[1]))
        for _, _, _, pa, pb in segments
    ]
    order = sorted(range(len(segments)), key=lambda a: boxes[a][0])
    sorted_lows = [boxes[a][0] for a in order]
    candidates = []
    for pos, a in enumerate(order):
        _, x_high, y_low, y_high = boxes[a]
        ia = segments[a][0]
        for b in order[pos + 1 : bisect_right(sorted_lows, x_high, pos + 1)]:
            if boxes[b][2] > y_high or boxes[b][3] < y_low:
                continue
            ib = segments[b][0]
            if (ib - ia) % samples in (1, samples - 1):
                continue  # adjacent samples trace one passage, not two
            candidates.append((a, b) if a < b else (b, a))
    candidates.sort()

    pairs: List[Tuple[float, float]] = []
    for a, b in candidates:
        _, t1a, t1b, pa, pb = segments[a]
        _, t2a, t2b, pc, pd = segments[b]
        if _segment_intersection(pa, pb, pc, pd) is None:
            continue
        t1 = 0.5 * (t1a + t1b)
        t2 = 0.5 * (t2a + t2b)
        polished = _polish_coincidence(center, scale, t1, t2, domain)
        if polished is None:
            continue
        t1, t2 = polished
        if min(abs(t1 - t2), domain - abs(t1 - t2)) <= PARAM_DEDUP:
            continue  # collapsed to a single passage
        at = center(t1)
        if at is None or math.hypot(*at) <= 1e-5 * scale:
            continue  # axis-centered circles are handled separately
        pairs.append((t1, t2))
    return pairs


def _axis_centered_groups(spec: SurfaceSpec, samples: int, domain: float) -> List[List[float]]:
    """Passage groups on circles centered on the axis (elliptic only).

    Such a circle has radius sqrt(q), so its passages are the parameters
    where the curve meets the sphere |p|^2 = q, grouped by meridian plane.
    """
    q = float(spec.congruence.q)
    if q <= 0:
        return []
    point = point_function(spec.curve, spec.placement)

    def sphere_gap(t: float) -> float:
        x, y, z = point(t)
        return x * x + y * y + z * z - q

    roots = _periodic_roots(sphere_gap, domain, max(4 * samples, 2048))
    axis_bound = AXIS_EPS * max(1.0, spec.extent)
    planed = []
    for t in roots:
        x, y, _ = point(t)
        if math.hypot(x, y) <= axis_bound:
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
    trace, sampled at ``samples`` parameters and mapped into the unit disk.
    A sweep over the segments sorted by x-extent proposes the pairs whose
    bounding boxes overlap, so the cost grows with the number of
    overlapping pairs rather than with samples^2.  Each crossing is polished
    to an exact coincidence.  Axis-centered circles come from
    sphere crossings grouped by meridian plane.  Each connected component of
    the coincidence graph yields one circle whose multiplicity is the number
    of distinct curve passages in it; retraced rose parameters are
    identified beforehand.
    """
    if samples < 16:
        raise ValueError("samples must be at least 16")
    curve = spec.curve
    domain = curve.parameter_period
    if curve.is_odd_rose:
        domain /= 2.0  # drop the retraced half
    pairs = _off_center_coincidences(spec, samples, domain)

    # Union-find over deduplicated passage parameters.  A parameter joins
    # the earliest-inserted node within PARAM_DEDUP of it, across the wrap at
    # domain included.  ``ordered`` keeps (value, index) sorted by value, so
    # only the nodes in a window around t and its two wrapped images are
    # tested; a query has up to a few hundred nodes.
    nodes: List[float] = []
    ordered: List[Tuple[float, int]] = []
    window = 2.0 * PARAM_DEDUP

    def node_index(t: float) -> int:
        close = [
            idx
            for image in (t - domain, t, t + domain)
            for existing, idx in ordered[
                bisect_left(ordered, (image - window,)) : bisect_right(ordered, (image + window, math.inf))
            ]
            if min(abs(existing - t), domain - abs(existing - t)) <= PARAM_DEDUP
        ]
        if close:
            return min(close)
        insort(ordered, (t, len(nodes)))
        nodes.append(t)
        return len(nodes) - 1

    parent: List[int] = []

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = []
    for t1, t2 in pairs:
        i1 = node_index(t1)
        i2 = node_index(t2)
        while len(parent) < len(nodes):
            parent.append(len(parent))
        edges.append((i1, i2))
    for i1, i2 in edges:
        r1, r2 = find(i1), find(i2)
        if r1 != r2:
            parent[r2] = r1

    components: Dict[int, List[float]] = {}
    for idx, t in enumerate(nodes):
        components.setdefault(find(idx), []).append(t)

    results = []
    for params in components.values():
        if len(params) < 2:
            continue
        key = generating_circle(spec, min(params))
        results.append((key, len(params)))
    for params in _axis_centered_groups(spec, samples, domain):
        key = generating_circle(spec, min(params))
        results.append((key, len(params)))
    results.sort(key=lambda item: (item[0].meridian_angle, item[0].center_offset))
    return results


# -- intersections with the zero-radius circle -----------------------------------------


def zero_circle_parameters(spec: SurfaceSpec, grid: int = DEFAULT_ROOT_GRID) -> List[float]:
    """Curve parameters where the curve meets the zero-radius circle.

    Finds both transversal crossings (sign changes, refined by bisection)
    and tangential contacts (near-zero local minima of |gap|, refined by
    golden-section search); the latter matter because curtate curves often
    touch the waist circle without crossing it.
    """
    if spec.congruence.q >= 0 or spec.placement.height != 0:
        return []
    point = point_function(spec.curve, spec.placement)
    q = float(spec.congruence.q)

    def waist_gap(t: float) -> float:
        x, y, _ = point(t)
        return x * x + y * y + q

    return _periodic_roots(waist_gap, spec.curve.parameter_period, grid)


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
    scale = max(1.0, spec.extent)
    for t in params:
        candidate = curve_point(spec.curve, spec.placement, t)
        if all(
            math.dist(candidate, existing) > 1e-6 * scale for existing in points
        ):
            points.append(candidate)
    points.sort()
    return points
