"""Tests for surface evaluation, incidence detection, and classification."""

import json
import math
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize

from axis_reference import axis_candidates, axis_meeting_parameters
from helpers import make_spec
from chsurf.curve import CurveSpec, Placement, curve_point
from chsurf.mesh import figure_preset, preset_keys
from chsurf.surface import (
    DEFAULT_ROOT_GRID,
    CircleKey,
    IncidenceType,
    SurfaceSpec,
    _circle_frame,
    circle_key,
    circle_key_close,
    classification_from_counts,
    classify,
    count_row,
    generating_circle,
    incidence_type,
    parametric_point,
    radicand,
    singular_circles,
    table_row,
    zero_circle_intersections,
    zero_circle_parameters,
)
from chsurf.verify import grid_specs


# -- parametric evaluation ------------------------------------------------------


# Rationals from small fractions up to the largest finite floats.
RATIONALS = st.one_of(
    st.fractions(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
)
FLOAT_MAX = Fraction(sys.float_info.max)


@pytest.mark.parametrize("q", [1, "-9/4", Fraction(1, 4)])
def test_surface_spec_stores_q_as_a_fraction(q):
    spec = SurfaceSpec(CurveSpec(1, 1), q, Placement())
    assert type(spec.q) is Fraction and spec.q == Fraction(q)
    assert spec.q_float == float(spec.q)


def test_surface_spec_equality_ignores_how_q_was_given():
    by_int = SurfaceSpec(CurveSpec(3, 1), 1, Placement(1))
    by_fraction = SurfaceSpec(CurveSpec(3, 1), Fraction(1), Placement(1))
    assert by_int == by_fraction and hash(by_int) == hash(by_fraction)
    with pytest.raises(ValueError):
        SurfaceSpec(CurveSpec(3, 1), "x", Placement(1))


@settings(max_examples=200, deadline=None)
@given(a=RATIONALS.map(abs), cx=RATIONALS, cy=RATIONALS, h=RATIONALS)
@example(a=Fraction(0), cx=Fraction(0), cy=Fraction(0), h=Fraction(0))
@example(a=FLOAT_MAX, cx=FLOAT_MAX, cy=-FLOAT_MAX, h=-FLOAT_MAX)
def test_extent_is_at_least_one(a, cx, cy, h):
    # Every tolerance is scaled by the extent as it is, with no max(1, ...).
    assert make_spec(1, 1, a, cx=cx, cy=cy, h=h).extent >= 1.0


def _surface_point(spec, t, theta):
    """The surface point at angle theta on the circle through the curve at t."""
    frame = _circle_frame(spec, curve_point(spec.curve, spec.placement, t))
    return parametric_point(frame, spec.q_float, math.cos(theta), math.sin(theta))


def test_parametric_point_elliptic_reaches_base_point():
    spec = make_spec(1, 1, q=1)  # curve point at t=0 is (1, 0, 0)
    assert _surface_point(spec, 0.0, math.pi / 2) == pytest.approx((0.0, 0.0, 1.0))


def test_parametric_point_parabolic_tangent():
    spec = make_spec(1, 1, q=0)
    assert _surface_point(spec, 0.0, math.pi) == pytest.approx((0.0, 0.0, 0.0))


def test_parametric_point_hyperbolic_waist_collapse():
    spec = make_spec(1, 1, q=-1)
    for theta in [0.0, 1.0, 2.5, 4.0]:
        assert _surface_point(spec, 0.0, theta) == pytest.approx((1.0, 0.0, 0.0))


def test_circle_frame_is_none_on_the_axis():
    spec = make_spec(1, 1, q=1)
    # The curve crosses the axis at t = pi/2.
    assert _circle_frame(spec, curve_point(spec.curve, spec.placement, math.pi / 2)) is None


def test_radicand_nonnegative_everywhere():
    for q in ["1", "0", "-1", "9/4", "-9/4"]:
        spec = make_spec(7, 3, "1/4", q=q, h="1/2")
        for k in range(200):
            t = spec.curve.parameter_period * k / 200
            assert radicand(curve_point(spec.curve, spec.placement, t), spec.q_float) >= 0.0


def test_curve_lies_on_surface():
    spec = make_spec(2, 3, "1/2", q="-1", h="1/4")
    for k in range(64):
        t = spec.curve.parameter_period * (k + 0.31) / 64
        expected = curve_point(spec.curve, spec.placement, t)
        x, y, z = expected
        rho = math.hypot(x, y)
        center = (rho * rho + z * z - spec.q_float) / (2.0 * rho)
        got = _surface_point(spec, t, math.atan2(z, rho - center))
        assert got == pytest.approx(expected, abs=1e-10)


def test_parametric_circle_consistency():
    spec = make_spec(3, 1, "1/2", q="9/4", h="1/2")
    for k in range(16):
        t = spec.curve.parameter_period * (k + 0.21) / 16
        key = generating_circle(spec, t)
        for theta in [0.1, 1.1, 2.3, 3.9, 5.2]:
            point = _surface_point(spec, t, theta)
            if math.hypot(point[0], point[1]) < 1e-3:
                continue
            again = circle_key(_circle_frame(spec, point), spec.q_float)
            assert circle_key_close(key, again, 1e-9)


# -- incidence -------------------------------------------------------------------


def test_incidence_type_examples():
    assert incidence_type(make_spec(7, 3, "1/4", q=0)) == IncidenceType(1)
    assert incidence_type(make_spec(9, 2, "2", q=-1, h=1)) == IncidenceType(2)
    assert incidence_type(make_spec(3, 1, cx=-1, q=0)) == IncidenceType(3, 1)
    assert incidence_type(make_spec(3, 1, cx=-1, q=1)) == IncidenceType(4, 1)
    assert incidence_type(make_spec(3, 1, cx=1, q=1)) == IncidenceType(5)


def test_incidence_triple_point_at_base_point():
    # CH(3,2,1/2) passes three times through (-1/2, 0); pole at (1/2, 0)
    # parks that triple point on the axis at the parabolic base point.
    assert incidence_type(make_spec(3, 2, "1/2", q=0, cx="1/2")) == IncidenceType(3, 3)


def test_incidence_elliptic_pole_at_base_point():
    assert incidence_type(make_spec(3, 1, "5/4", q=1, h=-1)) == IncidenceType(1)
    assert incidence_type(make_spec(3, 1, "5/4", q=4, h=-1)) == IncidenceType(2)


def test_incidence_elliptic_tip_at_base_point():
    # Petal tip on the axis in the plane z = 1 with q = 1: the meeting point
    # is the upper base point itself.
    spec = make_spec(3, 1, q=1, cx=-1, h=1)
    assert incidence_type(spec) == IncidenceType(3, 1)
    assert classify(spec).numbers() == (8, 3, 2, 5)


@pytest.mark.parametrize("offset", [Fraction(1, 10**11), Fraction(1, 10**7)])
def test_incidence_near_miss_is_type5(offset):
    # Pole pulled off the exact petal-tip contact: the tip misses the axis by
    # `offset`, however small, so the axis does not meet the curve.
    spec = make_spec(3, 1, cx=Fraction(-1) + offset, q=0)
    assert incidence_type(spec) == IncidenceType(5)
    assert axis_meeting_parameters(spec.curve, spec.placement) == []


def _float_incidence(spec, tol=1e-9):
    """The float residual detector the exact branch count replaced, kept as its reference.

    Accepts the 2d closed-form candidates whose radius residual is within
    ``tol``, refuses residuals within 1000x ``tol``, and counts the accepted
    parameters modulo the retrace period of odd roses.
    """
    placement, q = spec.placement, spec.q
    if placement.pole_on_axis:
        return IncidenceType(1) if placement.height**2 == q else IncidenceType(2)
    curve = spec.curve
    rho_q = math.hypot(float(placement.cx), float(placement.cy))
    scale = max(1.0, 1.0 + float(curve.a) + rho_q)
    hits = []
    for residual, phi in axis_candidates(curve, placement):
        if residual <= tol * scale:
            hits.append(phi)
        else:
            assert residual > 1e3 * tol * scale, "reference detector is ambiguous here"
    if not hits:
        return IncidenceType(5)
    folded = sorted({round(phi % curve.trace_period, 9) for phi in hits})
    deduped = [folded[0]]
    for phi in folded[1:]:
        if phi - deduped[-1] > 1e-6:
            deduped.append(phi)
    at_directing_point = q >= 0 and placement.height**2 == q
    return IncidenceType(3 if at_directing_point else 4, len(deduped))


LATTICE = [Fraction(k, 2) for k in range(-4, 5)]
LATTICE_CURVES = [
    CurveSpec(3, 1),  # odd rose
    CurveSpec(5, 3),  # odd rose, d > 1
    CurveSpec(2, 3),  # even-product rose
    CurveSpec(3, 2, Fraction(1, 2)),  # prolate, triple points
    CurveSpec(2, 1, Fraction(1, 2)),  # prolate
    CurveSpec(4, 1, Fraction(1)),  # cuspidate
    CurveSpec(7, 2, Fraction(5, 2)),  # curtate
]


def test_exact_incidence_matches_float_reference_on_presets():
    for key in preset_keys():
        spec = figure_preset(key).spec
        assert incidence_type(spec) == _float_incidence(spec), key


def test_exact_incidence_matches_float_reference_on_lattice():
    kinds = set()
    for curve, cx, cy in product(LATTICE_CURVES, LATTICE, LATTICE):
        spec = SurfaceSpec(curve, Fraction(1), Placement(cx, cy))
        got = incidence_type(spec)
        assert got == _float_incidence(spec), (curve, cx, cy)
        kinds.add((got.kind, got.j))
    assert {(2, None), (4, 1), (4, 2), (5, None)} <= kinds


@pytest.mark.parametrize(
    "spec_args, count",
    [
        (dict(n=3, d=2, a="1/2", cx="1/2"), 3),  # triple point on the axis
        (dict(n=3, d=1, cx=-1), 2),  # odd rose: the tip is passed twice per 2*d*pi
        (dict(n=3, d=1, cx=Fraction(-1) + Fraction(1, 10**11)), 0),
        (dict(n=5, d=3, cx="1/2"), 4),  # odd rose, two branches
        (dict(n=2, d=3, a="1/2", cy=-1), 2),
        (dict(n=4, d=1, a=1, cx=-2), 1),  # cuspidate
        (dict(n=7, d=2, a="5/2", cx="-7/2"), 1),  # curtate
        (dict(n=4, d=1, a=1, cx="-3/2", cy="1/2"), 0),
    ],
)
def test_axis_passage_count_sympy_oracle(spec_args, count):
    """deg gcd(f, g) over QQ<I>, computed by sympy, equals the passage count."""
    from chsurf.surface import _axis_passage_count

    spec = make_spec(**spec_args)
    n, d, a = spec.curve.n, spec.curve.d, sympy.Rational(spec.curve.a)
    u, v = -sympy.Rational(spec.placement.cx), -sympy.Rational(spec.placement.cy)
    z, i = sympy.Symbol("z"), sympy.I
    f = sympy.Poly(z ** (2 * n) + 2 * a * z**n + 1 - 2 * (u - i * v) * z ** (n + d), z, extension=i)
    g = sympy.Poly((u * u + v * v) * z ** (2 * d) - sympy.expand((u + i * v) ** 2), z, extension=i)
    assert sympy.gcd(f, g).degree() == count
    assert _axis_passage_count(spec.curve, spec.placement) == count
    assert len(axis_meeting_parameters(spec.curve, spec.placement)) == count


def _gaussian_product(p, q):
    """Product of two polynomials given as (re, im) int pairs, lowest degree first."""
    out = [(0, 0)] * (len(p) + len(q) - 1)
    for i, (pr, pi) in enumerate(p):
        for k, (qr, qi) in enumerate(q):
            re, im = out[i + k]
            out[i + k] = (re + pr * qr - pi * qi, im + pr * qi + pi * qr)
    return out


_gaussian_polys = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=5)
_contents = st.sampled_from([(1, 0), (0, -1), (2, 0), (3, 3), (1, 2), (4, -2)])


@settings(max_examples=80, deadline=None)
@given(
    shared=_gaussian_polys,
    p=_gaussian_polys,
    q=_gaussian_polys,
    contents=st.tuples(_contents, _contents),
    pads=st.tuples(st.integers(0, 2), st.integers(0, 2)),
)
def test_gcd_degree_matches_sympy(shared, p, q, contents, pads):
    """Primitive remainder sequence against sympy's gcd over Q(i).

    sympy's Gaussian-rational domain QQ_I is the field QQ<I> of
    ``test_axis_passage_count_sympy_oracle``, with faster arithmetic.  Both
    inputs share a factor and carry a non-unit content such as 3(1+i); zero
    leading coefficients are padded on.
    """
    from chsurf.surface import _gcd_degree

    a = _gaussian_product(_gaussian_product(shared, p), [contents[0]]) + [(0, 0)] * pads[0]
    b = _gaussian_product(_gaussian_product(shared, q), [contents[1]]) + [(0, 0)] * pads[1]
    if not any(re or im for re, im in b):
        return
    z = sympy.Symbol("z")

    def to_sympy(poly):
        expr = sum((re + sympy.I * im) * z**k for k, (re, im) in enumerate(poly))
        return sympy.Poly(expr, z, domain=sympy.QQ_I)

    expected = sympy.gcd(to_sympy(a), to_sympy(b)).degree()
    assert _gcd_degree(a, b) == expected


def test_axis_meeting_parameters_pole_on_axis():
    spec = make_spec(1, 1, q=1)
    params = axis_meeting_parameters(spec.curve, spec.placement)
    assert params == pytest.approx([math.pi / 2, 3 * math.pi / 2])
    curtate = make_spec(9, 2, "2", q=-1)
    assert axis_meeting_parameters(curtate.curve, curtate.placement) == []


def test_axis_meeting_parameters_cuspidate_touch():
    spec = make_spec(7, 3, "1", q=0)
    params = axis_meeting_parameters(spec.curve, spec.placement)
    expected = sorted((3 * math.pi * (2 * k + 1) / 7) % (6 * math.pi) for k in range(7))
    assert params == pytest.approx(expected)


# -- classification ----------------------------------------------------------------


def test_classification_from_counts_example():
    assert classification_from_counts(4, 1, 0, 0, 0) == (10, 4, 2, 6)


def test_classification_from_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        classification_from_counts(0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        classification_from_counts(4, 1, -1, 0, 0)
    with pytest.raises(ValueError):
        classification_from_counts(2, 3, 0, 0, 0)


def test_classify_json_record():
    record = classify(make_spec(9, 2, "2", q="-1", h="1")).to_dict()
    assert record == {
        "type": "2B",
        "order": 40,
        "absolute_conic": 4,
        "axis": 32,
        "directing_points": 36,
    }


def test_dual_path_agreement_over_grid():
    """``count_row`` raises on every Table 2 row that the grid cannot realize.

    The agreement of the two paths on the realizable rows is ``verify
    table2``'s check (acceptance criterion 6), which skips these rows.
    """
    unrealizable = 0
    for curve in grid_specs(a_values=("0", "1/2")):
        if curve.a == 0 and not curve.is_odd_rose:
            continue  # variant A is the odd-product roses
        for kind in (1, 2, 3, 4, 5):
            for j in ((1, 2) if kind in (3, 4) else (None,)):
                incidence = IncidenceType(kind, j)
                expected = table_row(curve, incidence)
                if expected[0] <= 0 or expected[3] <= 0:
                    unrealizable += 1
                    with pytest.raises(ValueError):
                        count_row(curve, incidence)
    assert unrealizable > 0


# -- singular circles ----------------------------------------------------------------


def brute_force_coincidences(spec, probes=240):
    """Independent cocircularity scan: minimize center mismatch per pair.

    Centers come from ``curve_point``, so no float kernel of the scan takes part.
    """
    domain = spec.curve.trace_period

    def mismatch(params):
        c1 = _curve_point_center(spec, params[0] % domain)
        c2 = _curve_point_center(spec, params[1] % domain)
        if c1 is None or c2 is None:
            return 1e6
        return (c1[0] - c2[0]) ** 2 + (c1[1] - c2[1]) ** 2

    found = []
    ts = [domain * i / probes for i in range(probes)]
    for i in range(probes):
        for k in range(i + 2, probes):
            gap = min(abs(ts[i] - ts[k]), domain - abs(ts[i] - ts[k]))
            if gap < domain / probes * 1.5:
                continue
            if mismatch((ts[i], ts[k])) > (domain / probes) ** 2:
                continue
            result = minimize(mismatch, [ts[i], ts[k]], method="Nelder-Mead",
                              options={"xatol": 1e-12, "fatol": 1e-24})
            if result.fun < 1e-18:
                t1, t2 = result.x[0] % domain, result.x[1] % domain
                if min(abs(t1 - t2), domain - abs(t1 - t2)) > 1e-6:
                    found.append(tuple(sorted((t1, t2))))
    return found


def _curve_point_center(spec, t):
    """Generating-circle center computed from ``curve_point``, per call."""
    from chsurf.surface import RADICAND_EPS

    x, y, z = curve_point(spec.curve, spec.placement, t)
    rho_sq = x * x + y * y
    if math.sqrt(rho_sq) <= spec.axis_bound:
        return None
    q = float(spec.q)
    lam = (rho_sq + z * z - q) / (2.0 * rho_sq)
    if lam * lam * rho_sq + q <= RADICAND_EPS * spec.extent ** 2:
        return None
    return (lam * x, lam * y)


def _compress(center):
    """``center`` mapped into the unit disk by c / (1 + |c|); None stays None."""
    if center is None:
        return None
    norm = math.hypot(center[0], center[1])
    factor = 1.0 / (1.0 + norm)
    return (center[0] * factor, center[1] * factor)


def _segment_intersection(p1, p2, p3, p4):
    """Fractions (s, u) in [0,1]^2 where segments p1p2 and p3p4 cross, or None.

    The crossing test the sweep of ``_off_center_coincidences`` carries
    inline, kept here as the all-pairs reference's own copy.
    """
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


def _all_pairs_coincidences(spec, samples, domain):
    """Reference for the segment sweep: test every pair of center-trace segments.

    Centers come from ``curve_point`` through this module's
    :func:`_compress`, crossings from :func:`_segment_intersection` and
    polishes from :func:`_polish_coincidence_reference`, so no float kernel
    of the sweep takes part.
    """
    from chsurf.surface import PARAM_DEDUP

    ts = [domain * i / samples for i in range(samples)]
    centers = [_curve_point_center(spec, t) for t in ts]
    scale = spec.extent
    segments = []
    for i in range(samples):
        k = (i + 1) % samples
        if centers[i] is None or centers[k] is None:
            continue
        t_end = ts[k] if k else domain
        segments.append((i, ts[i], t_end, _compress(centers[i]), _compress(centers[k])))

    pairs = []
    count = len(segments)
    for a in range(count):
        ia, t1a, t1b, pa, pb = segments[a]
        min_ax, max_ax = sorted((pa[0], pb[0]))
        min_ay, max_ay = sorted((pa[1], pb[1]))
        for b in range(a + 1, count):
            ib, t2a, t2b, pc, pd = segments[b]
            gap = min((ib - ia) % samples, (ia - ib) % samples)
            if gap <= 1:
                continue
            if min(pc[0], pd[0]) > max_ax or max(pc[0], pd[0]) < min_ax:
                continue
            if min(pc[1], pd[1]) > max_ay or max(pc[1], pd[1]) < min_ay:
                continue
            if _segment_intersection(pa, pb, pc, pd) is None:
                continue
            polished, _ = _polish_coincidence_reference(spec, 0.5 * (t1a + t1b), 0.5 * (t2a + t2b), domain)
            if polished is None:
                continue
            t1, t2 = polished
            if min(abs(t1 - t2), domain - abs(t1 - t2)) <= PARAM_DEDUP:
                continue
            center = _curve_point_center(spec, t1)
            if center is None or math.hypot(*center) <= 1e-5 * scale:
                continue
            pairs.append((t1, t2))
    return pairs


POLISH_EXITS = (
    "converged",
    "accepted after 60 steps",
    "rejected after 60 steps",
    "degenerate center at t1 or t2",
    "degenerate step center",
    "singular Jacobian",
)


def _polish_coincidence_reference(spec, t1, t2, domain):
    """Newton polish as it was before each step reused its center values.

    Every center comes from ``curve_point``, one call each.  Returns the
    polished pair or None, and which of :data:`POLISH_EXITS` ended the step.
    """
    step = 1e-7 * domain

    def value(a, b):
        ca = _curve_point_center(spec, a % domain)
        cb = _curve_point_center(spec, b % domain)
        if ca is None or cb is None:
            return None
        return (ca[0] - cb[0], ca[1] - cb[1])

    scale = spec.extent
    for _ in range(60):
        f = value(t1, t2)
        if f is None:
            return None, "degenerate center at t1 or t2"
        if math.hypot(*f) <= 1e-13 * scale:
            return (t1 % domain, t2 % domain), "converged"
        fa = value(t1 + step, t2)
        fb = value(t1, t2 + step)
        if fa is None or fb is None:
            return None, "degenerate step center"
        j11 = (fa[0] - f[0]) / step
        j21 = (fa[1] - f[1]) / step
        j12 = (fb[0] - f[0]) / step
        j22 = (fb[1] - f[1]) / step
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-18:
            return None, "singular Jacobian"
        dt1 = (-f[0] * j22 + f[1] * j12) / det
        dt2 = (-j11 * f[1] + j21 * f[0]) / det
        limit = 0.05 * domain
        dt1 = max(-limit, min(limit, dt1))
        dt2 = max(-limit, min(limit, dt2))
        t1 += dt1
        t2 += dt2
    f = value(t1, t2)
    if f is None:
        return None, "degenerate center at t1 or t2"
    if math.hypot(*f) <= 1e-10 * scale:
        return (t1 % domain, t2 % domain), "accepted after 60 steps"
    return None, "rejected after 60 steps"


SWEEP_SPECS = [
    make_spec(3, 1, q=0, cx=1),  # parabolic, pole off the axis on a triple point
    make_spec(3, 1, q=1, cx=1),  # elliptic
    make_spec(2, 3, "1/2", q=-1, cx="-3/2", cy=1, h="1/4"),  # hyperbolic, raised
    make_spec(5, 3, q="1/4", cx="1/2", cy="-1/2"),  # odd rose
    make_spec(7, 2, "5/2", q="-9/4", cx="1/2"),  # curtate
    make_spec(7, 3, "1/4", q=0),  # pole on the axis
    make_spec(4, 1, "1", q="-1", cx="-1", cy="1/2"),  # cuspidate, pole off the axis
    make_spec(3, 2, "1/2", q=0, cx="1/2"),  # trident
]
CUSPIDATE = SWEEP_SPECS[6]  # the centers' Newton step is most sensitive at its cusps


def test_float_once_evaluators_match_curve_point():
    from chsurf.surface import _center_constants, _center_function

    for spec in SWEEP_SPECS:
        center = _center_function(_center_constants(spec))
        period = spec.curve.parameter_period
        for i in range(-300, 601):
            t = period * i / 300 + 1e-3
            assert center(t) == _compress(_curve_point_center(spec, t)), (spec, t)


def _sphere_gap_reference(spec):
    q = float(spec.q)

    def gap(t):
        x, y, z = curve_point(spec.curve, spec.placement, t)
        return x * x + y * y + z * z - q

    return gap


def _waist_gap_reference(spec):
    q = float(spec.q)

    def gap(t):
        x, y, _ = curve_point(spec.curve, spec.placement, t)
        return x * x + y * y + q

    return gap


def test_root_finders_match_curve_point_reference(monkeypatch):
    from chsurf import surface

    for spec in SWEEP_SPECS:
        q, z = float(spec.q), float(spec.placement.height)
        sphere = surface._gap_function(spec, z * z, -q)
        waist = surface._gap_function(spec, 0.0, q)
        period = spec.curve.parameter_period
        for i in range(-300, 601):
            t = period * i / 300 + 1e-3
            assert sphere(t) == _sphere_gap_reference(spec)(t), (spec, t)
            assert waist(t) == _waist_gap_reference(spec)(t), (spec, t)

    groups = [surface._axis_centered_groups(spec, 512) for spec in SWEEP_SPECS]
    params = [zero_circle_parameters(spec) for spec in SWEEP_SPECS]
    # The same root finder and grouping, fed gaps built on curve_point.
    monkeypatch.setattr(surface, "_gap_function", lambda spec, lift, shift: _sphere_gap_reference(spec))
    assert groups == [surface._axis_centered_groups(spec, 512) for spec in SWEEP_SPECS]
    monkeypatch.setattr(surface, "_gap_function", lambda spec, lift, shift: _waist_gap_reference(spec))
    assert params == [zero_circle_parameters(spec) for spec in SWEEP_SPECS]
    assert sum(map(bool, groups)) >= 2 and sum(map(bool, params)) >= 2


@pytest.mark.parametrize(
    "samples,specs",
    [(256, SWEEP_SPECS), (512, SWEEP_SPECS), (360, [CUSPIDATE]), (1024, [CUSPIDATE])],
    ids=["256", "512", "360-cuspidate", "1024-cuspidate"],
)
def test_sweep_matches_all_pairs_scan(samples, specs):
    from chsurf.surface import _off_center_coincidences

    found = 0
    for spec in specs:
        expected = _all_pairs_coincidences(spec, samples, spec.curve.trace_period)
        assert _off_center_coincidences(spec, samples) == expected, spec
        found += len(expected)
    assert found > 0


# A pool query of the surface-queries benchmark whose sweep at the CLI's 512
# samples hits the singular-Jacobian exit, which SWEEP_SPECS never reach.
SINGULAR_JACOBIAN_SPEC = make_spec(2, 1, "1", q="0", cx="-2")


def test_polish_matches_reference_on_sweep_starts(monkeypatch):
    # Record every start the sweep polishes and what its Newton step
    # returned, then replay the start through the test-side reference.
    from chsurf import surface

    records = []
    polish = surface._polish_coincidence

    def recording(constants, t1, t2, domain):
        result = polish(constants, t1, t2, domain)
        records.append((spec, t1, t2, domain, result))  # spec: the loop's current spec
        return result

    monkeypatch.setattr(surface, "_polish_coincidence", recording)
    runs = [(spec, 256) for spec in SWEEP_SPECS] + [(SINGULAR_JACOBIAN_SPEC, 512)]
    for spec, samples in runs:
        surface._off_center_coincidences(spec, samples)
    exits = set()
    for spec, t1, t2, domain, result in records:
        expected, outcome = _polish_coincidence_reference(spec, t1, t2, domain)
        if expected is not None:
            # The kernel also returns the converged center, for its axis test.
            expected = (*expected, _curve_point_center(spec, expected[0]))
        assert result == expected, (spec, t1, t2, outcome)
        exits.add(outcome)
    # The kernel's step is reordered against the reference's, so every way
    # out of it must be replayed at least once.
    assert exits == set(POLISH_EXITS)


def test_polish_tests_convergence_before_its_step_centers():
    # A converged start whose step point lies on the axis: the step returns
    # the pair, as the reference does, and never rejects the step center.
    from chsurf import surface

    spec = make_spec(1, 1, q=1)  # the circle r = cos t meets the axis at t = pi/2
    domain = spec.curve.parameter_period
    t = math.pi / 2 - 1e-7 * domain
    assert _curve_point_center(spec, (t + 1e-7 * domain) % domain) is None
    expected, outcome = _polish_coincidence_reference(spec, t, t, domain)
    assert outcome == "converged"
    got = surface._polish_coincidence(surface._center_constants(spec), t, t, domain)
    assert got == (*expected, _curve_point_center(spec, t))


def _merged_circles_reference(spec, pairs, domain):
    """Off-center circles from passage pairs, merged with a three-image lookup.

    A passage joins the earliest-inserted node within PARAM_DEDUP of it,
    across the wrap at domain included; the candidates are listed over the
    windows around t - domain, t and t + domain, and the smallest index wins.
    Each connected component of two or more nodes is one circle.
    """
    from bisect import bisect_left, bisect_right, insort

    from chsurf.surface import PARAM_DEDUP

    nodes, ordered, window = [], [], 2.0 * PARAM_DEDUP

    def node_index(t):
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

    edges = [(node_index(t1), node_index(t2)) for t1, t2 in pairs]
    component = list(range(len(nodes)))
    changed = True
    while changed:  # each node takes the smallest label along an edge, until none moves
        changed = False
        for a, b in edges:
            low = min(component[a], component[b])
            if component[a] != low or component[b] != low:
                component[a] = component[b] = low
                changed = True
    members = {}
    for idx, t in enumerate(nodes):
        members.setdefault(component[idx], []).append(t)
    results = [
        (generating_circle(spec, min(params)), len(params)) for params in members.values() if len(params) >= 2
    ]
    results.sort(key=lambda item: (item[0].meridian_angle, item[0].center_offset))
    return results


def test_passage_merge_matches_three_image_lookup(monkeypatch):
    from chsurf import surface

    monkeypatch.setattr(surface, "_axis_centered_groups", lambda spec, samples: [])
    spec = SWEEP_SPECS[2]
    domain = spec.curve.trace_period
    seam = -1e-300 % domain
    assert seam == domain  # a value of exactly domain, as % can return
    at_seam = [
        (0.0, 5.0),
        (seam, 5.5),  # joins 0.0 across the wrap
        (domain - 4e-7, 6.0),  # joins 0.0 from below the seam
        (6e-7, 6.5),  # joins 0.0 from above it
        (domain - 1.1e-6, 7.0),  # too far from 0.0: a node of its own
        (1.6e-6, 7.5),  # within PARAM_DEDUP of 6e-7, which joined 0.0, but not of 0.0
        (domain - 1.7e-6, 8.0),  # joins domain - 1.1e-6
        (5.0 + 5e-7, 8.5),  # joins the partner node 5.0
    ]
    chains = [
        # a, c, then b within PARAM_DEDUP of both and nearer c: b joins a, the earliest.
        (2.0, 9.0),
        (2.0 + 1.5e-6, 9.5),
        (2.0 + 0.9e-6, 10.0),
        # The same across the seam, with b exactly domain.
        (8e-7, 10.5),
        (domain - 6e-7, 11.0),
        (seam, 11.5),
        # a, b, then c within PARAM_DEDUP of b but not of a: b joined a, so c is new.
        (3.0, 12.0),
        (3.0 + 0.8e-6, 12.5),
        (3.0 + 1.6e-6, 13.0),
    ]
    # Each pair below straddles an edge of the buckets, 2 * PARAM_DEDUP wide,
    # that an earlier merge indexed passages in; a lookup in one bucket split it.
    width = 2.0 * surface.PARAM_DEDUP
    assert 2.25e-6 - 1.25e-6 == surface.PARAM_DEDUP
    assert math.floor(1.25e-6 / width) + 1 == math.floor(2.25e-6 / width)
    assert 4.0 / width == 2_000_000.0
    edges = [
        (1.25e-6, 9.0),
        (2.25e-6, 9.5),  # exactly PARAM_DEDUP above 1.25e-6, in the next bucket
        (4.0 - 1e-7, 10.0),
        (4.0 + 1e-7, 10.5),  # the other side of the edge at 4.0
        (0.0, 11.0),
        (domain - 1e-7, 11.5),  # just below the seam: its image -1e-7 joins 0.0
    ]
    cases = ((at_seam, [2, 3, 6]), (chains, [2, 2, 2, 3, 3, 3]), (edges, [3, 3, 3]))
    for crafted, multiplicities in cases:
        monkeypatch.setattr(surface, "_off_center_coincidences", lambda spec, samples: crafted)
        expected = _merged_circles_reference(spec, crafted, domain)
        assert singular_circles(spec) == expected
        assert sorted(mult for _, mult in expected) == multiplicities

    monkeypatch.undo()
    monkeypatch.setattr(surface, "_axis_centered_groups", lambda spec, samples: [])
    for spec in SWEEP_SPECS:
        pairs = surface._off_center_coincidences(spec, 512)
        assert singular_circles(spec) == _merged_circles_reference(spec, pairs, spec.curve.trace_period), spec


def _full_scan_index(period):
    """Reference for ``_circular_index``: scan every node, keep the smallest id in reach."""
    from chsurf.surface import PARAM_DEDUP

    nodes = []

    def index(t):
        for idx, node in enumerate(nodes):
            gap = abs(node - t)
            if min(gap, period - gap) <= PARAM_DEDUP:
                return idx
        nodes.append(t)
        return len(nodes) - 1

    return index, nodes


@pytest.mark.parametrize("period", [SWEEP_SPECS[2].curve.trace_period, math.pi], ids=["trace_period", "pi"])
def test_circular_index_matches_a_full_scan(period):
    import random

    from chsurf.surface import PARAM_DEDUP, _circular_index

    seam = -1e-300 % period
    assert seam == period  # a value of exactly period, as % can return
    rng = random.Random(40)
    centres = [0.0, seam, 0.5 * period] + [rng.uniform(0.0, period) for _ in range(30)]
    clustered = [(rng.choice(centres) + rng.uniform(-3.0, 3.0) * PARAM_DEDUP) % period for _ in range(600)]
    spread = [rng.uniform(0.0, period) for _ in range(200)]
    runs = {
        "clustered": clustered,
        "sorted": sorted(clustered),
        "spread": spread,
        "seam": [0.0, seam, period - 4e-7, 6e-7, period - 1.1e-6, 1.6e-6],
        # The match is across the wrap, not the linear neighbour (1.0 here).
        "wrap below": [1.0, 2.0, period - 4e-7, 3e-7],
        # The match is across the wrap, the first node; t is above every node.
        "wrap above": [5e-7, 1.0, 2.0, period - 3e-7],
        # a, c, then b within PARAM_DEDUP of both and nearer c: b joins a.
        "chain": [2.0, 2.0 + 1.5e-6, 2.0 + 0.9e-6],
        "chain across the seam": [8e-7, period - 6e-7, seam],
    }
    expected_ids = {
        "seam": [0, 0, 0, 0, 1, 2],
        "wrap below": [0, 1, 2, 2],
        "wrap above": [0, 1, 2, 0],
        "chain": [0, 1, 0],
        "chain across the seam": [0, 1, 0],
    }
    merged = {}
    for name, values in runs.items():
        index, nodes = _circular_index(period)
        reference, reference_nodes = _full_scan_index(period)
        ids = [index(t) for t in values]
        assert ids == [reference(t) for t in values], name
        assert nodes == reference_nodes, name
        assert ids == expected_ids.get(name, ids), name
        merged[name] = len(values) - len(nodes)
    assert merged["clustered"] > 400 and merged["sorted"] > 400  # the clusters merge


def _meridian_groups_reference(planed):
    """Meridian groups by a scan: an angle joins the first group whose first angle is within 1e-6 mod pi."""
    groups = []
    for angle, t in sorted(planed):
        for group in groups:
            delta = abs(group[0][0] - angle)
            if min(delta, math.pi - delta) <= 1e-6:
                group.append((angle, t))
                break
        else:
            groups.append([(angle, t)])
    return [[t for _, t in group] for group in groups if len(group) >= 2]


def test_meridian_groups_match_a_group_scan_at_the_seam(monkeypatch):
    from chsurf import surface

    # Directions of sphere crossings; atan2(y, x) % pi folds them onto [0, pi].
    directions = [
        0.0,
        math.pi,  # just below pi: joins 0.0 across the seam
        -4e-7,  # pi - 4e-7: joins 0.0
        5e-7,
        -1.5e-6,  # pi - 1.5e-6: too far from 0.0, a group of its own
        -1.2e-6,  # joins pi - 1.5e-6: 1.2e-6 from 0.0
        1.7e-6,  # too far from 0.0 and from pi - 1.2e-6: a group of its own
        2.2e-6,
        math.pi / 2,
        math.pi / 2 + 9e-7,
        math.pi / 3,  # alone: no group
    ]
    points = [(math.cos(a), math.sin(a), 0.0) for a in directions]
    points.append((1.0, -1e-300, 0.0))  # folds to exactly pi: joins 0.0
    ts = [float(i) for i in range(len(points))]
    planed = [(math.atan2(y, x) % math.pi, t) for t, (x, y, _) in zip(ts, points)]
    assert max(angle for angle, _ in planed) == math.pi

    spec = make_spec(3, 1, q=1, cx=1)
    monkeypatch.setattr(surface, "_periodic_roots", lambda f, period, grid: ts)
    monkeypatch.setattr(surface, "curve_point", lambda curve, placement, t: points[int(t)])
    groups = surface._axis_centered_groups(spec, 512)
    assert groups == _meridian_groups_reference(planed)
    assert sorted(map(sorted, groups)) == [[0.0, 1.0, 2.0, 3.0, 11.0], [4.0, 5.0], [6.0, 7.0], [8.0, 9.0]]


def test_singular_circles_empty_for_centered_circle_curve():
    spec = make_spec(1, 1, q=1)
    assert singular_circles(spec, samples=128) == []


def test_singular_circles_triple_point_parabolic():
    # Pole of CH(3,1,0) at (1,0): the curve's own triple point generates a
    # circle met three times (off-center, parabolic family).
    spec = make_spec(3, 1, q=0, cx=1)
    results = singular_circles(spec, samples=256)
    assert any(mult >= 3 for _, mult in results)
    # Independent pairwise scan agrees that coincidences exist at the pole.
    assert len(brute_force_coincidences(spec)) >= 3


def test_singular_circles_triple_point_elliptic_axis_centered():
    # Same placed curve, elliptic family: the triple point (1,0,0) sits on
    # the unit sphere, so its circle is axis-centered with radius 1.
    spec = make_spec(3, 1, q=1, cx=1)
    results = singular_circles(spec, samples=256)
    triple = [item for item in results if item[1] == 3]
    assert len(triple) == 1
    key = triple[0][0]
    assert key.meridian_angle == pytest.approx(0.0, abs=1e-9)
    assert key.center_offset == pytest.approx(0.0, abs=1e-9)
    assert key.radius == pytest.approx(1.0, abs=1e-9)


def test_no_axis_centered_circle_when_the_plane_misses_the_sphere():
    # h^2 exceeds q = 1/4 by about 1e-12, so the sphere |p|^2 = q misses the
    # plane z = h; a float scan of the gap alone finds four passages 5e-9 from
    # the axis, within its bound, and a circle of radius ~1/2 through them.
    from chsurf import surface

    spec = make_spec(2, 9, "1/2", q="1/4", h=Fraction(-1, 2) - Fraction(1, 10**12))
    assert surface._axis_centered_groups(spec, 512) == []
    assert not any(abs(key.radius - 0.5) < 1e-6 for key, _ in singular_circles(spec))


@pytest.mark.xfail(
    strict=True,
    reason="q = h^2: the plane z = h touches the sphere |p|^2 = q only at the axis, "
    "yet the float scan groups four passages (ROADMAP item 20)",
)
def test_no_axis_centered_circle_when_the_plane_touches_the_sphere():
    # With q = h^2 the sphere meets the plane z = h in the single point on
    # the axis, so no axis-centered circle exists; the kernel returns one
    # four-passage group at t = 3pi, 6pi, 12pi, 15pi and a circle of offset 0
    # and radius 1/2.
    from chsurf import surface

    spec = make_spec(2, 9, "1/2", q="1/4", h="-1/2")
    assert surface._axis_centered_groups(spec, 512) == []


def test_singular_circles_trident_case():
    # CH(3,2,1/2) with the pole at (1/2, 0): one triple point sits on the
    # axis (excluded, no circle there), its two rotated mates at distance
    # sqrt(3)/2 give multiplicity-3 circles with offset sqrt(3)/4, and the
    # sixfold pole is met by the tangent circle through (1/2, 0, 0).
    spec = make_spec(3, 2, "1/2", q=0, cx="1/2")
    results = singular_circles(spec, samples=360)
    assert sorted(mult for _, mult in results) == [3, 3, 6]
    offset = math.sqrt(3.0) / 4.0
    triples = sorted(
        (key for key, mult in results if mult == 3),
        key=lambda key: key.meridian_angle,
    )
    assert triples[0].meridian_angle == pytest.approx(math.pi / 6, abs=1e-9)
    assert triples[1].meridian_angle == pytest.approx(5 * math.pi / 6, abs=1e-9)
    for key in triples:
        assert abs(key.center_offset) == pytest.approx(offset, abs=1e-9)
        assert key.radius == pytest.approx(offset, abs=1e-9)  # tangent family
    (pole_circle,) = [key for key, mult in results if mult == 6]
    assert circle_key_close(pole_circle, CircleKey(0.0, 0.25, 0.25), 1e-9)
    # Total passages agree with the independent pairwise scan (12 = 3+3+6).
    pairs = brute_force_coincidences(spec, probes=180)
    params = []
    for pair in pairs:
        for t in pair:
            if not any(abs(t - p) < 1e-5 for p in params):
                params.append(t)
    assert len(params) == 12


def test_singular_circles_symmetric_sphere_pairs():
    # CH(2,1,2) around the axis with q = 4: the curve crosses the radius-2
    # sphere four times, pairing up into two axis-centered circles.
    spec = make_spec(2, 1, "2", q=4)
    results = singular_circles(spec, samples=256)
    assert len(results) == 2
    for key, mult in results:
        assert mult == 2
        assert key.center_offset == pytest.approx(0.0, abs=1e-9)
        assert key.radius == pytest.approx(2.0, abs=1e-9)
    angles = sorted(key.meridian_angle for key, _ in results)
    assert angles == pytest.approx([math.pi / 4, 3 * math.pi / 4])


# -- periodic roots ----------------------------------------------------------------


_EPSILON = 4e-7  # 2 * _EPSILON < PARAM_DEDUP


@pytest.mark.parametrize(
    "f,expected,tol",
    [
        (lambda t: 1.0 - math.cos(t), [0.0], 0.0),
        (lambda t: 1.0 - math.cos(t + math.pi / 64), [2 * math.pi - math.pi / 64], 1e-6),
        (lambda t: math.sin(t + 0.01), [math.pi - 0.01, 2 * math.pi - 0.01], 1e-9),
        (lambda t: math.cos(t) - math.cos(_EPSILON), [_EPSILON], 1e-8),
    ],
    ids=[
        "tangential-zero-on-the-seam",
        "tangential-zero-half-a-step-before-the-seam",
        "sign-change-across-the-seam",
        "close-pair-across-the-seam-kept-once",
    ],
)
def test_periodic_roots_at_the_seam(f, expected, tol):
    from chsurf.surface import PARAM_DEDUP, _periodic_roots

    assert 2 * _EPSILON < PARAM_DEDUP
    assert _periodic_roots(f, 2 * math.pi, 64) == pytest.approx(expected, abs=tol)


def test_periodic_roots_exact_zero_on_a_grid_point():
    from chsurf.surface import _periodic_roots

    period = 2 * math.pi
    zero = period * 16 / 64
    roots = _periodic_roots(lambda t: math.sin(t - zero), period, 64)
    assert roots[0] == zero
    assert roots == pytest.approx([zero, zero + math.pi], abs=1e-9)


# -- waist-circle intersections ----------------------------------------------------


def test_zero_circle_intersections_seven_tangential_points():
    spec = make_spec(7, 1, "2", q=-1)
    points = zero_circle_intersections(spec)
    assert len(points) == 7
    for x, y, z in points:
        assert z == 0.0
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-6)


def test_zero_circle_empty_cases():
    assert zero_circle_intersections(make_spec(7, 1, "2", q=1)) == []
    assert zero_circle_intersections(make_spec(7, 1, "2", q=-1, h="1/2")) == []


def test_zero_circle_parameters_dedup_stable():
    spec = make_spec(7, 1, "2", q=-1)
    params_a = zero_circle_parameters(spec, grid=4096)
    params_b = zero_circle_parameters(spec, grid=8192)
    assert len(params_a) == len(params_b) == 7
    assert params_a == pytest.approx(params_b, abs=1e-6)
    expected = [(2 * k + 1) * math.pi / 7 for k in range(7)]
    assert params_a == pytest.approx(expected, abs=1e-6)


def test_zero_circle_transversal_crossings():
    # CH(7,1,3/2) crosses the unit waist circle transversally 14 times.
    spec = make_spec(7, 1, "3/2", q=-1)
    params = zero_circle_parameters(spec)
    assert len(params) == 14


@pytest.mark.parametrize("q", ["-1", "1"])
def test_zero_circle_grid_below_64_is_an_error(q):
    spec = make_spec(7, 1, "2", q=q)
    for grid in (10, 63):
        with pytest.raises(ValueError, match="grid must be at least 64"):
            zero_circle_parameters(spec, grid=grid)
        with pytest.raises(ValueError, match="grid must be at least 64"):
            zero_circle_intersections(spec, grid=grid)
    # 64 points is enough for the 14 transversal crossings of CH(7,1,3/2).
    assert len(zero_circle_parameters(make_spec(7, 1, "3/2", q=-1), grid=64)) == 14


# -- exact symmetries over the benchmark's query pool ----------------------------------


def _exact_images(n, d, a, q, cx, cy, h):
    """A placed surface from exact values, and its images under exact symmetries.

    The curve placed at (cx, -cy) is the mirror image in y of the one at
    (cx, cy), and so is the congruence.  The curve is invariant under a
    rotation by 2 pi / n about its pole and the congruence under any
    rotation about the axis, so a pole off the axis may turn by a half
    when n is even and by a quarter when 4 | n.  Reflecting in the plane
    z = 0 takes h to -h.  Each image has rational data.
    """
    base = dict(n=n, d=d, a=a, q=q, cx=cx, cy=cy, h=h)
    images = []
    if cy != 0:
        images.append(dict(base, cy=-cy))
    if (cx, cy) != (0, 0):
        if n % 2 == 0:
            images.append(dict(base, cx=-cx, cy=-cy))
        if n % 4 == 0:
            images.append(dict(base, cx=-cy, cy=cx))
    if h != 0:
        images.append(dict(base, h=-h))
    return make_spec(**base), [make_spec(**image) for image in images]


def _assert_images_agree(**base):
    """Assert that every exact image of ``base`` has its ``classify`` record.

    With q < 0 and h = 0 every image also has its count of zero-circle
    intersections.  Returns how many images, and how many zero-circle
    images, were compared.
    """
    spec, images = _exact_images(**base)
    expected = classify(spec).to_dict()
    waist = spec.q < 0 and spec.placement.height == 0
    count = len(zero_circle_intersections(spec)) if waist else None
    for image in images:
        assert classify(image).to_dict() == expected, (base, image)
        if waist:
            assert len(zero_circle_intersections(image)) == count, (base, image)
    return len(images), len(images) if waist else 0


def _pool_values():
    """The exact (n, d, a, q, cx, cy, h) of each query of the benchmark's pool, as keywords.

    Read-only: the pool of the benchmark's surface-queries workload.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "surface_queries.json"
    values = []
    for query in json.loads(path.read_text())["queries"]:
        args = dict(arg[2:].split("=", 1) for arg in query["argv"][1:])
        exact = {name: Fraction(args[name]) for name in ("a", "q", "cx", "cy", "h")}
        values.append(dict(n=int(args["n"]), d=int(args["d"]), **exact))
    return values


def test_classify_and_zero_circles_agree_on_exact_pool_images():
    images = zero_circle_images = 0
    for values in _pool_values():
        compared, waist_compared = _assert_images_agree(**values)
        images += compared
        zero_circle_images += waist_compared
    assert (images, zero_circle_images) == (239, 13)


# Coprime (n, d) with n + d <= 5.
SMALL_ND = [(n, d) for n in range(1, 5) for d in range(1, 5) if n + d <= 5 and math.gcd(n, d) == 1]


@settings(max_examples=200, deadline=None)
@given(
    nd=st.sampled_from(SMALL_ND),
    a=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(5, 2)]),
    q=st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 4), Fraction(1)]),
    cx=st.sampled_from(LATTICE),
    cy=st.sampled_from(LATTICE),
    h=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1)]),
)
def test_classify_and_zero_circles_agree_on_lattice_images(nd, a, q, cx, cy, h):
    # Coprime n + d <= 5 with poles on the half-integer lattice in [-2, 2]^2.
    _assert_images_agree(n=nd[0], d=nd[1], a=a, q=q, cx=cx, cy=cy, h=h)


# -- the exact range test ------------------------------------------------------------


def _surd_sign_by_division(u, v, w):
    """Sign of u + v*sqrt(w), from sqrt(w) against -u/v: a route that squares after dividing."""
    if v == 0 or w == 0:
        return (u > 0) - (u < 0)
    bound = -u / v  # u + v*sqrt(w) has the sign of v*(sqrt(w) - bound)
    if bound < 0:
        return 1 if v > 0 else -1
    above = (w > bound * bound) - (w < bound * bound)  # sign of sqrt(w) - bound
    return above if v > 0 else -above


SQUARE_ROOTS = {root * root: root for root in (Fraction(k, 2) for k in range(5))}
SURD_VALUES = [Fraction(k, 2) for k in range(-6, 7)]


def test_surd_sign_matches_exact_squaring():
    from chsurf.surface import _surd_positive

    radicands = [*SQUARE_ROOTS, Fraction(2), Fraction(3), Fraction(8, 9), Fraction(5, 4)]
    for u, v, w in product(SURD_VALUES, SURD_VALUES, radicands):
        expected = _surd_sign_by_division(u, v, w)
        assert _surd_positive(u, v, w) == (expected > 0), (u, v, w)
        if w in SQUARE_ROOTS:
            assert expected == (u + v * SQUARE_ROOTS[w] > 0) - (u + v * SQUARE_ROOTS[w] < 0), (u, v, w)
    # A zero sum is not positive: 3 - 2*sqrt(9/4), -3 + 2*sqrt(9/4), 0 + 5*sqrt(0) and 0 + 0*sqrt(2).
    for u, v, w in [(3, -2, Fraction(9, 4)), (-3, 2, Fraction(9, 4)), (0, 5, 0), (0, 0, 2)]:
        assert not _surd_positive(Fraction(u), Fraction(v), Fraction(w))


def test_missed_radius_holds_on_sampled_curves():
    # Coprime n + d <= 5 with poles on the half-integer lattice in [-2, 2]^2.
    # The curve at (cx, -cy) is the mirror image of the one at (cx, cy), and
    # the mirrored samples are the same parameters, so cy >= 0 is enough.
    from chsurf.surface import _misses_radius

    radii_sq = [Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(4), Fraction(9)]
    offsets = [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(5, 2)]
    curves = [CurveSpec(n, d, a) for (n, d), a in product(SMALL_ND, offsets)]
    outside = inside = 0
    for curve, cx, cy in product(curves, LATTICE, LATTICE):
        if cy < 0:
            continue
        spec = SurfaceSpec(curve, Fraction(0), Placement(cx, cy))
        missed = [radius_sq for radius_sq in radii_sq if _misses_radius(spec, radius_sq)]
        if not missed:
            continue
        period = curve.parameter_period
        points = (curve_point(curve, spec.placement, period * i / 4096) for i in range(4096))
        norms = [x * x + y * y for x, y, _ in points]
        low, high = min(norms), max(norms)
        for radius_sq in missed:
            assert high < radius_sq or low > radius_sq, (spec, radius_sq, low, high)
            outside += high < radius_sq
            inside += low > radius_sq
    assert outside > 0 and inside > 0


def test_skipped_root_scans_would_find_no_root(monkeypatch):
    # Every scan that the exact range test skips, on the benchmark's pool and
    # the presets, gives no root when run, so no output changes.
    from chsurf import surface

    misses = surface._misses_radius
    decided = []

    def recording(spec, radius_sq):
        missed = misses(spec, radius_sq)
        decided.append((spec, missed))
        return missed

    def scan_roots(scan, spec):
        if scan == "sphere":
            z = spec.placement.pole_float[2]
            gap = surface._gap_function(spec, z * z, -spec.q_float)
            return surface._periodic_roots(gap, spec.curve.trace_period, 2048)
        gap = surface._gap_function(spec, 0.0, spec.q_float)
        return surface._periodic_roots(gap, spec.curve.parameter_period, DEFAULT_ROOT_GRID)

    monkeypatch.setattr(surface, "_misses_radius", recording)
    presets = {key: figure_preset(key).spec for key in preset_keys()}
    sources = {"pool": [make_spec(**values) for values in _pool_values()], "presets": list(presets.values())}
    skipped = {}
    for (source, specs), scan in product(sources.items(), ("sphere", "waist")):
        decided.clear()
        for spec in specs:
            if scan == "sphere":
                surface._axis_centered_groups(spec, 512)
            else:
                zero_circle_parameters(spec)
        skipped[source, scan] = [spec for spec, missed in decided if missed]
        for spec in skipped[source, scan]:
            assert scan_roots(scan, spec) == [], (scan, spec)
        if source == "pool":
            assert len(decided) == {"sphere": 56, "waist": 13}[scan]
    assert (len(skipped["pool", "sphere"]), len(skipped["pool", "waist"])) == (21, 1)
    skipped_presets = [key for key, spec in presets.items() if spec in skipped["presets", "sphere"]]
    assert skipped_presets == ["4a", "4b", "4c"]
    assert skipped["presets", "waist"] == []

    def no_scan(*args):
        raise AssertionError("a root scan ran")

    expected = singular_circles(presets["4a"])
    monkeypatch.setattr(surface, "_periodic_roots", no_scan)
    assert singular_circles(presets["4a"]) == expected
