"""Tests for the circle keys of a family, read from circle frames."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from helpers import make_spec
from chsurf.curve import curve_point
from chsurf.mesh import figure_preset, preset_keys
from chsurf.surface import (
    CircleKey,
    _circle_frame,
    circle_key,
    circle_key_close,
    generating_circle,
    parametric_point,
)
from chsurf.verify import _sample_parameters


def key_at(q, point):
    """The key of the circle of the family q through an off-axis point."""
    spec = make_spec(1, 1, q=q)
    return circle_key(_circle_frame(spec, point), spec.q_float)


def point_on_circle(key, theta):
    """Point of the keyed circle at angle theta, measured from its center."""
    u = key.center_offset + key.radius * math.cos(theta)
    z = key.radius * math.sin(theta)
    return (u * math.cos(key.meridian_angle), u * math.sin(key.meridian_angle), z)


def test_circle_key_elliptic():
    key = key_at(1, (1.0, 0.0, 0.0))
    assert key.meridian_angle == pytest.approx(0.0)
    assert key.center_offset == pytest.approx(0.0)
    assert key.radius == pytest.approx(1.0)


def test_circle_key_parabolic():
    key = key_at(0, (1.0, 0.0, 0.0))
    assert key.center_offset == pytest.approx(0.5)
    assert key.radius == pytest.approx(0.5)
    # Tangency at the origin: center distance equals the radius.
    assert math.hypot(key.center_offset, 0.0) == pytest.approx(key.radius)


def test_generating_circle_refuses_a_point_circle_on_the_waist():
    # r = cos(t) with q = -1 starts at (1, 0, 0), on the zero-radius circle.
    with pytest.raises(ValueError, match="point circle"):
        generating_circle(make_spec(1, 1, q=-1), 0.0)


def test_generating_circle_keys_a_clamped_root_when_q_is_not_negative():
    # A pool query's singular circle: the curve passes 5.3e-9 from the axis,
    # next to the base point (0, 0, -1/2), where the radicand rho^2 + rho^4
    # is clamped to 0; the circle through the point has radius 1/2.
    spec = make_spec(2, 9, "1/2", q="1/4", h="-1/2")
    t = 9.424777988144271
    assert _circle_frame(spec, curve_point(spec.curve, spec.placement, t))[2] == 0.0
    assert generating_circle(spec, t).radius == pytest.approx(0.5)


def test_generating_circle_refuses_an_axis_point():
    # r = cos(t) crosses the axis at t = pi/2, where every circle passes.
    with pytest.raises(ValueError, match="z axis"):
        generating_circle(make_spec(1, 1, q=1, h=2), math.pi / 2)


def test_elliptic_circle_passes_base_points():
    q = 2.25
    for point in [(1.3, -0.4, 0.7), (0.2, 0.1, -1.9), (-2.0, 1.0, 0.5)]:
        key = key_at(Fraction(9, 4), point)
        # (0 - c)^2 + q = c^2 + q = radius^2 exactly.
        assert key.center_offset**2 + q == pytest.approx(key.radius**2, rel=1e-12)


def test_circle_key_close_identification():
    base = CircleKey(0.0, 1.0, 1.5)
    flipped = CircleKey(math.pi - 1e-15, -1.0, 1.5)
    assert circle_key_close(base, base, 1e-9)
    assert circle_key_close(base, flipped, 1e-9)
    assert not circle_key_close(base, CircleKey(0.0, 1.0 + 1e-8, 1.5), 1e-9)
    assert not circle_key_close(base, CircleKey(0.5, 1.0, 1.5), 1e-9)


def test_circle_key_close_requires_positive_tol():
    with pytest.raises(ValueError):
        circle_key_close(CircleKey(0, 0, 1), CircleKey(0, 0, 1), 0.0)


@given(
    st.floats(-2.5, 2.5),
    st.floats(0.1, 3.0),
    st.floats(-3.0, 3.0),
    st.sampled_from([Fraction(1), Fraction(0), Fraction(-1), Fraction(9, 4)]),
)
def test_points_of_circle_map_to_same_key(angle, rho, z, q):
    spec = make_spec(1, 1, q=q)
    point = (rho * math.cos(angle), rho * math.sin(angle), z)
    frame = _circle_frame(spec, point)
    if frame[2] == 0.0:
        return  # a point circle on the waist
    key = circle_key(frame, spec.q_float)
    for theta in [0.3, 1.8, 2.9, 4.4, 5.6]:
        sample = point_on_circle(key, theta)
        u = math.hypot(sample[0], sample[1])
        if u < 1e-3 or key.radius < 1e-3:
            continue  # too close to the axis or the waist to recondition
        again = circle_key(_circle_frame(spec, sample), spec.q_float)
        assert circle_key_close(key, again, 1e-9)


def test_hyperbolic_positive_radius_off_waist():
    # (rho^2 + z^2 + |q|)^2 >= 4 |q| rho^2 with equality exactly on the waist.
    for rho, z in [(2.0, 0.0), (1.0, 0.5), (0.3, 0.0), (1.0, 1e-4)]:
        key = key_at(-1, (rho, 0.0, z))
        assert key.radius > 0.0
        lhs = (rho * rho + z * z + 1.0) ** 2
        assert lhs >= 4.0 * rho * rho - 1e-12


# -- the route the frame's key replaced -----------------------------------------


def _circle_through_reference(q, point):
    """The key from a bare point, as ``congruence.circle_through`` computed it.

    None where it refused the point: on the z axis, or on a point circle.
    """
    x, y, z = point
    rho_sq = x * x + y * y
    if rho_sq <= (1e-12 * max(1.0, rho_sq + abs(q))) ** 2:
        return None
    angle = math.atan2(y, x) % math.pi
    if angle >= math.pi:
        angle = 0.0
    u = x * math.cos(angle) + y * math.sin(angle)
    offset = (rho_sq + z * z - q) / (2.0 * u)
    radius_sq = offset * offset + q
    if radius_sq <= 1e-12 * max(1.0, rho_sq + z * z + abs(q)):
        return None
    return CircleKey(angle, offset, math.sqrt(radius_sq))


def _key_bits(key):
    """The three fields' exact bits; ``float.hex`` tells -0.0 from 0.0."""
    return tuple(float.hex(value) for value in (key.meridian_angle, key.center_offset, key.radius))


def _compare_with_reference(spec, points):
    """How many of the points both routes key; asserts their keys' bits agree.

    The frame's key is compared on point circles too: ``verify`` keys its
    on-circle points whatever their frame's root.
    """
    q = spec.q_float
    compared = 0
    for point in points:
        frame = _circle_frame(spec, point)
        reference = _circle_through_reference(q, point)
        if frame is None or reference is None:
            continue
        assert _key_bits(circle_key(frame, q)) == _key_bits(reference), (spec, point)
        compared += 1
    return compared


def test_circle_key_matches_the_reference_on_the_verify_samples():
    # Every curve point and on-circle point that ``verify invariants`` keys.
    key_angles = [(math.cos(theta), math.sin(theta)) for theta in (0.4, 1.7, 3.1, 4.9)]
    for key in preset_keys():
        spec = figure_preset(key).spec
        q = spec.q_float
        samples = _sample_parameters(spec, 64)
        on_circles = [parametric_point(frame, q, c, s) for _, frame in samples for c, s in key_angles]
        points = [point for point, _ in samples]
        points += [p for p in on_circles if math.hypot(p[0], p[1]) >= 1e-5 * spec.extent]
        assert _compare_with_reference(spec, points) == len(points), key


def test_circle_key_matches_the_reference_on_the_pool():
    # Read-only: the specs of the benchmark's surface-queries pool, 512
    # parameters over each curve's trace.
    path = Path(__file__).resolve().parents[1] / "bench" / "references" / "surface_queries.json"
    queries = json.loads(path.read_text())["queries"]
    total = compared = 0
    for query in queries:
        args = dict(arg[2:].split("=", 1) for arg in query["argv"][1:])
        spec = make_spec(
            int(args["n"]), int(args["d"]), args["a"], args["q"], args["cx"], args["cy"], args["h"]
        )
        period = spec.curve.trace_period
        points = [curve_point(spec.curve, spec.placement, period * (k + 0.5) / 512) for k in range(512)]
        total += len(points)
        compared += _compare_with_reference(spec, points)
    assert compared == total == 160 * 512
