"""Tests for the circle-family geometry."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chsurf.congruence import (
    AxisPointError,
    CircleKey,
    CongruenceSpec,
    DegenerateCircleError,
    circle_key_close,
    circle_through,
)


def cong(q):
    return CongruenceSpec(Fraction(q))


def point_on_circle(key, theta):
    """Point of the keyed circle at angle theta, measured from its center."""
    u = key.center_offset + key.radius * math.cos(theta)
    z = key.radius * math.sin(theta)
    return (u * math.cos(key.meridian_angle), u * math.sin(key.meridian_angle), z)


def test_circle_through_elliptic():
    key = circle_through(cong(1), (1.0, 0.0, 0.0))
    assert key.meridian_angle == pytest.approx(0.0)
    assert key.center_offset == pytest.approx(0.0)
    assert key.radius == pytest.approx(1.0)


def test_circle_through_parabolic():
    key = circle_through(cong(0), (1.0, 0.0, 0.0))
    assert key.center_offset == pytest.approx(0.5)
    assert key.radius == pytest.approx(0.5)
    # Tangency at the origin: center distance equals the radius.
    assert math.hypot(key.center_offset, 0.0) == pytest.approx(key.radius)


def test_circle_through_degenerate_on_waist():
    with pytest.raises(DegenerateCircleError):
        circle_through(cong(-1), (1.0, 0.0, 0.0))


def test_circle_through_axis_point():
    with pytest.raises(AxisPointError):
        circle_through(cong(1), (0.0, 0.0, 2.0))


def test_elliptic_circle_passes_base_points():
    q = 2.25
    for point in [(1.3, -0.4, 0.7), (0.2, 0.1, -1.9), (-2.0, 1.0, 0.5)]:
        key = circle_through(cong(Fraction(9, 4)), point)
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
    spec = CongruenceSpec(q)
    point = (rho * math.cos(angle), rho * math.sin(angle), z)
    try:
        key = circle_through(spec, point)
    except DegenerateCircleError:
        return
    for theta in [0.3, 1.8, 2.9, 4.4, 5.6]:
        sample = point_on_circle(key, theta)
        u = math.hypot(sample[0], sample[1])
        if u < 1e-3 or key.radius < 1e-3:
            continue  # too close to the axis or the waist to recondition
        again = circle_through(spec, sample)
        assert circle_key_close(key, again, 1e-9)


def test_hyperbolic_positive_radius_off_waist():
    # (rho^2 + z^2 + |q|)^2 >= 4 |q| rho^2 with equality exactly on the waist.
    spec = cong(-1)
    for rho, z in [(2.0, 0.0), (1.0, 0.5), (0.3, 0.0), (1.0, 1e-4)]:
        key = circle_through(spec, (rho, 0.0, z))
        assert key.radius > 0.0
        lhs = (rho * rho + z * z + 1.0) ** 2
        assert lhs >= 4.0 * rho * rho - 1e-12
