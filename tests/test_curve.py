"""Tests for curve construction, implicitization, and singularity data."""

import hashlib
import json
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, strategies as st

from chsurf import curve
from chsurf.curve import (
    CurveSpec,
    Placement,
    ShapeClass,
    absolute_point_multiplicity,
    curve_point,
    curve_properties,
    homogeneous_implicit,
    implicit_equation,
    origin_cone_constant,
    origin_cone_constant_closed,
    polar_radius,
    shape_class,
    tangent_cone,
    verified_absolute_multiplicity,
)
from chsurf.verify import grid_specs
from helpers import OFF_GRID_SPECS, assert_valid_poly, make_poly

XY = ("x", "y")


def spec(n, d, a="0"):
    return CurveSpec(n, d, Fraction(a))


# -- spec validation -----------------------------------------------------------


def test_spec_requires_lowest_terms():
    with pytest.raises(ValueError):
        CurveSpec(6, 3)
    with pytest.raises(ValueError):
        CurveSpec(0, 1)
    with pytest.raises(ValueError):
        CurveSpec(2, 1, Fraction(-1))


# -- polar form ------------------------------------------------------------------


def test_polar_radius_examples():
    assert polar_radius(spec(1, 1), 0.0) == pytest.approx(1.0)
    assert polar_radius(spec(7, 3, 1), 0.0) == pytest.approx(2.0)
    assert polar_radius(spec(2, 3, "1/2"), 1.5 * math.pi) == pytest.approx(-0.5)


def test_shape_class():
    assert shape_class(spec(3, 1, 0)) is ShapeClass.FOLIATE
    assert shape_class(spec(3, 1, "1/4")) is ShapeClass.PROLATE
    assert shape_class(spec(3, 1, 1)) is ShapeClass.CUSPIDATE
    assert shape_class(spec(3, 1, "5/2")) is ShapeClass.CURTATE


def test_curve_point_examples():
    origin = Placement()
    assert curve_point(spec(1, 1), origin, 0.0) == pytest.approx((1.0, 0.0, 0.0))
    lowered = Placement(0, 0, -1)
    assert curve_point(spec(7, 3, 1), lowered, 0.0) == pytest.approx((2.0, 0.0, -1.0))
    s = spec(5, 2, "1/2")
    p1 = curve_point(s, origin, 1.234)
    p2 = curve_point(s, origin, 1.234 + s.parameter_period)
    assert p1 == pytest.approx(p2)


# -- property table ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,d,a,expected",
    [
        (7, 3, "0", (10, 7, 3)),
        (2, 3, "1/2", (10, 4, 5)),
        (3, 1, "1", (8, 6, 2)),
        (3, 5, "0", (8, 3, 4)),
        (1, 1, "0", (2, 1, 1)),
        (9, 2, "2", (22, 18, 4)),
    ],
)
def test_curve_properties(n, d, a, expected):
    props = curve_properties(spec(n, d, a))
    assert (props.order, props.origin_multiplicity, props.absolute_multiplicity) == expected


# -- implicit equation -------------------------------------------------------------


def test_implicit_unit_circle():
    p = implicit_equation(spec(1, 1))
    assert p == make_poly(XY, {(2, 0): 1, (0, 2): 1, (1, 0): -1})


def test_implicit_degree_examples():
    assert implicit_equation(spec(7, 3, "1/4")).total_degree == 20
    assert implicit_equation(spec(3, 1)).total_degree == 4


def _elimination_oracle(n):
    """Implicit form of the d=1 rose via Groebner elimination of cos/sin."""
    c, s, x, y = sympy.symbols("c s x y")
    radius = sympy.chebyshevt(n, c)
    basis = sympy.groebner(
        [x - radius * c, y - radius * s, c * c + s * s - 1],
        c, s, x, y,
        order="lex",
    )
    keep = [g for g in basis.exprs if not (g.has(c) or g.has(s))]
    assert keep, "elimination produced no (x, y) generator"
    return min(keep, key=lambda g: sympy.Poly(g, x, y).total_degree())


def _to_sympy(poly, x, y):
    expr = 0
    for (ex, ey), coeff in poly.terms.items():
        assert not coeff.im
        expr += sympy.Rational(coeff.re) * x**ex * y**ey
    return sympy.expand(expr)


@pytest.mark.parametrize("n", [1, 3])
def test_implicit_matches_elimination_oracle(n):
    x, y = sympy.symbols("x y")
    oracle = _elimination_oracle(n)
    mine = _to_sympy(implicit_equation(spec(n, 1)), x, y)
    quotient = sympy.simplify(oracle / mine)
    assert quotient.is_constant(), f"not proportional: {quotient}"


def _laurent_mul(p, q):
    product = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return product


def _laurent_powers(base, top):
    powers = [{0: 1}]
    for _ in range(top):
        powers.append(_laurent_mul(powers[-1], base))
    return powers


def _substituted_parametrization(curve_spec):
    """P(x(u), y(u)) exactly, as two integer Laurent polynomials in u = e^(i theta).

    With a = p/q, r = (u^n + u^-n)/2 + a, X = 4q r cos(d theta) and
    Y = 4q r i sin(d theta) have integer coefficients.  Each term
    c x^ex y^ey, scaled by (4q)^deg P, is c (4q)^(deg P - ex - ey) X^ex Y^ey
    times (-i)^ey, so the terms with even and odd ey give the real and the
    imaginary part of P on the curve.
    """
    n, d = curve_spec.n, curve_spec.d
    p, q = curve_spec.a.numerator, curve_spec.a.denominator
    radius = {n: q, -n: q, 0: 2 * p}
    xs = _laurent_powers(_laurent_mul(radius, {d: 1, -d: 1}), 2 * (n + d))
    ys = _laurent_powers(_laurent_mul(radius, {d: 1, -d: -1}), 2 * (n + d))
    implicit = implicit_equation(curve_spec)
    degree = implicit.total_degree
    parts = ({}, {})
    for (ex, ey), coeff in implicit.terms.items():
        scale = coeff.re.numerator * (1, -1, -1, 1)[ey % 4] * (4 * q) ** (degree - ex - ey)
        part = parts[ey % 2]
        for e, c in _laurent_mul(xs[ex], ys[ey]).items():
            part[e] = part.get(e, 0) + scale * c
    return parts


@pytest.mark.parametrize(
    "n,d,a",
    [
        (1, 1, "2/3"), (2, 1, "7/5"), (3, 2, "3/7"), (1, 2, "9/2"),
        (3, 4, "2/3"), (5, 2, "7/5"), (2, 3, "9/2"), (4, 3, "3/7"),
    ],
)
def test_implicit_vanishes_exactly_off_the_grid(n, d, a):
    # Denominators 3, 5 and 7 do not occur in the grid; they pin the den(a)^d scaling.
    s = spec(n, d, a)
    implicit = implicit_equation(s)
    coeffs = list(implicit.terms.values())
    assert all(c.im == 0 and c.re.denominator == 1 for c in coeffs)
    assert math.gcd(*(c.re.numerator for c in coeffs)) == 1
    assert implicit.total_degree == curve_properties(s).order
    real, imaginary = _substituted_parametrization(s)
    assert not any(real.values()) and not any(imaginary.values())
    assert tangent_cone(s) == implicit.lowest_form().primitive()


def test_off_grid_implicit_and_cone_bytes_are_pinned():
    # sha256 over the compact JSON lines of the 175 off-grid specs, in order,
    # recorded before the implicit body and the cone were squared by symmetry.
    def line(p):
        return (json.dumps(p.to_dict(), separators=(",", ":")) + "\n").encode()

    implicit, cone = hashlib.sha256(), hashlib.sha256()
    for s in OFF_GRID_SPECS:
        implicit.update(line(implicit_equation(s)))
        cone.update(line(tangent_cone(s)))
    assert len(OFF_GRID_SPECS) == 175
    assert implicit.hexdigest() == "c7fc688afca04c3a70ed55790a0fc78a6fff47532781ea708646ac5d2810e435"
    assert cone.hexdigest() == "1528e7301da9cf133180865a3043c0f5adfffd9482025e9a276fc8db9f0ba7aa"


def test_grid_coefficients_are_integers():
    # curve's term maps reach MultiPoly without validation, so each
    # equation is checked here, and is its own primitive form.
    for s in grid_specs() + OFF_GRID_SPECS:
        polys = [implicit_equation(s)]
        if not s.is_odd_rose:
            polys.append(tangent_cone(s))
        for p in polys:
            assert_valid_poly(p)
            assert p.variables == XY and p.total_degree >= 0, s
            assert p == p.primitive(), s


def _product(p, q):
    """p * q of two integer term maps, one product per pair of terms."""
    product = {}
    for (i, j), c in p.items():
        for (k, l), e in q.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + c * e
    return product


def _reference_implicit_terms(s):
    """The implicit equation's term map by squaring the body, content not divided out.

    With S = Re z^n, c = den(a)^d and the kept and radical radial sums K and
    R, F = (c S - w^s K)^2 - w^t R^2; for odd-product roses the body
    c S - w^s K is the equation.  ``curve.implicit_equation`` builds 2 F from
    2 S^2 = w^n + Re z^(2n) instead, so it squares no bivariate map.
    """
    n, d, r = s.n, s.d, s.a.denominator
    even, odd = curve._radial_coeffs(d, s.a.numerator, r)
    kept, radical = (even, odd) if n % 2 == 0 else (odd, even)
    body = curve._sub(curve._cos_multiple_angle(n, r**d), curve._w_power_poly(kept, (n + 1) // 2))
    if s.is_odd_rose:
        return body
    square = [0] * (2 * len(radical) - 1)
    for k, c in enumerate(radical):
        for l, e in enumerate(radical):
            square[k + l] += c * e
    return curve._sub(_product(body, body), curve._w_power_poly(square, n + 1 - n % 2))


def _assert_matches_reference(s):
    reference = make_poly(XY, _reference_implicit_terms(s)).primitive()
    assert implicit_equation(s).terms == reference.terms, s


def test_implicit_equals_squared_body_reference():
    for s in grid_specs() + OFF_GRID_SPECS:
        _assert_matches_reference(s)


@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 60),
    st.integers(1, 9),
)
def test_implicit_equals_squared_body_reference_drawn(n, d, p, q):
    assume(math.gcd(n, d) == 1)
    _assert_matches_reference(spec(n, d, Fraction(p, q)))


@pytest.mark.parametrize("n", range(1, 25))
def test_square_of_cos_multiple_angle(n):
    # 2 (Re z^n)^2 = w^n + Re z^(2n), the identity behind the implicit build.
    s = curve._cos_multiple_angle(n, 1)
    twice_square = {e: 2 * c for e, c in _product(s, s).items() if c}
    identity = curve._w_power_poly([1], n)
    for e, c in curve._cos_multiple_angle(2 * n, 1).items():
        identity[e] = identity.get(e, 0) + c
    assert twice_square == {e: c for e, c in identity.items() if c}


def test_implicit_symmetry_in_y():
    # P(x, -y) == P(x, y) exactly when every term has an even y exponent.
    for s in [spec(3, 1, "1/2"), spec(2, 3, "1/2"), spec(7, 3)]:
        p = implicit_equation(s)
        assert all(ey % 2 == 0 for _, ey in p.terms)


def _max_scaled_residual(curve_spec, samples=256):
    # A plain float loop over the term map, independent of the numpy
    # evaluation in chsurf.verify.
    p = implicit_equation(curve_spec)
    terms = [(ex, ey, float(c.re)) for (ex, ey), c in p.terms.items()]
    coeff_scale = max(abs(c) for _, _, c in terms)
    degree = p.total_degree
    worst = 0.0
    period = curve_spec.parameter_period
    for k in range(samples):
        phi = period * k / samples
        r = polar_radius(curve_spec, phi)
        x, y = r * math.cos(phi), r * math.sin(phi)
        value = sum(c * x**ex * y**ey for ex, ey, c in terms)
        scale = coeff_scale * max(1.0, abs(r)) ** degree
        worst = max(worst, abs(value) / scale)
    return worst


@pytest.mark.parametrize(
    "n,d,a",
    [(1, 1, "1/2"), (2, 3, "1/2"), (7, 3, "1/4"), (3, 2, "0"), (5, 3, "5/2"), (9, 8, "5/2")],
)
def test_polar_samples_satisfy_implicit(n, d, a):
    assert _max_scaled_residual(spec(n, d, a)) <= 1e-9


# -- cone constant -----------------------------------------------------------------


def test_cone_constant_examples():
    assert origin_cone_constant(spec(1, 1, 1)) == Fraction(-1)
    assert origin_cone_constant(spec(1, 1, 0)) == Fraction(0)
    assert origin_cone_constant(spec(1, 3, 2)) == Fraction(-26)


def test_cone_constant_closed_examples():
    assert origin_cone_constant_closed(spec(1, 4, 1)) == Fraction(1)
    assert origin_cone_constant_closed(spec(1, 2, 0)) == Fraction(-1)


def test_cone_constant_chebyshev_oracle():
    # The double sum telescopes to the degree-d Chebyshev polynomial at -a.
    t = sympy.symbols("t")
    for d in range(1, 8):
        for a in [Fraction(0), Fraction(1, 4), Fraction(1), Fraction(5, 2)]:
            expected = sympy.chebyshevt(d, t).subs(t, sympy.Rational(-a))
            assert origin_cone_constant(spec(1, d, a)) == Fraction(str(expected))


# -- tangent cone -------------------------------------------------------------------


def test_tangent_cone_explicit_quartic():
    # n = 2, d = 1, a = 2: constant is -2, so the cone is (3x^2 + y^2)^2.
    cone = tangent_cone(spec(2, 1, 2))
    assert cone == make_poly(XY, {(4, 0): 9, (2, 2): 6, (0, 4): 1})


def test_tangent_cone_matches_lowest_form():
    for s in [spec(3, 1, "1/2"), spec(2, 3, "1/2"), spec(3, 2, "0"), spec(7, 3, "1")]:
        cone = tangent_cone(s)
        assert cone.total_degree == 2 * s.n
        assert {sum(e) for e in cone.terms} == {2 * s.n}
        assert implicit_equation(s).lowest_form().primitive() == cone


def test_tangent_cone_rejects_odd_rose():
    with pytest.raises(ValueError):
        tangent_cone(spec(3, 1, 0))


def test_lowest_form_degree_examples():
    assert implicit_equation(spec(3, 1, "1/2")).lowest_form().total_degree == 6


# -- absolute points -----------------------------------------------------------------


def test_absolute_multiplicity_examples():
    assert absolute_point_multiplicity(spec(3, 1)) == 1
    assert absolute_point_multiplicity(spec(3, 1, "1/2")) == 2
    assert absolute_point_multiplicity(spec(2, 3, "1/2")) == 5


# The two line readings below are references only.  Along the line
# x2 = i*x1 + m*x0 through the circular point, with x1 = 1 and x0 = t, the
# equation becomes g(t) = sum c_ab t^(D-a-b) (i + m t)^b, and its order at
# t = 0 is at least the point's multiplicity, with equality unless the line
# is tangent there.  Slope 0 is tangent on part of the grid.


def _absolute_multiplicity_full_expansion(s, m):
    """Every coefficient of g(t) up to degree D, then the lowest nonzero order."""
    m = Fraction(m)
    implicit = implicit_equation(s)
    degree = implicit.total_degree
    num_powers = [m.numerator**k for k in range(degree + 1)]
    den_powers = [m.denominator**k for k in range(degree + 1)]
    i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    re = [0] * (degree + 1)
    im = [0] * (degree + 1)
    for (a, b), coeff in implicit.terms.items():
        c = coeff.re
        shift = degree - a - b
        for k in range(b + 1):
            value = c * math.comb(b, k) * num_powers[k] * den_powers[degree - k]
            unit_re, unit_im = i_powers[(b - k) % 4]
            re[shift + k] += unit_re * value
            im[shift + k] += unit_im * value
    for order in range(degree + 1):
        if re[order] or im[order]:
            return order
    raise RuntimeError("line lies on the curve; implicit equation is broken")


def _absolute_multiplicity_per_term(s, m):
    """Each term of g(t) scaled by its own slope power, then summed per order."""
    m = Fraction(m)
    implicit = implicit_equation(s)
    degree = implicit.total_degree
    num_powers = [m.numerator**k for k in range(degree + 1)]
    den_powers = [m.denominator**k for k in range(degree + 1)]
    i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    by_shift = {}
    for (a, b), coeff in implicit.terms.items():
        by_shift.setdefault(degree - a - b, []).append((b, coeff.re))  # the equation is real
    for order in range(degree + 1):
        re = im = 0
        for shift, terms in by_shift.items():
            k = order - shift  # t^order takes t^k from (i + m t)^b
            if k < 0:
                continue
            scale = num_powers[k] * den_powers[degree - k]
            for b, c in terms:
                if k > b:
                    continue
                value = c * math.comb(b, k) * scale
                unit_re, unit_im = i_powers[(b - k) % 4]
                re += unit_re * value
                im += unit_im * value
        if re or im:
            return order
    raise RuntimeError("line lies on the curve; implicit equation is broken")


def _check_line_reference(reference, slopes):
    """The exact route equals ``reference`` at every nonzero slope on the grid.

    At slope 0 the reference reads at least as high, and higher on some
    spec, where the line is tangent.
    """
    tangent = 0
    for s in grid_specs():
        exact = absolute_point_multiplicity(s)
        for m in slopes:
            assert reference(s, m) == exact, (s, m)
        along_zero = reference(s, 0)
        assert along_zero >= exact, s
        tangent += along_zero > exact
    assert tangent > 0


def test_absolute_multiplicity_matches_full_expansion_over_grid():
    _check_line_reference(
        _absolute_multiplicity_full_expansion,
        [Fraction(1), Fraction(-1), Fraction(4, 7), Fraction(-9, 2)],
    )


def test_absolute_multiplicity_matches_per_term_sum_over_grid():
    # Negative, integer and p/q slopes with p, q <= 9.
    slopes = [Fraction(p) for p in (-9, -1, 1, 2, 7)]
    slopes += [Fraction(p, q) for p, q in ((-7, 9), (-3, 2), (2, 9), (5, 4), (8, 3), (9, 7))]
    _check_line_reference(_absolute_multiplicity_per_term, slopes)


def _absolute_multiplicity_gaussian_scan(s):
    """Every S(s,k) = sum c_ab C(b, k) i^(b-k) by total degree, on Gaussian ints.

    The expansion at (0 : 1 : i) read term by term, as the program did before
    it counted divisions by t^2 + 1.
    """
    implicit = implicit_equation(s)
    degree = implicit.total_degree
    i_powers = ((1, 0), (0, 1), (-1, 0), (0, -1))
    by_shift = {}
    for (a, b), coeff in implicit.terms.items():
        by_shift.setdefault(degree - a - b, []).append((b, coeff.re))
    for order in range(degree + 1):
        for shift, terms in by_shift.items():
            k = order - shift
            if k < 0:
                continue
            re = im = 0
            for b, c in terms:
                if k > b:
                    continue
                value = c * math.comb(b, k)
                unit_re, unit_im = i_powers[(b - k) % 4]
                re += unit_re * value
                im += unit_im * value
            if re or im:
                return order
    raise RuntimeError("the implicit equation is zero")


def test_absolute_multiplicity_division_matches_gaussian_scan():
    for s in grid_specs() + OFF_GRID_SPECS:
        assert absolute_point_multiplicity(s) == _absolute_multiplicity_gaussian_scan(s), s


def _times_t2_plus_1(coeffs):
    padded = coeffs + [0, 0]
    return [c + (padded[b - 2] if b >= 2 else 0) for b, c in enumerate(padded)]


def _value_at_i_is_nonzero(coeffs):
    re = sum(c * (-1) ** (b // 2) for b, c in enumerate(coeffs) if b % 2 == 0)
    im = sum(c * (-1) ** (b // 2) for b, c in enumerate(coeffs) if b % 2 == 1)
    return bool(re or im)


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
        lambda h: h[-1] != 0 and _value_at_i_is_nonzero(h)
    ),
    st.integers(0, 4),
    st.integers(0, 6),
)
def test_t2_plus_1_multiplicity_counts_exact_divisions(h, power, limit):
    # (t^2 + 1)^power h(t) with h(i) != 0, odd powers of t included: the
    # implicit equations have only even powers of y, so the grid never
    # exercises the odd part of the remainder.
    coeffs = h
    for _ in range(power):
        coeffs = _times_t2_plus_1(coeffs)
    assert curve._t2_plus_1_multiplicity(coeffs, limit) == min(power, limit)


def test_verified_absolute_multiplicity_agrees_with_table():
    # verified_absolute_multiplicity is the same reading; its seed is ignored.
    for s in grid_specs():
        expected = curve_properties(s).absolute_multiplicity
        assert absolute_point_multiplicity(s) == expected, s
    for s in [spec(3, 1), spec(2, 3, "1/2"), spec(7, 3, "1/4"), spec(1, 1, "1/2")]:
        assert verified_absolute_multiplicity(s, seed=7) == absolute_point_multiplicity(s)
        assert verified_absolute_multiplicity(s) == absolute_point_multiplicity(s)


def test_absolute_multiplicity_sympy_oracle():
    # Re-derive the vanishing order along a generic line with sympy end to
    # end: homogenize the implicit form, substitute the line, expand, take
    # the lowest x0 power.
    x0, x1, x2 = sympy.symbols("x0 x1 x2")
    for s, m in [(spec(3, 1), Fraction(2, 5)), (spec(1, 1, "1/2"), Fraction(3, 4)),
                 (spec(2, 3, "1/2"), Fraction(1, 2))]:
        affine = implicit_equation(s)
        degree = affine.total_degree
        expr = 0
        for (ex, ey), coeff in affine.terms.items():
            expr += (
                sympy.Rational(coeff.re)
                * x1**ex * x2**ey * x0 ** (degree - ex - ey)
            )
        substituted = sympy.expand(
            expr.subs(x2, sympy.I * x1 + sympy.Rational(m) * x0)
        )
        poly = sympy.Poly(substituted, x0)
        low = min(k for k, c in enumerate(poly.all_coeffs()[::-1]) if c != 0)
        assert low == absolute_point_multiplicity(s)
        assert low == curve_properties(s).absolute_multiplicity


def test_circular_point_expansion_sympy_oracle():
    # The multiplicity by its definition: expand F(u, 1, i + v) with sympy
    # and take the lowest total degree in (u, v).  CH(1,2,0) is among the
    # specs the slope-0 line meets tangentially.
    u, v = sympy.symbols("u v")
    cases = [spec(1, 2), spec(3, 1), spec(2, 3, "1/2"), spec(7, 3, "1/4"), spec(4, 5, "5/2")]
    assert _absolute_multiplicity_full_expansion(spec(1, 2), 0) > absolute_point_multiplicity(spec(1, 2))
    for s in cases:
        affine = implicit_equation(s)
        degree = affine.total_degree
        local = sympy.expand(sum(
            sympy.Integer(coeff.re) * u ** (degree - a - b) * (sympy.I + v) ** b
            for (a, b), coeff in affine.terms.items()
        ))
        lowest = min(sum(exponents) for exponents in sympy.Poly(local, u, v).monoms())
        assert absolute_point_multiplicity(s) == lowest, s


def test_homogeneous_round_trip():
    for s in grid_specs() + OFF_GRID_SPECS:
        h, affine = homogeneous_implicit(s), implicit_equation(s)
        assert h.variables == ("x0", "x1", "x2")
        assert {sum(e) for e in h.terms} == {affine.total_degree} == {h.total_degree}
        # Dropping the x0 exponent of each term gives back the affine term map.
        assert {exps[1:]: c for exps, c in h.terms.items()} == affine.terms
        assert_valid_poly(h)
