"""Unit and property tests for the exact polynomial kernel."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from chsurf.poly import GaussianRational, MultiPoly
from helpers import assert_valid_poly, make_poly

XY = ("x", "y")


def poly(terms):
    return make_poly(XY, terms)


def term_degrees(p):
    """Set of total degrees of the terms; one element for a nonzero form."""
    return {sum(e) for e in p.terms}


# -- coefficients -----------------------------------------------------------------


def test_real_coefficients_are_stored_with_zero_im():
    z = GaussianRational(-2)
    assert (z.re, z.im) == (-2, 0)
    with pytest.raises(AttributeError):
        z.re = 1
    p = MultiPoly._primitive_of_ints(XY, {(1, 0): 3, (0, 1): -2, (0, 0): 0})
    assert p.terms == {(1, 0): GaussianRational(3, 0), (0, 1): GaussianRational(-2, 0)}
    assert_valid_poly(p)


@pytest.mark.parametrize(
    "coeff",
    [
        Fraction(1, 2),
        Fraction(2),
        GaussianRational(1, Fraction(1, 3)),
        1.0,
        GaussianRational(0, 1),
        GaussianRational(2, -3),
    ],
)
def test_non_integer_coefficient_rejected(coeff):
    # MultiPoly trusts its caller; assert_valid_poly is the check the tests
    # make on what the kernel builds.
    if not isinstance(coeff, GaussianRational):
        coeff = GaussianRational(coeff)
    with pytest.raises(AssertionError):
        assert_valid_poly(MultiPoly(XY, {(1, 0): coeff}, 1))


@pytest.mark.parametrize("exponent", [2.7, 2.0, Fraction(2)])
def test_non_integer_exponent_rejected(exponent):
    with pytest.raises(AssertionError):
        assert_valid_poly(MultiPoly(XY, {(exponent, 0): GaussianRational(1)}, 2))


# -- forms -----------------------------------------------------------------------


def test_lowest_form():
    p = poly({(2, 0): 1, (0, 2): 1, (1, 0): -1})
    assert p.lowest_form() == poly({(1, 0): -1})
    q = poly({(4, 0): 1, (2, 2): 1})
    assert q.lowest_form() == q
    with pytest.raises(ValueError):
        poly({}).lowest_form()


# -- canonical form and serialization -------------------------------------------


def test_primitive_divides_content_and_pins_sign():
    p = poly({(2, 0): -6, (0, 2): -12, (1, 0): 18})
    assert p.primitive() == poly({(2, 0): 1, (0, 2): 2, (1, 0): -3})
    # The grlex-leading term (2, 0) sets the sign, not the largest coefficient.
    q = poly({(0, 2): 9, (2, 0): -3, (0, 0): 6})
    assert q.primitive() == poly({(0, 2): -3, (2, 0): 1, (0, 0): -2})
    assert p.primitive().primitive() == p.primitive()


def test_json_round_trip_and_order():
    p = poly({(0, 2): -2, (2, 0): 1, (1, 0): -3})
    data = p.to_dict()
    assert data["terms"][0] == {"exp": [2, 0], "re": "1/1", "im": "0/1"}
    assert data["terms"][1] == {"exp": [0, 2], "re": "-2/1", "im": "0/1"}
    assert data["terms"][2] == {"exp": [1, 0], "re": "-3/1", "im": "0/1"}
    rebuilt = {}
    for entry in data["terms"]:
        assert entry["im"] == "0/1"
        rebuilt[tuple(entry["exp"])] = int(Fraction(entry["re"]))
    assert make_poly(data["vars"], rebuilt) == p


def test_structural_error_paths():
    p = poly({(1, 0): 1})
    one = GaussianRational(1)
    for bad in (
        MultiPoly(XY, {(1,): one}, 1),  # wrong arity
        MultiPoly(XY, {(-1, 0): one}, -1),  # negative exponent
        MultiPoly(XY, {(1, 0): GaussianRational(0)}, 1),  # a zero coefficient kept
        MultiPoly(XY, {(1, 0): one}, 2),  # wrong degree
        MultiPoly(list(XY), {(1, 0): one}, 1),  # variables not a tuple
    ):
        with pytest.raises(AssertionError):
            assert_valid_poly(bad)
    assert MultiPoly._primitive_of_ints(XY, {}).is_zero()
    assert poly({}).primitive().is_zero()
    assert poly({(0, 0): 0}).is_zero()
    # _primitive_of_ints stores the degree of the terms left after zeros are dropped.
    assert MultiPoly._primitive_of_ints(XY, {}).total_degree == -1
    assert MultiPoly._primitive_of_ints(XY, {(5, 0): 0, (1, 1): 2}).total_degree == 2
    with pytest.raises(AttributeError):
        p.total_degree = 7


# -- property tests -------------------------------------------------------------

small_ints = st.integers(min_value=-9, max_value=9)

coefficients = small_ints

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))

polys = st.dictionaries(exponents, coefficients, max_size=4).map(poly)


# Curve-sized int term maps: zero coefficients, either sign of lead, the
# empty map, and coefficients and contents far wider than a machine word.
wide_ints = st.one_of(
    small_ints, st.sampled_from([2**200, -(2**200)]), st.integers(-(2**200), 2**200)
)

int_maps = st.builds(
    lambda terms, scale: {e: c * scale for e, c in terms.items()},
    st.dictionaries(exponents, wide_ints, max_size=5),
    st.one_of(st.just(1), st.sampled_from([2**100, -(2**100)]), st.integers(-(2**120), 2**120)),
)


def _reference_primitive(terms):
    """Primitive form of an int term map, stated apart from ``poly.py``.

    The gcd of the nonzero coefficients, negated when the grlex-leading
    term (highest degree, then largest exponent tuple) is negative.
    """
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return {}
    lead = max(terms, key=lambda e: (sum(e), e))
    content = gcd(*terms.values()) * (1 if terms[lead] > 0 else -1)
    return {e: c // content for e, c in terms.items()}


@given(int_maps)
def test_primitive_of_ints_equals_validated_primitive(terms):
    fast = MultiPoly._primitive_of_ints(XY, terms)
    slow = poly(terms).primitive()
    assert fast == slow
    assert fast.total_degree == slow.total_degree
    expected = _reference_primitive(terms)
    assert {e: c.re for e, c in fast.terms.items()} == expected
    assert_valid_poly(fast)


@given(polys)
def test_lowest_form_degree(p):
    if p.is_zero():
        return
    low = p.lowest_form()
    assert len(term_degrees(low)) == 1
    assert low.total_degree <= p.total_degree
    if low.total_degree == p.total_degree:
        assert len(term_degrees(p)) == 1


@given(polys)
def test_derivations_equal_their_validated_rebuild(p):
    # Each derivation is a valid polynomial, and equals the one written out
    # from its own coefficients.
    derived = [p.primitive()]
    if not p.is_zero():
        derived += [p.lowest_form(), p.lowest_form().primitive()]
    for q in derived:
        assert_valid_poly(q)
        assert q == poly({e: c.re for e, c in q.terms.items()})
