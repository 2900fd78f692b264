"""Unit and property tests for the exact polynomial kernel."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chsurf.poly import GaussianRational, MultiPoly

XY = ("x", "y")


def poly(terms):
    return MultiPoly(XY, terms)


def term_degrees(p):
    """Set of total degrees of the terms; one element for a nonzero form."""
    return {sum(e) for e in p.terms}


# -- coefficients -----------------------------------------------------------------


def test_gaussian_basics():
    z = GaussianRational(2, -3)
    assert (z.re, z.im) == (2, -3)
    assert GaussianRational(5) == GaussianRational(5, 0)
    with pytest.raises(AttributeError):
        z.re = 1
    p = poly({(1, 0): 3, (0, 1): GaussianRational(0, -2), (0, 0): GaussianRational(0, 0)})
    assert p.terms == {(1, 0): GaussianRational(3, 0), (0, 1): GaussianRational(0, -2)}


@pytest.mark.parametrize(
    "coeff", [Fraction(1, 2), Fraction(2), GaussianRational(1, Fraction(1, 3)), 1.0]
)
def test_non_integer_coefficient_rejected(coeff):
    with pytest.raises(ValueError):
        poly({(1, 0): coeff})


@pytest.mark.parametrize("exponent", [2.7, 2.0, Fraction(2)])
def test_non_integer_exponent_rejected(exponent):
    with pytest.raises(ValueError):
        poly({(exponent, 0): 1})


def test_numpy_integer_exponent_accepted():
    p = poly({(np.int64(2), np.uint8(1)): 3})
    assert p == poly({(2, 1): 3})
    assert all(type(e) is int for exps in p.terms for e in exps)
    assert p.total_degree == 3


# -- forms -----------------------------------------------------------------------


def test_lowest_form():
    p = poly({(2, 0): 1, (0, 2): 1, (1, 0): -1})
    assert p.lowest_form() == poly({(1, 0): -1})
    q = poly({(4, 0): 1, (2, 2): 1})
    assert q.lowest_form() == q
    with pytest.raises(ValueError):
        MultiPoly(XY).lowest_form()


# -- canonical form and serialization -------------------------------------------


def test_primitive_divides_content_and_pins_sign():
    p = poly({(2, 0): -6, (0, 2): -12, (1, 0): GaussianRational(0, 18)})
    assert p.primitive() == poly({(2, 0): 1, (0, 2): 2, (1, 0): GaussianRational(0, -3)})
    # A pure-imaginary lead is made positive; the content counts both parts.
    q = poly({(2, 0): GaussianRational(0, -4), (0, 0): GaussianRational(6, 2)})
    expected = poly({(2, 0): GaussianRational(0, 2), (0, 0): GaussianRational(-3, -1)})
    assert q.primitive() == expected
    assert p.primitive().primitive() == p.primitive()


def test_json_round_trip_and_order():
    p = poly({(0, 2): -2, (2, 0): 1, (1, 0): GaussianRational(0, -3)})
    data = p.to_dict()
    assert data["terms"][0] == {"exp": [2, 0], "re": "1/1", "im": "0/1"}
    assert data["terms"][1] == {"exp": [0, 2], "re": "-2/1", "im": "0/1"}
    assert data["terms"][2] == {"exp": [1, 0], "re": "0/1", "im": "-3/1"}
    rebuilt = {
        tuple(entry["exp"]): GaussianRational(
            int(Fraction(entry["re"])), int(Fraction(entry["im"]))
        )
        for entry in data["terms"]
    }
    assert MultiPoly(data["vars"], rebuilt) == p


def test_structural_error_paths():
    p = poly({(1, 0): 1})
    with pytest.raises(ValueError):
        MultiPoly(XY, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(XY, {(-1, 0): 1})
    assert MultiPoly(XY).primitive().is_zero()
    assert poly({(0, 0): 0}).is_zero()
    # The degree is stored once, from the terms left after zeros are dropped.
    assert MultiPoly(XY).total_degree == -1
    assert poly({(5, 0): 0, (1, 1): 2}).total_degree == 2
    with pytest.raises(AttributeError):
        p.total_degree = 7


# -- property tests -------------------------------------------------------------

small_ints = st.integers(min_value=-9, max_value=9)

coefficients = st.builds(GaussianRational, small_ints, st.one_of(st.just(0), small_ints))

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))

polys = st.dictionaries(exponents, coefficients, max_size=4).map(
    lambda terms: MultiPoly(XY, terms)
)


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


@given(int_maps)
def test_primitive_of_ints_equals_validated_primitive(terms):
    fast = MultiPoly._primitive_of_ints(XY, terms)
    slow = MultiPoly(XY, terms).primitive()
    assert fast == slow
    assert fast.total_degree == slow.total_degree
    for coeff in fast.terms.values():
        assert type(coeff) is GaussianRational
        assert type(coeff.re) is int and type(coeff.im) is int


@given(polys)
def test_lowest_form_degree(p):
    if p.is_zero():
        return
    low = p.lowest_form()
    assert len(term_degrees(low)) == 1
    assert low.total_degree <= p.total_degree
    if low.total_degree == p.total_degree:
        assert len(term_degrees(p)) == 1


def _rebuilt(p):
    """``p`` through the validating constructor, from its own terms."""
    return MultiPoly(p.variables, p.terms)


@given(polys)
def test_derivations_equal_their_validated_rebuild(p):
    derived = [p.primitive()]
    if not p.is_zero():
        derived += [p.lowest_form(), p.lowest_form().primitive()]
    for q in derived:
        rebuilt = _rebuilt(q)
        assert q == rebuilt
        assert q.total_degree == rebuilt.total_degree
