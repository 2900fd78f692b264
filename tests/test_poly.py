"""Unit and property tests for the exact polynomial kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chsurf.poly import GaussianRational, MultiPoly

XY = ("x", "y")


def poly(terms):
    return MultiPoly(XY, terms)


def var(name):
    return poly({(1, 0) if name == "x" else (0, 1): 1})


# -- independent oracles -----------------------------------------------------


def merge_oracle(p, q):
    """Term-map merge done with plain tuples, independent of MultiPoly.__add__."""
    acc = {}
    for source in (p.terms, q.terms):
        for exps, coeff in source.items():
            acc[exps] = acc.get(exps, GaussianRational(0)) + coeff
    return {e: c for e, c in acc.items() if c}


def convolution_oracle(p, q):
    """Distributive product computed over explicit term lists."""
    acc = {}
    for e1, c1 in list(p.terms.items()):
        for e2, c2 in list(q.terms.items()):
            key = (e1[0] + e2[0], e1[1] + e2[1])
            acc[key] = acc.get(key, GaussianRational(0)) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def dehomogenized_terms(h):
    """Term map with the leading (homogenizing) exponent dropped from each term."""
    return {exps[1:]: coeff for exps, coeff in h.terms.items()}


def term_degrees(p):
    """Set of total degrees of the terms; one element for a nonzero form."""
    return {sum(e) for e in p.terms}


# -- gaussian rationals -------------------------------------------------------


def test_gaussian_basics():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z + z == GaussianRational(1, Fraction(-3, 2))
    assert z - z == GaussianRational(0)
    assert GaussianRational(0, 1) * GaussianRational(0, 1) == GaussianRational(-1)
    assert z.conjugate().conjugate() == z
    assert complex(GaussianRational(1, 2)) == 1 + 2j
    assert not GaussianRational(0, 0)


def test_gaussian_mul_mixed_axes():
    assert GaussianRational(0, 2) * GaussianRational(0, 3) == GaussianRational(-6)
    assert GaussianRational(2) * GaussianRational(0, 3) == GaussianRational(0, 6)
    assert GaussianRational(1, 1) * GaussianRational(1, -1) == GaussianRational(2)


# -- arithmetic ---------------------------------------------------------------


def test_add_additive_inverse():
    x = var("x")
    assert (x + (-x)).is_zero()


def test_add_merges_terms():
    p = poly({(2, 0): 1, (0, 2): 1})
    q = poly({(1, 0): -1})
    expected = merge_oracle(p, q)
    assert (p + q).terms == expected
    assert (p + MultiPoly.zero(XY)) == p


def test_add_variable_mismatch():
    p = MultiPoly(("x", "y"), {(1, 0): 1})
    q = MultiPoly(("x", "z"), {(1, 0): 1})
    with pytest.raises(ValueError):
        p + q


def test_mul_difference_of_squares():
    x, y = var("x"), var("y")
    assert (x + y) * (x - y) == poly({(2, 0): 1, (0, 2): -1})


def test_mul_matches_convolution_oracle():
    p = poly({(2, 0): 1, (0, 2): 1})
    assert (p * p).terms == convolution_oracle(p, p)
    assert (p * p) == poly({(4, 0): 1, (2, 2): 2, (0, 4): 1})
    assert p * MultiPoly.constant(XY, 1) == p


# -- homogenization and forms ---------------------------------------------------


def test_homogenize_circle():
    p = poly({(2, 0): 1, (0, 2): 1, (1, 0): -1})
    h = p.homogenize("x0")
    assert h.variables == ("x0", "x", "y")
    assert h == MultiPoly(("x0", "x", "y"), {(0, 2, 0): 1, (0, 0, 2): 1, (1, 1, 0): -1})
    assert term_degrees(h) == {2}
    assert dehomogenized_terms(h) == p.terms


def test_homogenize_constant():
    one = MultiPoly.constant(XY, 1)
    assert one.homogenize("x0") == MultiPoly.constant(("x0", "x", "y"), 1)


def test_homogenize_zero_rejected():
    with pytest.raises(ValueError):
        MultiPoly.zero(XY).homogenize("x0")


def test_lowest_form():
    p = poly({(2, 0): 1, (0, 2): 1, (1, 0): -1})
    assert p.lowest_form() == poly({(1, 0): -1})
    q = poly({(4, 0): 1, (2, 2): 1})
    assert q.lowest_form() == q
    with pytest.raises(ValueError):
        MultiPoly.zero(XY).lowest_form()


# -- canonical form and serialization -------------------------------------------


def test_primitive_clears_denominators_and_sign():
    p = poly({(2, 0): Fraction(-2, 3), (0, 2): Fraction(-4, 3)})
    prim = p.primitive()
    assert prim == poly({(2, 0): 1, (0, 2): 2})


def test_json_round_trip_and_order():
    p = poly({(0, 2): Fraction(1, 2), (2, 0): 1, (1, 0): GaussianRational(0, -3)})
    data = p.to_dict()
    assert data["terms"][0] == {"exp": [2, 0], "re": "1/1", "im": "0/1"}
    assert data["terms"][1] == {"exp": [0, 2], "re": "1/2", "im": "0/1"}
    assert data["terms"][2] == {"exp": [1, 0], "re": "0/1", "im": "-3/1"}
    rebuilt = {
        tuple(entry["exp"]): GaussianRational(Fraction(entry["re"]), Fraction(entry["im"]))
        for entry in data["terms"]
    }
    assert MultiPoly(data["vars"], rebuilt) == p


def test_structural_error_paths():
    p = poly({(1, 0): 1})
    with pytest.raises(ValueError):
        p.rename_variables(("x",))
    with pytest.raises(ValueError):
        MultiPoly.zero(XY).leading_coefficient()
    with pytest.raises(ValueError):
        MultiPoly(XY, {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(XY, {(-1, 0): 1})
    assert MultiPoly.zero(XY).primitive().is_zero()
    assert MultiPoly.constant(XY, 0).is_zero()


# -- property tests -------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)

coefficients = st.builds(
    GaussianRational,
    small_fractions,
    st.one_of(st.just(Fraction(0)), small_fractions),
)

exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))

polys = st.dictionaries(exponents, coefficients, max_size=4).map(
    lambda terms: MultiPoly(XY, terms)
)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_mul_degree_additivity(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).total_degree == p.total_degree + q.total_degree


@given(polys)
def test_homogenize_round_trip(p):
    if p.is_zero():
        return
    h = p.homogenize("x0")
    assert term_degrees(h) == {p.total_degree}
    assert h.total_degree == p.total_degree
    assert dehomogenized_terms(h) == p.terms


@given(polys)
def test_lowest_form_degree(p):
    if p.is_zero():
        return
    low = p.lowest_form()
    assert len(term_degrees(low)) == 1
    assert low.total_degree <= p.total_degree
    if low.total_degree == p.total_degree:
        assert len(term_degrees(p)) == 1
