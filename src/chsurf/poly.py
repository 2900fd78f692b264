"""Sparse multivariate polynomials with exact integer coefficients.

Every polynomial the program builds is a primitive integer polynomial: the
implicit equation, its projective form, its lowest form and the pole tangent
cone.  ``curve`` builds them on plain integer term maps that it trusts, and
``MultiPoly._primitive_of_ints`` takes each map to its primitive polynomial
in one pass: it drops zeros, divides out the content, pins the sign and
wraps each coefficient once.  It is the one place where content and sign
are fixed; ``primitive`` calls it too.  The constructor validates nothing:
``lowest_form`` and the projective form of ``curve.homogeneous_implicit``
only filter or re-key terms that ``_primitive_of_ints`` built, and wrap
them as they are.  A coefficient is stored as a :class:`GaussianRational`
record whose ``im`` is always 0: the record stays because the benchmark's
tracer reads both parts; the JSON form writes every ``im`` as the constant
``"0/1"``.  Exponent vectors are dense tuples (arity here is 2 or 3) and
term maps are sparse.

Values are immutable after construction, so instances can be shared freely
across threads.

Serialization uses a canonical graded-lexicographic term order, which makes
equal polynomials produce byte-identical JSON.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping, NamedTuple


class GaussianRational(NamedTuple):
    """A coefficient: an integer real part, and an imaginary part that is always 0.

    Every equation the program builds has real integer coefficients.  The
    record keeps the ``re``/``im`` shape that the benchmark's tracer reads,
    and has no arithmetic.  A non-empty tuple is always truthy, so test for
    zero on ``re``.
    """

    re: int
    im: int = 0


def _grlex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse polynomial over an ordered variable list, with its primitive and lowest forms.

    ``terms`` maps int exponent tuples of the arity of ``variables`` to
    nonzero :class:`GaussianRational` coefficients with an int ``re`` and
    ``im == 0``; the zero polynomial has an empty term map.
    ``total_degree`` is the largest term degree, -1 for the zero
    polynomial; it is stored once, as the terms never change.  The
    constructor checks none of this: its caller guarantees it, and an int
    term map becomes a polynomial through :meth:`_primitive_of_ints`.
    """

    __slots__ = ("variables", "terms", "total_degree")

    def __init__(self, variables: tuple, terms: dict, total_degree: int):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "total_degree", total_degree)

    @classmethod
    def _primitive_of_ints(cls, variables: tuple, terms: Mapping[tuple, int]) -> "MultiPoly":
        """Primitive polynomial of a trusted int term map, built in one pass.

        ``terms`` maps int tuples of the right arity to plain ints, which
        the caller guarantees, so nothing is validated.  Zero coefficients
        are dropped, the content is one ``gcd`` over the ints, its sign
        makes the grlex-leading term (the largest exponent tuple among the
        terms of top degree) positive, which pins a unique representative
        of each class of rational multiples, and each quotient is wrapped
        in a :class:`GaussianRational` once.
        """
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls(variables, {}, -1)
        degree = max(map(sum, terms))
        lead = max([e for e in terms if sum(e) == degree])
        content = gcd(*terms.values())
        if terms[lead] < 0:
            content = -content
        new = tuple.__new__  # GaussianRational's own __new__ runs in Python
        return cls(
            variables,
            {e: new(GaussianRational, (c // content, 0)) for e, c in terms.items()},
            degree,
        )

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list:
        """Terms in canonical order: graded lexicographic, highest first."""
        terms = self.terms
        return [(e, terms[e]) for e in sorted(terms, key=_grlex_key, reverse=True)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def lowest_form(self) -> "MultiPoly":
        """Sum of all terms of minimal total degree (always homogeneous)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no lowest form")
        low = min(map(sum, self.terms))
        return MultiPoly(
            self.variables, {e: c for e, c in self.terms.items() if sum(e) == low}, low
        )

    def primitive(self) -> "MultiPoly":
        """Divide out the content and make the lead positive (see :meth:`_primitive_of_ints`)."""
        return MultiPoly._primitive_of_ints(
            self.variables, {e: c.re for e, c in self.terms.items()}
        )

    def to_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exp": list(exps), "re": f"{c.re}/1", "im": "0/1"}
                for exps, c in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {len(self.terms)} terms)"
