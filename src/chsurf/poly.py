"""Sparse multivariate polynomials with exact integer coefficients.

Every polynomial the program builds is a primitive integer polynomial: the
implicit equation, its projective form, its lowest form and the pole tangent
cone.  ``curve`` builds them on plain integer term maps that it trusts, and
``MultiPoly._primitive_of_ints`` takes each map to its primitive polynomial
in one pass: it drops zeros, divides out the content, pins the sign and
wraps each coefficient once, without validating.  The public constructor,
which validates every term it is given, is for callers outside the
package.  The derivations (``primitive``, ``lowest_form`` and the
projective form of ``curve.homogeneous_implicit``) only divide, filter or
re-key terms that passed one of these two, so they build their results
through ``MultiPoly._valid`` and validate nothing again.  A coefficient is a
:class:`GaussianRational` record of two ints, so that the JSON form carries
a real and an imaginary part; the imaginary part is zero in practice.
Exponent vectors are dense tuples (arity here is 2 or 3) and term maps are
sparse.

Values are immutable after construction, so instances can be shared freely
across threads.

Serialization uses a canonical graded-lexicographic term order, which makes
equal polynomials produce byte-identical JSON.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from operator import index
from typing import Mapping, NamedTuple, Sequence, Union


class GaussianRational(NamedTuple):
    """A coefficient: integer real and imaginary parts, and no arithmetic.

    A non-empty tuple is always truthy, so test for zero on the parts.
    """

    re: int
    im: int = 0


def _grlex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse polynomial over an ordered variable list, with its primitive and lowest forms.

    ``terms`` maps exponent tuples to nonzero :class:`GaussianRational`
    coefficients; the zero polynomial has an empty term map.
    ``total_degree`` is the largest term degree, -1 for the zero
    polynomial; it is computed once, as the terms never change.
    """

    __slots__ = ("variables", "terms", "total_degree")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple, Union[int, GaussianRational]] = (),
    ):
        object.__setattr__(self, "variables", tuple(variables))
        clean = {}
        arity = len(self.variables)
        for exponents, coeff in dict(terms).items():
            try:
                exponents = tuple(map(index, exponents))
            except TypeError:
                raise ValueError(f"exponent tuple {exponents} has a non-integer entry") from None
            if len(exponents) != arity:
                raise ValueError(f"exponent tuple {exponents} does not match arity {arity}")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if not isinstance(coeff, GaussianRational):
                coeff = GaussianRational(coeff)
            if not (isinstance(coeff.re, int) and isinstance(coeff.im, int)):
                raise ValueError(f"coefficient {coeff!r} of {exponents} has a non-integer part")
            if coeff.re or coeff.im:
                clean[exponents] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "total_degree", max((sum(e) for e in clean), default=-1))

    @classmethod
    def _valid(cls, variables: tuple, terms: dict, total_degree: int) -> "MultiPoly":
        """Wrap terms that are already valid, unchanged and unchecked.

        ``terms`` maps int tuples of the right arity to nonzero
        ``GaussianRational`` coefficients, and ``total_degree`` is their
        largest degree; the caller guarantees both.  The derivations,
        :meth:`_primitive_of_ints` and ``curve.homogeneous_implicit`` build
        through here; outside callers use the validating constructor.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "variables", variables)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "total_degree", total_degree)
        return poly

    @classmethod
    def _primitive_of_ints(cls, variables: tuple, terms: Mapping[tuple, int]) -> "MultiPoly":
        """Primitive polynomial of a trusted int term map, built in one pass.

        The result equals ``MultiPoly(variables, terms).primitive()``.
        ``terms`` maps int tuples of the right arity to plain ints, which
        the caller guarantees, so nothing is validated.  Zero coefficients
        are dropped, the content is one ``gcd`` over the ints, its sign is
        pinned by the grlex-leading term as in :meth:`primitive` (the
        largest exponent tuple among the terms of top degree), and each
        quotient is wrapped in a :class:`GaussianRational` once.
        """
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls._valid(variables, {}, -1)
        degree = max(map(sum, terms))
        lead = max([e for e in terms if sum(e) == degree])
        content = gcd(*terms.values())
        if terms[lead] < 0:
            content = -content
        new = tuple.__new__  # GaussianRational's own __new__ runs in Python
        return cls._valid(
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
        return MultiPoly._valid(
            self.variables, {e: c for e, c in self.terms.items() if sum(e) == low}, low
        )

    def primitive(self) -> "MultiPoly":
        """Divide out the integer content and normalize the sign.

        The content is the gcd of all real and imaginary parts.  The leading
        coefficient in canonical order ends up with a positive real part
        (positive imaginary part when the real part is zero), which pins a
        unique representative of each class of rational multiples.
        """
        if self.is_zero():
            return self
        content = gcd(*chain.from_iterable(self.terms.values()))
        lead = self.terms[max(self.terms, key=_grlex_key)]
        if lead.re < 0 or (not lead.re and lead.im < 0):
            content = -content
        return MultiPoly._valid(
            self.variables,
            {e: GaussianRational(c.re // content, c.im // content) for e, c in self.terms.items()},
            self.total_degree,
        )

    def to_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exp": list(exps), "re": f"{c.re}/1", "im": f"{c.im}/1"}
                for exps, c in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {len(self.terms)} terms)"
