"""Sparse multivariate polynomials with exact Gaussian-rational coefficients.

A coefficient is a complex number a + b*i with rational a and b.  The
implicit equations are real integer polynomials, built by ``curve`` on plain
integer term maps and wrapped here once, so the imaginary parts are zero in
practice; they are kept so that the JSON form carries both parts.  Exponent
vectors are dense tuples (arity here is 2 or 3), term maps are sparse, and
integer parts are arbitrary precision via :class:`fractions.Fraction`.

Values are immutable after construction; every operation returns a new
polynomial, so instances can be shared freely across threads.

Serialization uses a canonical graded-lexicographic term order, which makes
equal polynomials produce byte-identical JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

Scalar = Union[int, Fraction, "GaussianRational"]


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, str, Fraction] = 0, im: Union[int, str, Fraction] = 0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value: Scalar) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def __add__(self, other: Scalar) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        other = GaussianRational.coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        # Fast paths keep the common all-real case at a single multiply.
        if not b:
            if not d:
                return GaussianRational(a * c)
            return GaussianRational(a * c, a * d)
        if not d:
            return GaussianRational(a * c, b * c)
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


GAUSSIAN_ZERO = GaussianRational(0)
GAUSSIAN_ONE = GaussianRational(1)


def _grlex_key(exponents: tuple) -> tuple:
    return (sum(exponents), exponents)


class MultiPoly:
    """Sparse polynomial over an ordered variable list.

    ``terms`` maps exponent tuples to nonzero :class:`GaussianRational`
    coefficients; the zero polynomial has an empty term map.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Scalar] = ()):
        object.__setattr__(self, "variables", tuple(variables))
        clean = {}
        arity = len(self.variables)
        for exponents, coeff in dict(terms).items():
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != arity:
                raise ValueError(f"exponent tuple {exponents} does not match arity {arity}")
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                clean[exponents] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(variables: Sequence[str]) -> "MultiPoly":
        return MultiPoly(variables)

    @staticmethod
    def constant(variables: Sequence[str], value: Scalar) -> "MultiPoly":
        variables = tuple(variables)
        return MultiPoly(variables, {(0,) * len(variables): value})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list:
        """Terms in canonical order: graded lexicographic, highest first."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def leading_coefficient(self) -> GaussianRational:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.sorted_terms()[0][1]

    # -- ring operations ---------------------------------------------------

    def _check_same_variables(self, other: "MultiPoly") -> None:
        if self.variables != other.variables:
            raise ValueError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def _coerce_operand(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            self._check_same_variables(other)
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce_operand(other)
        merged = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = merged.get(exps, GAUSSIAN_ZERO) + coeff
            if total:
                merged[exps] = total
            else:
                merged.pop(exps, None)
        return MultiPoly(self.variables, merged)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce_operand(other))

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            scalar = GaussianRational.coerce(other)
            if not scalar:
                return MultiPoly.zero(self.variables)
            return MultiPoly(self.variables, {e: c * scalar for e, c in self.terms.items()})
        self._check_same_variables(other)
        product: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = product.get(exps, GAUSSIAN_ZERO) + c1 * c2
                if total:
                    product[exps] = total
                else:
                    product.pop(exps, None)
        return MultiPoly(self.variables, product)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.variables, frozenset(self.terms.items())))

    # -- structural operations ---------------------------------------------

    def rename_variables(self, new_names: Sequence[str]) -> "MultiPoly":
        new_names = tuple(new_names)
        if len(new_names) != len(self.variables):
            raise ValueError("variable count mismatch")
        return MultiPoly(new_names, self.terms)

    def homogenize(self, new_var: str) -> "MultiPoly":
        """Prepend ``new_var`` and pad every term up to the total degree."""
        if self.is_zero():
            raise ValueError("cannot homogenize the zero polynomial")
        if new_var in self.variables:
            raise ValueError(f"variable {new_var!r} already present")
        degree = self.total_degree
        terms = {}
        for exps, coeff in self.terms.items():
            terms[(degree - sum(exps),) + exps] = coeff
        return MultiPoly((new_var,) + self.variables, terms)

    def lowest_form(self) -> "MultiPoly":
        """Sum of all terms of minimal total degree (always homogeneous)."""
        if self.is_zero():
            raise ValueError("zero polynomial has no lowest form")
        low = min(sum(e) for e in self.terms)
        return MultiPoly(self.variables, {e: c for e, c in self.terms.items() if sum(e) == low})

    def primitive(self) -> "MultiPoly":
        """Clear denominators, remove integer content, normalize the sign.

        The leading coefficient in canonical order ends up with a positive
        real part (positive imaginary part when the real part is zero),
        which pins a unique representative of each scalar class.
        """
        if self.is_zero():
            return self
        denominators = []
        for coeff in self.terms.values():
            denominators.append(coeff.re.denominator)
            denominators.append(coeff.im.denominator)
        scale = lcm(*denominators) if len(denominators) > 1 else denominators[0]
        content = 0
        for coeff in self.terms.values():
            content = gcd(content, abs(int(coeff.re * scale)))
            content = gcd(content, abs(int(coeff.im * scale)))
        factor = Fraction(scale, content if content else 1)
        scaled = self * factor
        lead = scaled.leading_coefficient()
        if lead.re < 0 or (not lead.re and lead.im < 0):
            scaled = -scaled
        return scaled

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "vars": list(self.variables),
            "terms": [
                {"exp": list(exps), "re": _fraction_str(c.re), "im": _fraction_str(c.im)}
                for exps, c in self.sorted_terms()
            ],
        }

    def __repr__(self) -> str:
        return f"MultiPoly({self.variables!r}, {len(self.terms)} terms)"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.variables, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == GAUSSIAN_ONE:
                parts.append(body)
            elif coeff == GaussianRational(-1):
                parts.append(f"-{body}")
            else:
                text = str(coeff)
                if "+" in text[1:] or "-" in text[1:]:
                    text = f"({text})"
                parts.append(f"{text}*{body}")
        joined = " + ".join(parts)
        return joined.replace("+ -", "- ")
