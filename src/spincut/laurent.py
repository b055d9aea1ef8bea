"""Exact arithmetic for integer Laurent polynomials in the circle variable.

A virtual character of the circle is its Laurent polynomial in the circle
variable lambda: the coefficient of lambda^beta is the multiplicity of the
weight beta.  So one class serves both as the polynomial the rational route
multiplies and divides and as the character it returns.  Every operation is
exact.  The rational route's denominators are products of binomials
1 - lambda^-a, which times_binomial multiplies in by one pass each; its
numerator terms are added by plus_product, the product loop behind __mul__.
"""

from __future__ import annotations

from typing import Mapping


class NotDivisibleError(ArithmeticError):
    """Exact division failed: the quotient is not a Laurent polynomial."""


class SupportLimitError(ValueError):
    """A quotient, a product or a diagram would pass MAX_QUOTIENT_TERMS."""


# The output-support limit.  A dataset of a few bytes can ask for a character
# with any number of weights (P_{0,n} has n), or for a combine whose
# denominator doubles at each point, so time and memory are capped here: on
# the terms of an exact quotient, the term pairs of one product or binomial
# step, and the span of a diagram.  A character of this size takes 2-3 s
# (`quantize --character` on `sphere --k 0 --n 1048576`, 2-core VM).
MAX_QUOTIENT_TERMS = 1 << 20


def _check_term_pairs(pairs: int) -> None:
    # Reads the limit at call time, so a patched module value applies.
    if pairs > MAX_QUOTIENT_TERMS:
        raise SupportLimitError(
            f"a product has more than {MAX_QUOTIENT_TERMS} term pairs, "
            "the output-support limit"
        )


class LaurentPoly:
    """Immutable integer Laurent polynomial in lambda; zeros are dropped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if coefficients:
            for key, value in coefficients.items():
                if value:
                    cleaned[int(key)] = int(value)
        object.__setattr__(self, "_coeffs", cleaned)

    @classmethod
    def _adopt(cls, coeffs: dict[int, int]) -> LaurentPoly:
        # For results the class builds itself: coeffs already has only int
        # keys and nonzero int values, and nothing else holds it, so it
        # becomes the new polynomial's dict without __init__'s cleaning pass.
        poly = object.__new__(cls)
        object.__setattr__(poly, "_coeffs", coeffs)
        return poly

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def items(self) -> tuple[tuple[int, int], ...]:
        """All (exponent, coefficient) pairs, exponent ascending."""
        return tuple(sorted(self._coeffs.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def multiplicity(self, weight: int) -> int:
        """The coefficient of lambda^weight: the weight's multiplicity."""
        return self._coeffs.get(weight, 0)

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            value = out.get(k, 0) + v
            if value:
                out[k] = value
            else:
                del out[k]  # v is nonzero, so a zero sum had a key
        return LaurentPoly._adopt(out)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly().plus_product(self, other)

    def plus_product(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        """self + a * b in one pass, counting len(a) * len(b) term pairs."""
        _check_term_pairs(len(a) * len(b))
        out = dict(self._coeffs)
        for e1, c1 in a._coeffs.items():
            for e2, c2 in b._coeffs.items():
                e = e1 + e2
                value = out.get(e, 0) + c1 * c2
                if value:
                    out[e] = value
                else:
                    del out[e]  # c1 * c2 is nonzero, so a zero sum had a key
        return LaurentPoly._adopt(out)

    def times_binomial(self, a: int) -> LaurentPoly:
        """This polynomial times 1 - lambda^-a, in O(len(self)).

        Each term c*lambda^e also lands, negated, at e - a.  Like the product
        with the binomial, it counts 2*len(self) term pairs against the limit.
        It is that product in one dict copy and one pass, where __mul__
        makes two dict updates per term.  The rational fold spends most of
        its time here: with __mul__ by the binomial instead, product-ladder
        batch_s read 2.15 s against 0.71 s (medians of ten alternating pairs,
        2-core VM).
        """
        _check_term_pairs(2 * len(self))
        out = dict(self._coeffs)
        for e, c in self._coeffs.items():
            target = e - a
            value = out.get(target, 0) - c
            if value:
                out[target] = value
            else:
                del out[target]  # c is nonzero, so a zero sum had a key
        return LaurentPoly._adopt(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"


def exact_divide(numerator: LaurentPoly, denominator: LaurentPoly) -> LaurentPoly:
    """Return the quotient r with r * denominator == numerator, exactly.

    Raises NotDivisibleError when no such Laurent polynomial exists.  Division
    runs from the top exponent down; if the input is divisible every step is
    forced, so a failed step or a leftover remainder proves indivisibility.
    Raises SupportLimitError as soon as the quotient holds more than
    MAX_QUOTIENT_TERMS terms; terms are counted, not the exponent span, so a
    sparse quotient with far-apart exponents is not refused.
    """
    if not denominator:
        raise ZeroDivisionError("division by the zero polynomial")
    if not numerator:
        return LaurentPoly()
    # The loop runs on exponents relative to each input's top, small however
    # many digits the exponents have; the quotient is moved back at the end.
    num_top, den_top = numerator.max_exponent(), denominator.max_exponent()
    den_lead = denominator.multiplicity(den_top)
    # Any exact quotient has its lowest exponent pinned by the input lows.
    shift_floor = (numerator.min_exponent() - num_top) - (denominator.min_exponent() - den_top)
    den_terms = [(e - den_top, c) for e, c in denominator._coeffs.items()]
    remainder = {e - num_top: c for e, c in numerator._coeffs.items()}
    quotient: dict[int, int] = {}
    while remainder:
        shift = max(remainder)
        coeff, leftover = divmod(remainder[shift], den_lead)
        if leftover or shift < shift_floor:
            raise NotDivisibleError(
                "remainder is nonzero: quotient is not a Laurent polynomial"
            )
        quotient[shift] = coeff
        if len(quotient) > MAX_QUOTIENT_TERMS:
            raise SupportLimitError(
                f"the quotient has more than {MAX_QUOTIENT_TERMS} terms, "
                "the output-support limit"
            )
        for e, c in den_terms:
            target = e + shift
            value = remainder.get(target, 0) - coeff * c
            if value:
                remainder[target] = value
            else:
                remainder.pop(target, None)
    # Each quotient value is nonzero: a nonzero top over den_lead, exactly.
    offset = num_top - den_top
    return LaurentPoly._adopt({s + offset: c for s, c in quotient.items()})
