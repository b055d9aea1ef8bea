"""Exact arithmetic for integer Laurent polynomials and virtual characters.

Everything downstream works in a variable q with doubled exponents: q stands
for a square root of the circle variable lambda, so the stored exponent e
represents lambda^(e/2).  Doubling keeps half-integer weights integral and
every operation exact.  A virtual character is the undoubled view: a finite
integer multiplicity for each weight.

Both are immutable sparse maps from integers to nonzero integers, and share
one implementation of storage, equality and addition.  A polynomial and a
character are never equal and never add: they differ by the doubling.
"""

from __future__ import annotations

from typing import Iterator, Mapping, TypeVar


class NotDivisibleError(ArithmeticError):
    """Exact division failed: the quotient is not a Laurent polynomial."""


class OddExponentError(ValueError):
    """A nonzero coefficient sits at an odd q-exponent (half-weight leak)."""


class SupportLimitError(ValueError):
    """An exact quotient would hold more than MAX_QUOTIENT_TERMS terms."""


# The output-support limit.  A dataset of a few bytes can ask for a character
# with any number of weights (P_{0,n} has n), so time and memory are capped
# here; a quotient of this size takes a few seconds.
MAX_QUOTIENT_TERMS = 1 << 20


_Map = TypeVar("_Map", bound="_SparseMap")


class _SparseMap:
    """Immutable map from integers to nonzero integers; zeros are dropped."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if coefficients:
            for key, value in coefficients.items():
                if value:
                    cleaned[int(key)] = int(value)
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls: type[_Map]) -> _Map:
        return cls()

    def items(self) -> tuple[tuple[int, int], ...]:
        """All (key, value) pairs, key ascending."""
        return tuple(sorted(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self: _Map) -> _Map:
        return type(self)({k: -v for k, v in self._coeffs.items()})

    def __add__(self: _Map, other: _Map) -> _Map:
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0) + v
        return type(self)(out)

    def __sub__(self: _Map, other: _Map) -> _Map:
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class LaurentPoly(_SparseMap):
    """Integer Laurent polynomial in q, keyed by exponent."""

    __slots__ = ()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)


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
        return LaurentPoly.zero()
    den_top = denominator.max_exponent()
    den_lead = denominator.coefficient(den_top)
    # Any exact quotient has its lowest exponent pinned by the input lows.
    shift_floor = numerator.min_exponent() - denominator.min_exponent()
    remainder = dict(item for item in numerator.items())
    quotient: dict[int, int] = {}
    while remainder:
        top = max(remainder)
        shift = top - den_top
        coeff, leftover = divmod(remainder[top], den_lead)
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
        for e, c in denominator.items():
            target = e + shift
            value = remainder.get(target, 0) - coeff * c
            if value:
                remainder[target] = value
            else:
                remainder.pop(target, None)
    return LaurentPoly(quotient)


class VirtualCharacter(_SparseMap):
    """Finitely supported integer multiplicity function on the weight lattice."""

    __slots__ = ()

    def multiplicity(self, weight: int) -> int:
        return self._coeffs.get(weight, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def __iter__(self) -> Iterator[int]:
        return iter(self.support())


def to_character(poly: LaurentPoly) -> VirtualCharacter:
    """Read a doubled-exponent polynomial back as a character.

    The coefficient at q^(2*beta) becomes the multiplicity of beta.  A nonzero
    coefficient at an odd exponent means the input was not the character of a
    virtual representation and raises OddExponentError.
    """
    mult: dict[int, int] = {}
    for exponent, coeff in poly.items():
        if exponent % 2:
            raise OddExponentError(
                f"coefficient {coeff} at odd q-exponent {exponent}"
            )
        mult[exponent // 2] = coeff
    return VirtualCharacter(mult)
