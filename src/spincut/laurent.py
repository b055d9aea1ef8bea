"""Exact arithmetic for integer Laurent polynomials and virtual characters.

Everything downstream works in a variable q with doubled exponents: q stands
for a square root of the circle variable lambda, so the stored exponent e
represents lambda^(e/2).  Doubling keeps half-integer weights integral and
every operation exact.  A virtual character is the undoubled view: a finite
integer multiplicity for each weight.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class NotDivisibleError(ArithmeticError):
    """Exact division failed: the quotient is not a Laurent polynomial."""


class OddExponentError(ValueError):
    """A nonzero coefficient sits at an odd q-exponent (half-weight leak)."""


class LaurentPoly:
    """Integer Laurent polynomial in q, stored as a sparse exponent map.

    Instances are immutable; arithmetic returns new objects and never keeps
    zero coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Mapping[int, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if coefficients:
            for exponent, coeff in coefficients.items():
                if coeff:
                    cleaned[int(exponent)] = int(coeff)
        object.__setattr__(self, "_coeffs", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> LaurentPoly:
        return cls({exponent: coefficient})

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def items(self) -> tuple[tuple[int, int], ...]:
        """All (exponent, coefficient) pairs, exponent ascending."""
        return tuple(sorted(self._coeffs.items()))

    def min_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exponent(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"


def exact_divide(numerator: LaurentPoly, denominator: LaurentPoly) -> LaurentPoly:
    """Return the quotient r with r * denominator == numerator, exactly.

    Raises NotDivisibleError when no such Laurent polynomial exists.  Division
    runs from the top exponent down; if the input is divisible every step is
    forced, so a failed step or a leftover remainder proves indivisibility.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
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
        for e, c in denominator.items():
            target = e + shift
            value = remainder.get(target, 0) - coeff * c
            if value:
                remainder[target] = value
            else:
                remainder.pop(target, None)
    return LaurentPoly(quotient)


class VirtualCharacter:
    """Finitely supported integer multiplicity function on the weight lattice."""

    __slots__ = ("_mult",)

    def __init__(self, multiplicities: Mapping[int, int] | None = None) -> None:
        cleaned: dict[int, int] = {}
        if multiplicities:
            for weight, mult in multiplicities.items():
                if mult:
                    cleaned[int(weight)] = int(mult)
        object.__setattr__(self, "_mult", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VirtualCharacter is immutable")

    @classmethod
    def zero(cls) -> VirtualCharacter:
        return cls()

    def multiplicity(self, weight: int) -> int:
        return self._mult.get(weight, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._mult))

    def items(self) -> tuple[tuple[int, int], ...]:
        """All (weight, multiplicity) pairs, weight ascending."""
        return tuple(sorted(self._mult.items()))

    def as_laurent(self) -> LaurentPoly:
        """The doubled-exponent polynomial with this character's coefficients."""
        return LaurentPoly({2 * w: m for w, m in self._mult.items()})

    def __bool__(self) -> bool:
        return bool(self._mult)

    def __iter__(self) -> Iterator[int]:
        return iter(self.support())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self._mult == other._mult

    def __hash__(self) -> int:
        return hash(frozenset(self._mult.items()))

    def __neg__(self) -> VirtualCharacter:
        return VirtualCharacter({w: -m for w, m in self._mult.items()})

    def __add__(self, other: VirtualCharacter) -> VirtualCharacter:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        out = dict(self._mult)
        for w, m in other._mult.items():
            out[w] = out.get(w, 0) + m
        return VirtualCharacter(out)

    def __sub__(self, other: VirtualCharacter) -> VirtualCharacter:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self + (-other)

    def __repr__(self) -> str:
        return f"VirtualCharacter({dict(self.items())!r})"


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
