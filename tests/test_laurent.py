from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincut.laurent import (
    LaurentPoly,
    NotDivisibleError,
    OddExponentError,
    VirtualCharacter,
    exact_divide,
    to_character,
)


def q(exponent: int, coefficient: int = 1) -> LaurentPoly:
    return LaurentPoly.monomial(exponent, coefficient)


polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(
    LaurentPoly
)
nonzero_polys = polys.filter(bool)
characters = st.dictionaries(st.integers(-10, 10), st.integers(-9, 9), max_size=8).map(
    VirtualCharacter
)


def test_difference_of_squares():
    assert (q(2) - q(0)) * (q(2) + q(0)) == q(4) - q(0)


def test_additive_inverse_cancels():
    assert (q(1) - q(-1)) + (q(-1) - q(1)) == LaurentPoly.zero()


def test_subtracting_zero_is_identity():
    p = q(3) - q(1)
    assert p - LaurentPoly.zero() == p


def test_no_zero_coefficients_stored():
    p = LaurentPoly({2: 1, 3: 0, -1: 0})
    assert p.items() == ((2, 1),)


def test_immutability():
    p = q(1)
    with pytest.raises(AttributeError):
        p._coeffs = {}


def test_exact_divide_examples():
    assert exact_divide(q(3) - q(1), q(1) - q(-1)) == q(2)
    assert exact_divide(q(4) - q(0), q(2) - q(0)) == q(2) + q(0)
    with pytest.raises(NotDivisibleError):
        exact_divide(q(2) + q(0), q(1) - q(0))


def test_exact_divide_zero_numerator_and_zero_denominator():
    assert exact_divide(LaurentPoly.zero(), q(1)) == LaurentPoly.zero()
    with pytest.raises(ZeroDivisionError):
        exact_divide(q(1), LaurentPoly.zero())


def test_to_character_examples():
    assert to_character(q(2)) == VirtualCharacter({1: 1})
    assert to_character(q(-4, 3) - q(0, 2)) == VirtualCharacter({-2: 3, 0: -2})
    with pytest.raises(OddExponentError):
        to_character(q(3))


def test_character_add_examples():
    assert VirtualCharacter({1: 1}) + VirtualCharacter({1: -1}) == VirtualCharacter()
    assert VirtualCharacter({2: 1, 3: 1}) + VirtualCharacter() == VirtualCharacter(
        {2: 1, 3: 1}
    )
    assert VirtualCharacter({1: 1, 2: 1, 3: 1}) + VirtualCharacter(
        {1: -1}
    ) == VirtualCharacter({2: 1, 3: 1})


def test_polynomial_and_character_never_mix():
    # Same sparse map, different meaning: exponents are doubled weights.
    poly, char = LaurentPoly({2: 1, 4: -3}), VirtualCharacter({2: 1, 4: -3})
    assert poly.items() == char.items()
    assert poly != char and char != poly
    with pytest.raises(TypeError):
        poly + char
    with pytest.raises(TypeError):
        char - poly
    assert repr(poly) == "LaurentPoly({2: 1, 4: -3})"
    assert repr(char) == "VirtualCharacter({2: 1, 4: -3})"


def test_character_accessors():
    c = VirtualCharacter({3: 1, -2: 4})
    assert c.support() == (-2, 3)
    assert c.items() == ((-2, 4), (3, 1))
    assert c.multiplicity(3) == 1
    assert c.multiplicity(0) == 0
    assert list(c) == [-2, 3]
    assert not VirtualCharacter.zero()


@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys, polys)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys, nonzero_polys)
def test_exact_divide_inverts_multiplication(a, b):
    assert exact_divide(a * b, b) == a


@given(characters)
def test_character_laurent_round_trip(c):
    doubled = LaurentPoly({2 * w: m for w, m in c.items()})
    assert to_character(doubled) == c


@given(characters, characters)
def test_character_add_matches_pointwise_addition(a, b):
    total = a + b
    for w in set(a.support()) | set(b.support()):
        assert total.multiplicity(w) == a.multiplicity(w) + b.multiplicity(w)
