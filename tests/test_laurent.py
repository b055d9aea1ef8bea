from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincut import laurent
from spincut.laurent import LaurentPoly, NotDivisibleError, SupportLimitError, exact_divide


def q(exponent: int, coefficient: int = 1) -> LaurentPoly:
    return LaurentPoly({exponent: coefficient})


polys = st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6).map(
    LaurentPoly
)
nonzero_polys = polys.filter(bool)
characters = st.dictionaries(st.integers(-10, 10), st.integers(-9, 9), max_size=8).map(
    LaurentPoly
)


def test_difference_of_squares():
    assert (q(2) + q(0, -1)) * (q(2) + q(0)) == q(4) + q(0, -1)


def test_additive_inverse_cancels():
    assert (q(1) + q(-1, -1)) + (q(-1) + q(1, -1)) == LaurentPoly()


def test_no_zero_coefficients_stored():
    p = LaurentPoly({2: 1, 3: 0, -1: 0})
    assert p.items() == ((2, 1),)
    # pytest prints the repr when an equality assertion fails.
    assert repr(LaurentPoly({3: -2, -1: 5, 0: 0})) == "LaurentPoly({-1: 5, 3: -2})"
    assert repr(LaurentPoly()) == "LaurentPoly({})"


def test_immutability():
    p = q(1)
    with pytest.raises(AttributeError):
        p._coeffs = {}


def test_exact_divide_examples():
    assert exact_divide(q(3) + q(1, -1), q(1) + q(-1, -1)) == q(2)
    assert exact_divide(q(4) + q(0, -1), q(2) + q(0, -1)) == q(2) + q(0)
    with pytest.raises(NotDivisibleError):
        exact_divide(q(2) + q(0), q(1) + q(0, -1))


def test_exact_divide_counts_quotient_terms_not_their_span(monkeypatch):
    # Two quotient terms 2*10^4000 apart pass a two-term limit, and the
    # quotient keeps its absolute exponents; a third term is refused.
    far = 10**4000
    den = q(far + 1) + q(far, -1)
    sparse = q(far) + q(-far, 3)
    two, three = sparse * den, (sparse + q(0)) * den
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 2)
    assert exact_divide(two, den) == sparse
    with pytest.raises(SupportLimitError, match="more than 2 terms"):
        exact_divide(three, den)


def test_exact_divide_refuses_below_the_floor_before_the_term_limit(monkeypatch):
    # (1 + x^-2) / (1 - x^-1) would need a third term at x^-2, below the
    # lowest exponent any exact quotient can have (-2 - -1 = -1): that step
    # is refused as indivisible, before the quotient reaches the limit.
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 2)
    with pytest.raises(NotDivisibleError):
        exact_divide(q(0) + q(-2), q(0) + q(-1, -1))


def test_exact_divide_zero_numerator_and_zero_denominator():
    assert exact_divide(LaurentPoly(), q(1)) == LaurentPoly()
    with pytest.raises(ZeroDivisionError):
        exact_divide(q(1), LaurentPoly())


def test_character_add_examples():
    assert LaurentPoly({1: 1}) + LaurentPoly({1: -1}) == LaurentPoly()
    assert LaurentPoly({2: 1, 3: 1}) + LaurentPoly() == LaurentPoly({2: 1, 3: 1})
    assert LaurentPoly({1: 1, 2: 1, 3: 1}) + LaurentPoly({1: -1}) == LaurentPoly(
        {2: 1, 3: 1}
    )


def test_character_accessors():
    c = LaurentPoly({3: 1, -2: 4})
    assert c.support() == (-2, 3)
    assert c.items() == ((-2, 4), (3, 1))
    assert c.multiplicity(3) == 1
    assert c.multiplicity(0) == 0
    assert not LaurentPoly()


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


@given(characters, characters)
def test_character_add_matches_pointwise_addition(a, b):
    total = a + b
    for w in set(a.support()) | set(b.support()):
        assert total.multiplicity(w) == a.multiplicity(w) + b.multiplicity(w)


def test_times_binomial_examples():
    assert q(0).times_binomial(1) == q(0) + q(-1, -1)
    # (1 + lambda^-1)(1 - lambda^-1): the middle terms cancel and are dropped.
    assert (q(0) + q(-1)).times_binomial(1) == q(0) + q(-2, -1)
    assert (q(0) + q(-1)).times_binomial(1).items() == ((-2, -1), (0, 1))
    assert LaurentPoly().times_binomial(3) == LaurentPoly()
    # A negative weight: 1 - lambda^2.
    assert q(5, 2).times_binomial(-2) == q(5, 2) + q(7, -2)


@given(polys, st.integers(-9, 9).filter(bool))
def test_times_binomial_is_the_product_with_the_binomial(p, a):
    assert p.times_binomial(a) == p * (q(0) + q(-a, -1))


def test_times_binomial_counts_term_pairs_at_call_time(monkeypatch):
    # Two term pairs per term, like the product with the binomial.
    p = LaurentPoly({e: 1 for e in range(3)})
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 6)
    assert p.times_binomial(1) == q(2) + q(-1, -1)
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 5)
    message = "a product has more than 5 term pairs, the output-support limit"
    with pytest.raises(SupportLimitError, match=message):
        p.times_binomial(1)
    with pytest.raises(SupportLimitError, match=message):
        p * (q(0) + q(-1, -1))


@given(polys, polys, st.integers(-9, 9))
def test_results_store_only_nonzero_int_coefficients(a, b, k):
    # Each result is stored exactly as LaurentPoly.__init__ would store it:
    # exact int keys and values, no zero coefficient.
    results = [a + b, a * q(0, -1) + a, a * b, a.times_binomial(k), b.plus_product(a, b)]
    if b:
        results.append(exact_divide(a * b, b))
    for result in results:
        stored = result._coeffs
        assert all(type(e) is int and type(c) is int and c for e, c in stored.items())
        assert result == LaurentPoly(dict(result.items()))


def test_a_sum_that_cancels_stores_nothing():
    total = q(1) + q(1, -1)
    assert not total
    assert len(total) == 0
    assert not (q(0) + q(-1)).times_binomial(0)


def convolution(a: LaurentPoly, b: LaurentPoly) -> dict[int, int]:
    # The product written out, so that checks of plus_product do not run
    # through the loop that __mul__ shares with it.
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


@given(polys, polys, polys)
def test_plus_product_adds_the_convolution(c, a, b):
    expected = dict(c.items())
    for e, v in convolution(a, b).items():
        expected[e] = expected.get(e, 0) + v
    assert c.plus_product(a, b) == LaurentPoly(expected)


@given(polys, st.integers(-9, 9).filter(bool))
def test_plus_product_with_a_binomial_is_times_binomial(p, k):
    assert LaurentPoly().plus_product(LaurentPoly({0: 1, -k: -1}), p) == p.times_binomial(k)


def test_plus_product_that_cancels_stores_nothing():
    # (1 + x^-1)(1 - x^-1) = 1 - x^-2: the pass deletes keys it found and a
    # key it made itself (x^-1), and nothing is left.
    total = (q(0, -1) + q(-2)).plus_product(q(0) + q(-1), q(0) + q(-1, -1))
    assert not total
    assert len(total) == 0
    assert not q(1).plus_product(q(0, -1), q(1))


def test_plus_product_leaves_its_operands_unchanged():
    c, a, b = q(0) + q(1, 2), q(0) + q(-1, -1), q(1, 3) + q(2)
    before = [c.items(), a.items(), b.items()]
    assert c.plus_product(a, b) == q(0) + q(1, 5) + q(2) + q(0, -3) + q(1, -1)
    assert [c.items(), a.items(), b.items()] == before
    assert a.plus_product(a, a) == a + a * a
    assert a.items() == before[1]


def test_plus_product_counts_the_pairs_of_its_two_factors(monkeypatch):
    # The accumulator's own terms are not term pairs.
    c = LaurentPoly({e: 1 for e in range(10, 20)})
    a, b = q(0) + q(1) + q(2), q(0) + q(-5)
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", len(a) * len(b))
    assert c.plus_product(a, b) == c + LaurentPoly(convolution(a, b))
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", len(a) * len(b) - 1)
    message = "a product has more than 5 term pairs, the output-support limit"
    with pytest.raises(SupportLimitError, match=message):
        c.plus_product(a, b)


def test_operations_with_a_non_polynomial_are_refused():
    p = q(0)
    assert (p == 1) is False
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p * 1


def test_exponent_bounds():
    c = LaurentPoly({3: 1, -2: 4})
    assert (c.min_exponent(), c.max_exponent()) == (-2, 3)
    with pytest.raises(ValueError, match="zero polynomial has no exponents"):
        LaurentPoly().min_exponent()
    with pytest.raises(ValueError, match="zero polynomial has no exponents"):
        LaurentPoly().max_exponent()
