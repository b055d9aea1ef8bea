"""Lefschetz evaluation oracle: a claimed character checked by its values.

A character is a Laurent polynomial in the circle variable lambda, so it can
be evaluated.  Its value sum_beta mult(beta) * lambda^beta must equal the sum
of the components' closed forms at the same lambda.  Both sides are computed
exactly with Fraction, and the closed forms are written here from the
dataset's fields, without kostant or any laurent arithmetic.  No point has
|lambda| = 1, so no denominator 1 - lambda^-alpha vanishes.  The oracle checks
a claimed character; it does not decide realizability.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from spincut.cutting import build_cut_data
from spincut.fixed_points import IsolatedFixedPoint
from spincut.kostant import character_rational
from spincut.sphere import closed_form_multiplicity, sphere_data

from .generators import (
    cut_case,
    product,
    projective_space,
    projective_space_character,
    realizable_dataset,
)

# The three standard points come first; the integers after them serve as
# extra points where a proof needs more.
POINTS = (Fraction(2), Fraction(3, 2), Fraction(-5, 3)) + tuple(
    Fraction(n) for n in range(3, 51)
)


def fixed_point_value(data, lam: Fraction) -> Fraction:
    """The sum of every component's closed form at lambda = lam.

    Points that share their weights share 1 / prod_j (1 - lam^-alpha_j).
    """
    total, inverse = Fraction(0), {}
    for point in data.isolated:
        if point.weights not in inverse:
            inverse[point.weights] = 1 / math.prod(1 - lam**-a for a in point.weights)
        top = (point.det_weight - sum(point.weights)) // 2
        total += point.sign * lam**top * inverse[point.weights]
    for comp in data.codim2:
        x = lam**-comp.normal_weight
        term = comp.sign * lam ** ((comp.det_weight - comp.normal_weight) // 2) / (1 - x)
        if comp.dim == 2:
            term *= (comp.chern_l - 2 * comp.chern_n - comp.chern_l * x) / (2 * (1 - x))
        total += term
    return total


def character_value(char: dict[int, int], lam: Fraction) -> Fraction:
    return sum((mult * lam**weight for weight, mult in char.items()), Fraction(0))


def points_for_proof(data, char: dict[int, int]) -> int:
    """How many agreeing points prove that char is the fixed-point sum F.

    Every component's denominator divides L = prod_a (1 - lambda^-a)^M_a, up
    to a monomial and a constant, with M_a the most times any one component
    has the weight +-a (a surface counts its normal weight twice).  So
    (char - F) * L is a Laurent polynomial.  A component with determinant
    weight mu and absolute weight sum s, times L, has its exponents between
    (mu + s)/2 + min(L) and (mu - s)/2 + max(L), so the span of
    (char - F) * L is at most the count below minus one.  A nonzero Laurent
    polynomial has at most as many nonzero roots as its span.
    """
    tops, bottoms, most = list(char), list(char), Counter()
    for comp in data.components():
        if isinstance(comp, IsolatedFixedPoint):
            weights, factors = comp.weights, Counter(abs(a) for a in comp.weights)
        else:
            weights = (comp.normal_weight,)
            factors = Counter({abs(comp.normal_weight): 2 if comp.dim == 2 else 1})
        s = sum(abs(a) for a in weights)
        tops.append((comp.det_weight - s) // 2)
        bottoms.append((comp.det_weight + s) // 2)
        most |= factors
    degree = sum(a * m for a, m in most.items())
    return max(tops, default=0) - min(bottoms, default=0) + degree + 1


def assert_oracle_agrees(data, char: dict[int, int]) -> None:
    # A proof where it takes at most len(POINTS) points, else the three.
    needed = points_for_proof(data, char)
    for lam in POINTS[: needed if needed <= len(POINTS) else 3]:
        assert character_value(char, lam) == fixed_point_value(data, lam), lam


def convolve(first: dict[int, int], second: dict[int, int]) -> dict[int, int]:
    out = Counter()
    for (x, s), (y, t) in itertools.product(first.items(), second.items()):
        out[x + y] += s * t
    return {weight: mult for weight, mult in out.items() if mult}


def test_oracle_examples():
    # P_{0,1}: a single weight 1; L = 1 - lambda^-1, so two points prove it.
    data = sphere_data(0, 1)
    assert points_for_proof(data, {1: 1}) == 2
    assert_oracle_agrees(data, {1: 1})
    # A wrong claim fails at the first point.
    assert character_value({2: 1}, POINTS[0]) != fixed_point_value(data, POINTS[0])


def test_character_rational_passes_the_oracle_on_realizable_data():
    rng = random.Random(1)
    for _ in range(300):
        data = realizable_dataset(rng)
        assert_oracle_agrees(data, dict(character_rational(data).items()))


def test_character_rational_passes_the_oracle_on_cut_halves():
    rng = random.Random(1)
    for _ in range(40):
        data, spec = cut_case(rng)
        for part in (data, *build_cut_data(data, spec)):
            assert_oracle_agrees(part, dict(character_rational(part).items()))


def test_bott_characters_pass_the_oracle():
    for m in range(1, 5):
        for k in range(-m - 3, 3):
            for weights in (range(m + 1), range(-1, 2 * m, 2)):
                data = projective_space(list(weights), k)
                assert_oracle_agrees(data, projective_space_character(list(weights), k))
    rng = random.Random(29)
    for _ in range(12):
        a = rng.randint(1, 3)
        b = rng.randint(1, 4 - a)
        w1, w2 = rng.sample(range(-6, 7), a + 1), rng.sample(range(-6, 7), b + 1)
        k1, k2 = rng.randint(-6, 4), rng.randint(-6, 4)
        data = product(projective_space(w1, k1), projective_space(w2, k2))
        expected = convolve(
            projective_space_character(w1, k1), projective_space_character(w2, k2)
        )
        assert_oracle_agrees(data, expected)


def test_sphere_products_evaluate_to_the_product_of_their_factors():
    # The value of a product is the product of the factors' values, up to
    # m = 10 (1024 points).  Through m = 7 (128 points) character_rational's
    # answer is checked against the factors' values at every point
    # points_for_proof asks for, so agreement proves it.
    rng = random.Random(3)
    data, factors = None, []
    for m in range(1, 11):
        k, n = rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3])
        factor = sphere_data(k, n)
        data = factor if data is None else product(data, factor)
        betas = range(min(k, k + n) - 1, max(k, k + n) + 2)
        factors.append({b: closed_form_multiplicity(k, n, b) for b in betas})
        for lam in POINTS[:3]:
            expected = math.prod(character_value(f, lam) for f in factors)
            assert fixed_point_value(data, lam) == expected
        if m <= 7:
            char = dict(character_rational(data).items())
            needed = points_for_proof(data, char)
            assert needed <= len(POINTS)
            for lam in POINTS[:needed]:
                expected = math.prod(character_value(f, lam) for f in factors)
                assert character_value(char, lam) == expected, (m, lam)
