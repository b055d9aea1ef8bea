from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    IsolatedFixedPoint,
    flip_codim2_signs,
    polarize,
)
from spincut.kostant import (
    NonIntegerMultiplicityError,
    character_rational,
    character_series,
    component_term,
    multiplicity,
    partition_count,
    pbar,
)
from spincut.laurent import LaurentPoly, NotDivisibleError, VirtualCharacter
from spincut.sphere import sphere_data

from .generators import (
    mixed_sign_variant,
    product,
    projective_space,
    projective_space_character,
    random_polarized_dataset,
    realizable_dataset,
)


def test_partition_count_examples():
    assert partition_count((1, 1), -6) == 3
    assert partition_count((1, 2), -5) == 1
    assert partition_count((1,), 1) == 0


def test_partition_count_rejects_bad_weights():
    with pytest.raises(ValueError):
        partition_count((), -4)
    with pytest.raises(ValueError):
        partition_count((1, -2), -4)


def _partition_count_naive(alphas, target_doubled):
    total = -target_doubled
    if total <= 0:
        return 0
    ranges = [range(1, total // a + 1, 2) for a in alphas]
    return sum(
        1
        for combo in itertools.product(*ranges)
        if sum(d * a for d, a in zip(combo, alphas)) == total
    )


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(-30, 5),
)
def test_partition_count_matches_naive_enumeration(alphas, target_doubled):
    assert partition_count(alphas, target_doubled) == _partition_count_naive(
        alphas, target_doubled
    )


def _count_odd_enumerated(alphas, remaining):
    # Reference: nested enumeration, one level per weight; d_1 runs over the
    # odd values that leave room for every later d_j >= 1.
    first = alphas[0]
    if len(alphas) == 1:
        if remaining <= 0:
            return 0
        d, leftover = divmod(remaining, first)
        return 1 if leftover == 0 and d % 2 == 1 else 0
    rest_floor = sum(alphas[1:])
    total = 0
    d = 1
    while d * first + rest_floor <= remaining:
        total += _count_odd_enumerated(alphas[1:], remaining - d * first)
        d += 2
    return total


def test_partition_count_matches_enumeration():
    rng = random.Random(29)
    cases = []
    for m in range(1, 5):
        tuples = list(itertools.combinations_with_replacement(range(1, 10), m))
        if m == 4:
            tuples = rng.sample(tuples, 120)
        for weights in tuples:
            weights = rng.sample(weights, m)  # any order, equal weights included
            floor = sum(weights)  # the smallest reachable sum
            remainings = {-7, 0, 1, floor - 2, floor - 1, floor, floor + 1}
            remainings |= {floor + 2 * max(weights), rng.randint(-60, 140)}
            cases.extend((tuple(weights), r) for r in remainings)
    for _ in range(2000):
        m = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 9) for _ in range(m))
        cases.append((weights, rng.randint(-60, 140)))
    assert any(math.gcd(*w) > 1 for w, _ in cases if len(w) == 2)
    for weights, remaining in cases:
        expected = _count_odd_enumerated(weights, remaining)
        assert partition_count(weights, -remaining) == expected, (weights, remaining)


def test_partition_count_at_huge_targets():
    big = 10**8
    # m = 1: a single odd multiple, or none.
    assert partition_count((3,), -3 * (2 * big + 1)) == 1
    assert partition_count((3,), -3 * 2 * big) == 0
    # d_1 + d_2 = 2*big + 2 with both odd: d_1 = 1, 3, ..., 2*big + 1.
    assert partition_count((1, 1), -2 * big - 2) == big + 1
    assert partition_count((1, 1), -2 * big - 1) == 0
    # 6*d_1 + 2*d_2 = 2*big: d_2 = big - 3*d_1, odd d_1 <= 33333333.
    assert partition_count((6, 2), -2 * big) == 16666667
    # 2*d_1 + 4*d_2 = 2*big + 4 leaves d_1 even.
    assert partition_count((2, 4), -2 * big - 4) == 0
    # 5*d_1 + 3*d_2 = 8 + 30*t: d_1 = 1 + 6*j, d_2 = 1 + 10*(t - j) for j = 0..t.
    t = big // 30
    assert partition_count((5, 3), -8 - 30 * t) == t + 1


def test_multiplicity_isolated_examples():
    assert multiplicity(sphere_data(0, 2), 1) == 1
    assert multiplicity(sphere_data(0, 2), 0) == 0
    assert multiplicity(sphere_data(2, -3), 1) == -1


def test_pbar_examples():
    point = Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1)
    assert pbar(point, 1) == 2
    assert pbar(point, 7) == 2
    flat = Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=2, chern_n=0)
    assert pbar(flat, 1) == 2
    steep = Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=0, chern_n=2)
    assert pbar(steep, 3) == -8


def test_pbar_rejects_bad_step_and_unpolarized_component():
    comp = Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1)
    with pytest.raises(ValueError):
        pbar(comp, 2)
    with pytest.raises(ValueError):
        pbar(comp, -1)
    with pytest.raises(ValueError):
        pbar(Codim2Component(dim=0, normal_weight=-1, det_weight=1, sign=1), 1)


def test_multiplicity_sphere_example():
    assert multiplicity(sphere_data(1, 2), 2) == 1


def test_multiplicity_dim0_component_example():
    data = FixedPointData(
        half_dimension=1,
        codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1),),
    )
    assert multiplicity(data, 0) == 1
    assert multiplicity(data, 1) == 0


def test_dim0_component_matches_isolated_point():
    rng = random.Random(5)
    for _ in range(30):
        a = rng.randint(1, 4)
        mu = rng.choice([v for v in range(-9, 10) if (v - a) % 2 == 0])
        sign = rng.choice([1, -1])
        as_comp = FixedPointData(
            half_dimension=1,
            codim2=(Codim2Component(dim=0, normal_weight=a, det_weight=mu, sign=sign),),
        )
        as_point = FixedPointData(
            half_dimension=1,
            isolated=(IsolatedFixedPoint(weights=(a,), det_weight=mu, sign=sign),),
        )
        for beta in range(-12, 13):
            assert multiplicity(as_comp, beta) == multiplicity(as_point, beta)
        n1, d1 = component_term(as_comp.codim2[0])
        n2, d2 = component_term(as_point.isolated[0])
        assert n1 * d2 == n2 * d1


def test_character_rational_examples():
    assert character_rational(sphere_data(0, 1)) == VirtualCharacter({1: 1})
    assert character_rational(sphere_data(0, 0)) == VirtualCharacter.zero()
    assert character_rational(FixedPointData(half_dimension=1)) == VirtualCharacter.zero()


def test_character_rational_rejects_unrealizable_data():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=1, sign=1),),
    )
    with pytest.raises(NotDivisibleError):
        character_rational(data)


def test_character_series_examples():
    assert character_series(sphere_data(1, 2), (-5, 5)) == {2: 1, 3: 1}
    assert character_series(sphere_data(1, -1), (-5, 5)) == {1: -1}
    assert character_series(FixedPointData(half_dimension=1), (-5, 5)) == {}


def test_character_series_requires_polarization_and_sane_window():
    with pytest.raises(ValueError):
        character_series(sphere_data(0, 1), (5, -5))


def test_geometric_simplification_identity():
    # (q^-a - q^a) / ((1 - q^2a)(1 - q^-2a)) equals 1 / (q^a - q^-a)
    for a in range(1, 9):
        n1 = LaurentPoly.monomial(-a) - LaurentPoly.monomial(a)
        d1 = (LaurentPoly.one() - LaurentPoly.monomial(2 * a)) * (
            LaurentPoly.one() - LaurentPoly.monomial(-2 * a)
        )
        n2 = LaurentPoly.one()
        d2 = LaurentPoly.monomial(a) - LaurentPoly.monomial(-a)
        assert n1 * d2 == n2 * d1


def test_counting_matches_series_oracle():
    rng = random.Random(7)
    for _ in range(30):
        data = random_polarized_dataset(rng)
        mus = [p.det_weight for p in data.isolated] + [c.det_weight for c in data.codim2]
        half = max(abs(mu) for mu in mus) // 2 + 20
        window = (-half, half)
        try:
            series = character_series(data, window)
        except NonIntegerMultiplicityError:
            # odd surface data can leak halves; counting must agree it does
            with pytest.raises(NonIntegerMultiplicityError):
                for beta in range(window[0], window[1] + 1):
                    multiplicity(data, beta)
            continue
        for beta in range(window[0], window[1] + 1):
            assert multiplicity(data, beta) == series.get(beta, 0)


def test_rational_matches_counting_on_realizable_data():
    rng = random.Random(9)
    for _ in range(30):
        data = realizable_dataset(rng)
        char = character_rational(data)
        support = char.support()
        lo = (support[0] if support else 0) - 10
        hi = (support[-1] if support else 0) + 10
        for beta in range(lo, hi + 1):
            assert multiplicity(data, beta) == char.multiplicity(beta)


def test_bott_oracle_examples():
    # CP^2, weights 0, 1, 2: O(1) is C^3; O(-1), O(-2) vanish; O(-4) is dual to O(1).
    assert projective_space_character((0, 1, 2), 1) == {0: 1, 1: 1, 2: 1}
    assert projective_space_character((0, 1, 2), -2) == {}
    assert projective_space_character((0, 1, 2), -4) == {-5: 1, -4: 1, -3: 1}
    assert projective_space_character((0, 1), -3) == {-2: -1, -1: -1}


def test_rational_matches_bott_on_projective_spaces():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randint(1, 4)
        weights = rng.sample(range(-6, 7), m + 1)
        k = rng.randint(-9, 5)
        expected = projective_space_character(weights, k)
        assert dict(character_rational(projective_space(weights, k)).items()) == expected


def test_engines_and_series_match_bott_at_m3_to_m5_with_large_weights():
    rng = random.Random(19)
    cases = [((0, 3, 10, 21), 2), ((0, 3, 10, 21, 40), 2), ((0, 1, 3, 7, 12, 20), 1)]
    for _ in range(40):
        m = rng.randint(3, 5)
        cases.append((rng.sample(range(-40, 41), m + 1), rng.randint(-m - 4, 4)))
    for weights, k in cases:
        data = projective_space(weights, k)
        expected = projective_space_character(weights, k)
        support = sorted(expected) or [0]
        lo, hi = support[0] - 2, support[-1] + 2
        assert character_series(data, (lo, hi)) == expected
        counted = {beta: multiplicity(data, beta) for beta in range(lo, hi + 1)}
        assert {beta: mult for beta, mult in counted.items() if mult} == expected
        assert dict(character_rational(data).items()) == expected


def test_engines_and_series_match_bott_on_products_of_projective_spaces():
    # CP^a x CP^b with O(k1) x O(k2): the character is the convolution of the
    # two Bott characters.
    rng = random.Random(29)
    cases = [((1, 1), (2, 1)), ((1, 2), (1, 2)), ((2, 2), (1, 1))]
    for _ in range(40):
        a = rng.randint(1, 3)
        b = rng.randint(1, 4 - a)
        cases.append(((a, b), (rng.randint(-6, 4), rng.randint(-6, 4))))
    for (a, b), (k1, k2) in cases:
        w1, w2 = rng.sample(range(-6, 7), a + 1), rng.sample(range(-6, 7), b + 1)
        data = product(projective_space(w1, k1), projective_space(w2, k2))
        first = projective_space_character(w1, k1)
        second = projective_space_character(w2, k2)
        expected = Counter()
        for (x, s), (y, t) in itertools.product(first.items(), second.items()):
            expected[x + y] += s * t
        expected = {weight: mult for weight, mult in expected.items() if mult}
        support = sorted(expected) or [0]
        lo, hi = support[0] - 2, support[-1] + 2
        assert dict(character_rational(data).items()) == expected
        assert character_series(data, (lo, hi)) == expected
        counted = {beta: multiplicity(data, beta) for beta in range(lo, hi + 1)}
        assert {beta: mult for beta, mult in counted.items() if mult} == expected


def test_rational_character_is_polarization_invariant():
    rng = random.Random(13)
    for _ in range(30):
        data = realizable_dataset(rng)
        variant = mixed_sign_variant(rng, data)
        assert character_rational(variant) == character_rational(data)
        assert character_rational(polarize(variant)) == character_rational(data)
        # The counting engine and the oracle polarize mixed-sign data themselves.
        char = character_rational(data)
        support = char.support()
        lo = (support[0] if support else 0) - 3
        hi = (support[-1] if support else 0) + 3
        for beta in range(lo, hi + 1):
            assert multiplicity(variant, beta) == multiplicity(data, beta)
        assert character_series(variant, (lo, hi)) == character_series(data, (lo, hi))


def test_character_rational_ignores_component_order():
    rng = random.Random(19)
    surfaces = 0
    for _ in range(40):
        data = realizable_dataset(rng)
        surfaces += any(c.dim == 2 for c in data.codim2)
        expected = character_rational(data)
        backward = FixedPointData(data.half_dimension, data.isolated[::-1], data.codim2[::-1])
        assert character_rational(backward) == expected
        isolated, codim2 = list(data.isolated), list(data.codim2)
        rng.shuffle(isolated)
        rng.shuffle(codim2)
        shuffled = FixedPointData(data.half_dimension, tuple(isolated), tuple(codim2))
        assert character_rational(shuffled) == expected
    assert surfaces


def test_half_multiplicity_is_flagged_everywhere():
    # an odd chern_l makes the lone surface contribute genuine halves
    data = FixedPointData(
        half_dimension=2,
        codim2=(
            Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=1, chern_n=0),
        ),
    )
    with pytest.raises(NonIntegerMultiplicityError):
        multiplicity(data, 0)
    with pytest.raises(NonIntegerMultiplicityError):
        character_series(data, (-5, 5))
    with pytest.raises(NotDivisibleError):
        character_rational(data)


def test_paper_signs_negates_pure_codim2_character():
    data = FixedPointData(
        half_dimension=1,
        codim2=(
            Codim2Component(dim=0, normal_weight=1, det_weight=5, sign=1),
            Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=-1),
        ),
    )
    flipped = flip_codim2_signs(data)
    assert character_rational(data) == VirtualCharacter({1: 1, 2: 1})
    assert character_rational(flipped) == VirtualCharacter({1: -1, 2: -1})
    for beta in range(-5, 6):
        assert multiplicity(flipped, beta) == -multiplicity(data, beta)
    assert character_series(flipped, (-5, 5)) == {1: -1, 2: -1}


def test_paper_signs_consistent_across_paths():
    rng = random.Random(17)
    for _ in range(15):
        data = realizable_dataset(rng, m=2)
        if not data.codim2:
            continue
        data = flip_codim2_signs(data)
        char = character_rational(data)
        series = character_series(data, (-30, 30))
        for beta in range(-30, 31):
            expected = series.get(beta, 0)
            assert multiplicity(data, beta) == expected
            assert char.multiplicity(beta) == expected
