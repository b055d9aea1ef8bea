from __future__ import annotations

import ast
import itertools
import math
import random
from collections import Counter
from pathlib import Path

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
    component_term,
    multiplicity,
)
from spincut.laurent import LaurentPoly, NotDivisibleError
from spincut.sphere import sphere_data

from .generators import (
    closed_form,
    count,
    mixed_sign_variant,
    product,
    projective_space,
    projective_space_character,
    random_polarized_dataset,
    realizable_dataset,
)
from .series import character_series


def test_count_examples():
    assert count((1, 1), 2) == 3
    assert count((1, 2), 1) == 1
    assert count((1,), -1) == 0


def _odd_partitions_naive(alphas, remaining):
    if remaining <= 0:
        return 0
    ranges = [range(1, remaining // a + 1, 2) for a in alphas]
    return sum(
        1
        for combo in itertools.product(*ranges)
        if sum(d * a for d, a in zip(combo, alphas)) == remaining
    )


@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(-8, 15),
)
def test_count_matches_naive_enumeration(alphas, n):
    assert count(alphas, n) == _odd_partitions_naive(alphas, 2 * n + sum(alphas))


def _odd_partitions_enumerated(alphas, remaining):
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
        total += _odd_partitions_enumerated(alphas[1:], remaining - d * first)
        d += 2
    return total


def test_count_matches_enumeration():
    rng = random.Random(29)
    cases = []
    for m in range(1, 5):
        tuples = list(itertools.combinations_with_replacement(range(1, 10), m))
        if m == 4:
            tuples = rng.sample(tuples, 120)
        for weights in tuples:
            weights = rng.sample(weights, m)  # any order, equal weights included
            depths = {-4, -1, 0, 1, max(weights), rng.randint(-30, 70)}
            cases.extend((tuple(weights), n) for n in depths)
    for _ in range(2000):
        m = rng.randint(1, 4)
        weights = tuple(rng.randint(1, 9) for _ in range(m))
        cases.append((weights, rng.randint(-30, 70)))
    assert any(math.gcd(*w) > 1 for w, _ in cases if len(w) == 2)
    for weights, n in cases:
        expected = _odd_partitions_enumerated(weights, 2 * n + sum(weights))
        assert count(weights, n) == expected, (weights, n)


def test_count_at_huge_depths():
    big = 10**8
    # m = 1: a multiple of the weight, or not.
    assert count((3,), 3 * big) == 1
    assert count((3,), 3 * big + 1) == 0
    # e_1 + e_2 = big: e_1 = 0, 1, ..., big.
    assert count((1, 1), big) == big + 1
    # 6*e_1 + 2*e_2 = big - 4: e_2 = (big - 4)/2 - 3*e_1, e_1 <= 16666666.
    assert count((6, 2), big - 4) == 16666667
    # 2*e_1 + 4*e_2 is even, and big - 1 is odd.
    assert count((2, 4), big - 1) == 0
    # 5*e_1 + 3*e_2 = 15*t: e_1 = 3*j, e_2 = 5*(t - j) for j = 0..t.
    t = big // 30
    assert count((5, 3), 15 * t) == t + 1


def test_multiplicity_isolated_examples():
    assert multiplicity(sphere_data(0, 2), 1) == 1
    assert multiplicity(sphere_data(0, 2), 0) == 0
    assert multiplicity(sphere_data(2, -3), 1) == -1


def _surface(normal_weight, det_weight, sign, chern_l, chern_n):
    comp = Codim2Component(2, normal_weight, det_weight, sign, chern_l, chern_n)
    return FixedPointData(half_dimension=2, codim2=(comp,))


# (dataset, its polarized (alpha, top, sign, chern_l, chern_n)), the surface
# written out by hand, with top = (mu - alpha)/2.
_SURFACES = [
    # flat: chern_l/2 - (j + 1)*0 = 1 at every step.
    (_surface(1, 1, 1, 2, 0), (1, 0, 1, 2, 0)),
    # steep: 0 - (j + 1)*2, so -4 at j = 1.
    (_surface(1, 1, 1, 0, 2), (1, 0, 1, 0, 2)),
    (_surface(2, 6, -1, 4, 1), (2, 2, -1, 4, 1)),
    (_surface(3, -5, 1, -6, 3), (3, -4, 1, -6, 3)),
    (_surface(5, 9, -1, 10, -2), (5, 2, -1, 10, -2)),
    # alpha = -3 polarizes to 3 with the sign negated, chern_n negated and
    # chern_l shifted by -2*chern_n: 4 - 2*5 = -6; top (7 - 3)/2 = 2.
    (_surface(-3, 7, 1, 4, 5), (3, 2, -1, -6, -5)),
    (_surface(-2, 0, -1, 8, -1), (2, -1, 1, 10, 1)),
]


@pytest.mark.parametrize("data, polarized", _SURFACES)
def test_surface_contributes_half_chern_l_minus_steps_times_chern_n(data, polarized):
    # At beta = top - j*alpha, j >= 0, a surface contributes
    # sign*(chern_l/2 - (j + 1)*chern_n), and 0 at every other weight; the
    # counting route and the series oracle must both say so.
    alpha, top, sign, chern_l, chern_n = polarized
    lo, hi = top - 6 * alpha - 2, top + 3
    expected = {}
    for beta in range(lo, hi + 1):
        j, leftover = divmod(top - beta, alpha)
        value = sign * (chern_l // 2 - (j + 1) * chern_n) if j >= 0 and not leftover else 0
        assert multiplicity(data, beta) == value, beta
        if value:
            expected[beta] = value
    assert character_series(data, (lo, hi)) == expected


@pytest.mark.parametrize(
    "data, polarized",
    [(_surface(1, 1, 1, 3, 1), (1, 0, 1, 3, 1)), (_surface(-2, 4, -1, 5, 2), (2, 1, 1, 1, -2))],
)
def test_surface_with_odd_chern_l_leaves_the_same_half_in_both_routes(data, polarized):
    # The doubled integrand sign*(chern_l - 2*(j + 1)*chern_n) is odd at
    # every step, and both routes report it.
    alpha, top, sign, chern_l, chern_n = polarized
    for j in (0, 3):
        beta = top - j * alpha
        doubled = sign * (chern_l - 2 * (j + 1) * chern_n)
        message = f"half multiplicity at weight {beta}: doubled total {doubled} is odd"
        with pytest.raises(NonIntegerMultiplicityError, match=f"^{message}$"):
            multiplicity(data, beta)
        with pytest.raises(NonIntegerMultiplicityError, match=f"^{message}$"):
            character_series(data, (beta, beta))


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
    # Through every route: counting, the series oracle and the closed forms.
    rng = random.Random(5)
    for _ in range(60):
        a = rng.choice([-1, 1]) * rng.randint(1, 4)
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
        assert character_series(as_comp, (-12, 12)) == character_series(as_point, (-12, 12))
        n1, d1 = closed_form(as_comp.codim2[0])
        n2, d2 = closed_form(as_point.isolated[0])
        assert n1 * d2 == n2 * d1


def test_component_term_lambda_forms():
    # Twice each closed form in the circle variable lambda, factored as
    # (numerator, binomial weights) and multiplied out, unreduced.
    point = IsolatedFixedPoint((1,), 1, 1)
    assert component_term(point) == ({0: 2}, (1,))
    assert closed_form(point) == (LaurentPoly({0: 2}), LaurentPoly({0: 1, -1: -1}))
    # (3 - (1 - 2)) / 2 = 2; (1 - lambda^-1)(1 - lambda^2)
    point = IsolatedFixedPoint((1, -2), 3, -1)
    assert component_term(point) == ({2: -2}, (1, -2))
    assert closed_form(point) == (
        LaurentPoly({2: -2}),
        LaurentPoly({1: 1, 0: 1, -1: -1, 2: -1}),
    )
    comp = Codim2Component(dim=0, normal_weight=2, det_weight=4, sign=-1)
    assert component_term(comp) == ({1: -2}, (2,))
    assert closed_form(comp) == (LaurentPoly({1: -2}), LaurentPoly({0: 1, -2: -1}))
    # lambda * ((5 - 2) - 5 lambda^-1) / (1 - lambda^-1)^2
    comp = Codim2Component(2, 1, 3, 1, chern_l=5, chern_n=1)
    assert component_term(comp) == ({1: 3, 0: -5}, (1, 1))
    assert closed_form(comp) == (
        LaurentPoly({1: 3, 0: -5}),
        LaurentPoly({0: 1, -1: -2, -2: 1}),
    )
    # chern_l = 2*chern_n: the numerator keeps only its nonzero term.
    comp = Codim2Component(2, 1, 3, 1, chern_l=2, chern_n=1)
    assert component_term(comp) == ({0: -2}, (1, 1))


def test_character_rational_examples():
    assert character_rational(sphere_data(0, 1)) == LaurentPoly({1: 1})
    assert character_rational(sphere_data(0, 0)) == LaurentPoly()
    assert character_rational(FixedPointData(half_dimension=1)) == LaurentPoly()


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


def test_series_oracle_imports_no_engine():
    # The oracle checks both engines, so it takes from spincut only the
    # dataset type, polarize and the half-multiplicity error, and nothing
    # from the test helpers, which call the engines.
    tree = ast.parse((Path(__file__).parent / "series.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Import)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {(node.level, node.module, alias.name) for alias in node.names}
    assert imported == {
        (0, "spincut.fixed_points", "FixedPointData"),
        (0, "spincut.fixed_points", "polarize"),
        (0, "spincut.kostant", "NonIntegerMultiplicityError"),
    }


def test_geometric_simplification_identity():
    # (q^-a - q^a) / ((1 - q^2a)(1 - q^-2a)) equals 1 / (q^a - q^-a)
    for a in range(1, 9):
        n1 = LaurentPoly({-a: 1, a: -1})
        d1 = LaurentPoly({0: 1, 2 * a: -1}) * LaurentPoly({0: 1, -2 * a: -1})
        n2 = LaurentPoly({0: 1})
        d2 = LaurentPoly({a: 1, -a: -1})
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
    # An odd chern_l makes a lone surface contribute genuine halves.  The
    # mirrored pair's doubled character is the polynomial -lambda, so only
    # the final halving refuses it.
    lone = (Codim2Component(2, 1, 1, 1, chern_l=1, chern_n=0),)
    pair = (Codim2Component(2, 1, 3, 1, 1, 1), Codim2Component(2, 1, 1, -1, -1, 1))
    for codim2, beta, window in ((lone, 0, (0, 5)), (pair, 1, (-5, 5))):
        data = FixedPointData(half_dimension=2, codim2=codim2)
        message = f"half multiplicity at weight {beta}:"
        with pytest.raises(NonIntegerMultiplicityError, match=message):
            multiplicity(data, beta)
        with pytest.raises(NonIntegerMultiplicityError, match=message):
            character_series(data, window)
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
    assert character_rational(data) == LaurentPoly({1: 1, 2: 1})
    assert character_rational(flipped) == LaurentPoly({1: -1, 2: -1})
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
