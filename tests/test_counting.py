"""The counting route against an oracle that does not use it, and its caches.

odd_partition_table is a coin-change table written from the definition, so
it shares no code with spincut.kostant.  For three or more weights the
engine peels below n = m*lcm(weights) and interpolates the quasi-polynomial
from there on; both sides of that threshold are pinned here.
"""

from __future__ import annotations

import random
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincut import kostant
from spincut.fixed_points import (
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    polarize,
)
from spincut.kostant import character_rational, multiplicity, partition_count

from .generators import mixed_sign_variant, projective_space, realizable_dataset

LIMIT = 3000

# Shared factors make the period lcm(weights) smaller than the product.
WEIGHTS = (
    (1, 1, 1),
    (1, 2, 3),
    (4, 6, 9),
    (6, 10, 15),
    (2, 4, 8),
    (5, 5, 10),
    (7, 11, 13),
    (2, 3, 5, 7),
    (4, 6, 9, 12),
    (1, 1, 2, 2),
    (3, 6, 9, 12, 15),
    (1, 1, 2, 3, 5),
    (2, 2, 4, 6, 10),
)


def odd_partition_table(weights: tuple[int, ...], limit: int) -> list[int]:
    """ways[t] = number of odd d_j >= 1 with sum d_j*a_j = t, for 0 <= t <= limit.

    With d_j = 2e_j + 1 this is coin change for the coins a_j over the amount
    (t - sum a_j)/2: one pass per coin over a table of amounts.
    """
    base = sum(weights)
    amounts = [0] * (max(0, (limit - base) // 2) + 1)
    amounts[0] = 1
    for a in weights:
        for v in range(a, len(amounts)):
            amounts[v] += amounts[v - a]
    table = [0] * (limit + 1)
    for t in range(base, limit + 1, 2):
        table[t] = amounts[(t - base) // 2]
    return table


def _threshold(weights: tuple[int, ...]) -> int:
    # The smallest n = (t - sum weights)/2 that interpolates.
    return len(weights) * lcm(*weights)


def test_partition_count_matches_coin_change_table():
    rng = random.Random(41)
    tuples = list(WEIGHTS)
    for _ in range(12):  # five random weights can peel for seconds below m*lcm
        m = rng.randint(3, 4)
        factor = rng.choice((1, 2, 3))
        tuples.append(tuple(factor * rng.randint(1, 15 // factor) for _ in range(m)))
    interpolated = 0
    for weights in tuples:
        table = odd_partition_table(weights, LIMIT)
        targets = set(range(-3, 200)) | {rng.randint(0, LIMIT) for _ in range(60)}
        for t in sorted(targets):
            expected = table[t] if t >= 0 else 0
            assert partition_count(rng.sample(weights, len(weights)), -t) == expected, (
                weights,
                t,
            )
            interpolated += t >= sum(weights) + 2 * _threshold(weights)
    assert interpolated > 500


@pytest.mark.parametrize("weights", [(1, 1, 1), (4, 6, 9), (2, 3, 5, 7), (1, 1, 2, 3, 5)])
def test_threshold_peels_below_and_interpolates_from_m_times_the_period(weights):
    table = odd_partition_table(weights, 2 * _threshold(weights) + sum(weights) + 2)
    for n, interpolates in ((_threshold(weights) - 1, False), (_threshold(weights), True)):
        t = 2 * n + sum(weights)
        kostant._differences.cache_clear()
        assert partition_count(weights, -t) == table[t]
        assert kostant._differences.cache_info().misses == int(interpolates), n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 15), min_size=3, max_size=5),
    st.integers(-10, 2000),
)
def test_partition_count_matches_coin_change_table_property(weights, target):
    expected = odd_partition_table(tuple(weights), max(target, 0))[target] if target >= 0 else 0
    assert partition_count(weights, -target) == expected


def test_multiplicity_matches_coin_change_tables_far_below_the_support():
    rng = random.Random(43)
    for tuples in (
        ((4, 6, 9), (4, 6, 9), (1, 2, 3), (6, 10, 15)),
        ((1, 1, 2, 2), (2, 4, 6, 6), (4, 6, 9, 12)),
        ((1, 1, 2, 3, 3), (1, 1, 2, 3, 3), (2, 2, 4, 4, 6)),
    ):
        points = [
            IsolatedFixedPoint(w, sum(w) + 2 * rng.randint(-20, 20), rng.choice((1, -1)))
            for w in tuples
        ]
        data = FixedPointData(len(tuples[0]), tuple(points))
        tables = {w: odd_partition_table(w, LIMIT + 100) for w in tuples}
        for beta in range(-LIMIT // 2, 30, 7):
            expected = 0
            for p in points:
                t = p.det_weight - 2 * beta
                expected += p.sign * (tables[p.weights][t] if t >= 0 else 0)
            assert multiplicity(data, beta) == expected, (tuples, beta)


def test_invalid_data_raises_the_same_error_on_every_call():
    bad = FixedPointData(3, (IsolatedFixedPoint((1, 1), 2, 1),))
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidDataError) as info:
            multiplicity(bad, 0)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "expected 3 weights, got 2" in messages[0]


def test_equal_datasets_built_separately_give_equal_answers():
    def build():
        return projective_space([0, 1, 3, 4], 2)

    first, second = build(), build()
    assert first == second and first is not second
    answers = [multiplicity(first, beta) for beta in range(-30, 30)]
    kostant._counting_plan.cache_clear()
    assert [multiplicity(second, beta) for beta in range(-30, 30)] == answers
    assert [multiplicity(first, beta) for beta in range(-30, 30)] == answers
    assert answers == [character_rational(first).multiplicity(beta) for beta in range(-30, 30)]


def test_mixed_sign_variant_gives_its_polarizations_answers():
    rng = random.Random(47)
    for _ in range(30):
        data = realizable_dataset(rng)
        variant = mixed_sign_variant(rng, data)
        betas = range(-25, 25)
        assert [multiplicity(variant, b) for b in betas] == [
            multiplicity(polarize(variant), b) for b in betas
        ]
        assert [multiplicity(variant, b) for b in betas] == [
            multiplicity(data, b) for b in betas
        ]


def test_every_counting_cache_is_bounded():
    for cached in (kostant._counter, kostant._differences, kostant._counting_plan):
        assert isinstance(cached.cache_info().maxsize, int)


def test_counting_past_the_recursion_limit_raises_on_every_call():
    # The plan is cached, the count that overflows the recursion is not.
    data = FixedPointData(1500, (IsolatedFixedPoint((1,) * 1500, 1502, 1),))
    expected = "1500 weights are too many for the counting path's recursion"
    for _ in range(2):
        with pytest.raises(InvalidDataError, match=expected):
            multiplicity(data, 0)
    with pytest.raises(InvalidDataError, match=expected):
        partition_count((1,) * 1500, -1502)
