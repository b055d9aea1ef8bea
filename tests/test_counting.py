"""The counting route against an oracle that does not use it, and its caches.

odd_partition_table is a coin-change table written from the definition, so
it shares no code with spincut.kostant.  For three or more weights the
engine peels below n = m*lcm(weights) and interpolates the quasi-polynomial
from there on; both sides of that threshold are pinned here.
"""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
import time
from functools import cache
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincut import kostant
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    polarize,
)
from spincut.kostant import character_rational, multiplicity

from .generators import count, mixed_sign_variant, projective_space, realizable_dataset
from .series import character_series

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
    # The smallest depth n that interpolates; the table's index is 2n + sum.
    return len(weights) * lcm(*weights)


def test_count_matches_coin_change_table():
    rng = random.Random(41)
    tuples = list(WEIGHTS)
    for _ in range(12):  # five random weights can peel for seconds below m*lcm
        m = rng.randint(3, 4)
        factor = rng.choice((1, 2, 3))
        tuples.append(tuple(factor * rng.randint(1, 15 // factor) for _ in range(m)))
    interpolated = 0
    for weights in tuples:
        table = odd_partition_table(weights, LIMIT)
        top = (LIMIT - sum(weights)) // 2
        depths = set(range(-2, 100)) | {rng.randint(0, top) for _ in range(60)}
        for n in sorted(depths):
            expected = table[2 * n + sum(weights)] if n >= 0 else 0
            assert count(rng.sample(weights, len(weights)), n) == expected, (weights, n)
            interpolated += n >= _threshold(weights)
    assert interpolated > 500


@pytest.mark.parametrize("weights", [(1, 1, 1), (4, 6, 9), (2, 3, 5, 7), (1, 1, 2, 3, 5)])
def test_threshold_peels_below_and_interpolates_from_m_times_the_period(weights):
    table = odd_partition_table(weights, 2 * _threshold(weights) + sum(weights) + 2)
    for n, interpolates in ((_threshold(weights) - 1, False), (_threshold(weights), True)):
        t = 2 * n + sum(weights)
        kostant._differences.cache_clear()
        assert count(weights, n) == table[t]
        assert kostant._differences.cache_info().misses == int(interpolates), n


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 15), min_size=3, max_size=5),
    st.integers(-5, 1000),
)
def test_count_matches_coin_change_table_property(weights, n):
    t = 2 * n + sum(weights)
    expected = odd_partition_table(tuple(weights), t)[t] if n >= 0 else 0
    assert count(weights, n) == expected


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


def test_codim2_components_match_the_series_far_below_their_top():
    # Only the codim-2 components, so the series oracle is linear in the
    # depth: each contributes at n = top - beta = j*alpha, j up to ~10^4.
    rng = random.Random(59)
    flipped = set()
    for _ in range(40):
        variant = mixed_sign_variant(rng, realizable_dataset(rng))
        if not variant.codim2:
            continue
        data = FixedPointData(variant.half_dimension, (), variant.codim2)
        flipped |= {c.dim for c in data.codim2 if c.normal_weight < 0}
        window = (-10**4, max(abs(c.det_weight) for c in data.codim2) // 2)
        series = character_series(data, window)
        for beta in range(window[0], window[1] + 1):
            assert multiplicity(data, beta) == series.get(beta, 0), (data, beta)
    assert flipped == {0, 2}


def test_every_counting_cache_is_bounded():
    for cached in (kostant._counter, kostant._differences, kostant._counting_plan, polarize):
        assert isinstance(cached.cache_info().maxsize, int)


def test_polarize_raises_the_same_error_on_every_call():
    bad = FixedPointData(2, (IsolatedFixedPoint((1, -1), 1, 1),))
    messages = []
    for _ in range(2):
        with pytest.raises(InvalidDataError) as info:
            polarize(bad)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "det_weight minus the weight sum must be even" in messages[0]


def test_equal_datasets_built_separately_get_equal_polarizations():
    def build():
        point = IsolatedFixedPoint((2, -3, 1), 6, 1)
        return FixedPointData(3, (point, IsolatedFixedPoint((-1, -1, 4), 4, -1)))

    first, second = build(), build()
    assert first == second and first is not second
    assert polarize(first) == polarize(second)
    assert polarize(second).isolated[0] == IsolatedFixedPoint((2, 3, 1), 6, -1)
    answers = [multiplicity(first, beta) for beta in range(-40, 10)]
    polarize.cache_clear()
    kostant._counting_plan.cache_clear()
    assert [multiplicity(second, beta) for beta in range(-40, 10)] == answers
    assert polarize(second) == polarize(first)


def test_a_pickled_dataset_hashes_like_one_built_in_a_fresh_process():
    # hash(None) may differ between processes, and a dim-0 codim-2 component
    # has None Chern fields, so a hash cached before pickling would be wrong
    # in the process that loads it.
    build = (
        "FixedPointData(1, (IsolatedFixedPoint((1,), 3, 1),), "
        "(Codim2Component(0, -1, 1, 1), Codim2Component(0, 2, 4, -1)))"
    )
    data = eval(build)
    hash(data)  # as a cache lookup would, before the pickle
    child = (
        "import pickle, sys\n"
        "from spincut.fixed_points import Codim2Component, FixedPointData, IsolatedFixedPoint\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        f"built = {build}\n"
        "print(loaded == built, hash(loaded) == hash(built), loaded in {built})\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps(data),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.decode() == "True True True\n"
    assert copy.deepcopy(data) == data and hash(copy.copy(data)) == hash(data)


@cache
def _iterations(peeled, n):
    # The peel runs one iteration per multiple e_j of each weight but the two
    # smallest, largest first, while sum e_j*a_j <= n for the weights so far.
    rest, last = peeled[:-1], peeled[-1]
    return sum(1 + (_iterations(rest, n - e * last) if rest else 0) for e in range(n // last + 1))


@pytest.fixture
def counting_limit(monkeypatch):
    """Sets kostant.MAX_COUNT_STEPS; every counting cache is emptied on both sides."""

    def clear():
        for cache in (kostant._counting_plan, kostant._counter, kostant._differences):
            cache.cache_clear()

    def set_limit(steps):
        monkeypatch.setattr(kostant, "MAX_COUNT_STEPS", steps)
        clear()

    yield set_limit
    clear()


def test_a_count_past_the_counting_limit_raises_on_every_call(counting_limit):
    # (7, 11, 13): a peel at n takes n // 13 + 1 steps, and the far queries'
    # samples at r, r + 1001 and r + 2002 take about (3r + 3003) / 13.
    weights = (7, 11, 13)
    table = odd_partition_table(weights, 7000)
    counting_limit(100)
    expected = "a count needs more than 100 steps, the counting limit"
    for n in (13 * 99, 13 * 99 + 12):
        assert count(weights, n) == table[2 * n + 31]
    for n in (13 * 100, 2500, 3003):
        for _ in range(2):
            with pytest.raises(InvalidDataError, match=expected):
                count(weights, n)
    counting_limit(1000)
    for n in (1300, 2500, 3003, 3200):
        assert count(weights, n) == table[2 * n + 31]
    # (2, 3, 5, 7): at m = 4 the peel charges two levels.  The threshold is
    # 840, so the first depth whose peel passes 60 steps is a near one.
    weights = (2, 3, 5, 7)
    first = next(n for n in range(840) if _iterations(weights[2:], n) > 60)
    assert first == 55
    counting_limit(60)
    assert count(weights, first - 1) == odd_partition_table(weights, 125)[125] == 193
    for _ in range(2):
        with pytest.raises(InvalidDataError, match="a count needs more than 60 steps"):
            count(weights, first)


def test_a_cached_counter_obeys_a_lowered_limit(counting_limit, monkeypatch):
    # (1, 2, 3) at depth 17, below the threshold 18: the peel takes
    # 17 // 3 + 1 = 6 steps.  The plan and its counter, built under the
    # default limit, stay cached when the limit falls to 3, and the count is
    # still charged.  counting_limit only empties the caches afterwards.
    data = FixedPointData(3, (IsolatedFixedPoint((1, 2, 3), 6, 1),))
    assert multiplicity(data, -17) == 33
    monkeypatch.setattr(kostant, "MAX_COUNT_STEPS", 3)
    with pytest.raises(InvalidDataError, match="a count needs more than 3 steps"):
        multiplicity(data, -17)


def test_a_count_is_refused_exactly_when_its_steps_pass_the_limit(counting_limit):
    # A near count takes its peel's loop iterations; a far one the sum over
    # its residue's m samples r + j*lcm.  Limits within 3 of the steps, on
    # both sides, pin that no count within the limit is refused.
    rng = random.Random(59)
    refused = checked = 0
    for _ in range(400):
        weights = tuple(sorted(rng.randint(1, 7) for _ in range(rng.randint(3, 5))))
        period = lcm(*weights)
        n = rng.randrange(2 * _threshold(weights))
        if n < _threshold(weights):
            steps = _iterations(weights[2:], n)
        else:
            r = n % period
            steps = sum(_iterations(weights[2:], r + j * period) for j in range(len(weights)))
        if steps > 20000:
            continue
        limit = max(1, steps + rng.randint(-3, 3))
        counting_limit(limit)
        if steps > limit:
            with pytest.raises(InvalidDataError, match=f"more than {limit} steps, the counting"):
                count(weights, n)
            refused += 1
        else:
            t = 2 * n + sum(weights)
            assert count(weights, n) == odd_partition_table(weights, t)[t], (weights, n)
        checked += 1
    assert checked > 300 and refused > 100


def test_a_peel_level_takes_one_frame_of_the_recursion():
    # 900 weights of 1 peel 898 levels deep.  With one frame per level that
    # fits under the interpreter's recursion limit of 1000 with room for the
    # test runner's frames (a bare script counts up to 995 weights); with
    # two frames per level the peel passes the limit near 500 weights.
    assert count((1,) * 900, 0) == 1


def test_a_counter_of_many_large_weights_is_built_cheaply():
    # 400 odd weights near 10^18 have an lcm of about 22000 bits.  Building
    # their counter must take that lcm once and multiply out no factors of
    # its size (a product of 398 of them takes 27 s); a count at depth 0
    # then peels one step per level.
    started = time.perf_counter()
    assert count(tuple(10**18 + 2 * i + 1 for i in range(400)), 0) == 1
    assert time.perf_counter() - started < 5


def test_counting_past_the_recursion_limit_raises_on_every_call():
    # Neither a plan nor a count that overflows the recursion is cached.
    data = FixedPointData(1500, (IsolatedFixedPoint((1,) * 1500, 1502, 1),))
    expected = "1500 weights are too many for the counting path's recursion"
    for _ in range(2):
        with pytest.raises(InvalidDataError, match=expected):
            multiplicity(data, 0)
