"""Randomized data builders shared across the test suite.

Unconstrained random fixed-point data is almost never the data of a closed
manifold (exact division fails), so the builders assemble datasets from small
blocks that are realizable by construction:

  * difference pairs: two weight-a components with determinant weights mu and
    mu - 2na and opposite signs; their contributions telescope to a finite
    geometric sum.
  * product blocks: two m=1 difference pairs multiplied out into four m=2
    points by product (weights concatenated, determinant weights added, signs
    multiplied), which multiplies any two isolated-only datasets.
  * surface mirrors: two dim-2 components with the same normal weight and
    chern_n, opposite signs, determinant weights mu and mu - 2ca, and chern_l
    values L and L - 2cN with L even; the combined numerator is divisible by
    (1-x)^2 because it vanishes to second order at x = 1.

Complex projective spaces CP^m with a linear circle action and the spin^c
structure of O(k) come with Bott's closed form for their character, an oracle
that needs neither engine; they give realizable data at any m and with large
weights.  Products CP^a x CP^b give mixed-weight data at m = a + b, with the
convolution of the two Bott characters as their oracle.

Cut cases are assembled sideways: each side is an independently realizable
set forced to contain the component its reduced cut component induces
(normal weight 1, determinant weight 1, sign -1 on plus and +1 on minus);
the dataset under test is the union of the carried components.

Everything takes an explicit random.Random so test runs are reproducible.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from typing import Sequence

from spincut.cutting import CutSpecification, ReducedComponent
from spincut.documents import serialize_dataset
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    IsolatedFixedPoint,
    is_polarized,
)

MU_BOUND = 9
CHERN_BOUND = 3


def _matched_det(rng: random.Random, weight_sum: int, bound: int = MU_BOUND) -> int:
    """A determinant weight within the bound and of the right parity."""
    choices = [v for v in range(-bound, bound + 1) if (v - weight_sum) % 2 == 0]
    return rng.choice(choices)


def difference_pair(
    rng: random.Random, *, as_codim2: bool, mu_bound: int = MU_BOUND
) -> list:
    """Two m=1 components whose contributions sum to a finite character."""
    a = rng.randint(1, 4)
    mu1 = _matched_det(rng, a, mu_bound)
    n_max = (mu1 + mu_bound) // (2 * a)
    n = rng.randint(0, min(4, n_max))
    mu2 = mu1 - 2 * n * a
    if as_codim2:
        return [
            Codim2Component(dim=0, normal_weight=a, det_weight=mu1, sign=1),
            Codim2Component(dim=0, normal_weight=a, det_weight=mu2, sign=-1),
        ]
    return [
        IsolatedFixedPoint(weights=(a,), det_weight=mu1, sign=1),
        IsolatedFixedPoint(weights=(a,), det_weight=mu2, sign=-1),
    ]


def _pair_params(rng: random.Random, bound: int) -> tuple[int, int, int]:
    a = rng.randint(1, 4)
    mu1 = _matched_det(rng, a, bound)
    n_max = (mu1 + bound) // (2 * a)
    n = rng.randint(0, min(3, n_max))
    return a, mu1, mu1 - 2 * n * a


def product_block(rng: random.Random) -> list[IsolatedFixedPoint]:
    """Four m=2 points: the product of two m=1 difference pairs."""
    factors = []
    for bound in (4, 5):
        a, mu1, mu2 = _pair_params(rng, bound)
        pair = (IsolatedFixedPoint((a,), mu1, 1), IsolatedFixedPoint((a,), mu2, -1))
        factors.append(FixedPointData(1, pair))
    return list(product(*factors).isolated)


def product(first: FixedPointData, second: FixedPointData) -> FixedPointData:
    """The product of two isolated-only datasets: one point per pair of points,
    with weights concatenated, determinant weights added and signs multiplied.
    Its character is the convolution of the two factors' characters.
    """
    if first.codim2 or second.codim2:
        raise ValueError("product takes isolated-only data")
    points = tuple(
        IsolatedFixedPoint(p.weights + q.weights, p.det_weight + q.det_weight, p.sign * q.sign)
        for p in first.isolated
        for q in second.isolated
    )
    return FixedPointData(first.half_dimension + second.half_dimension, points)


def surface_mirror(rng: random.Random) -> list[Codim2Component]:
    """Two dim-2 components that combine to a finite character."""
    a = rng.randint(1, 4)
    chern_n = rng.randint(-CHERN_BOUND, CHERN_BOUND)
    chern_l = rng.choice([-2, 0, 2])
    mu1 = _matched_det(rng, a)
    feasible = [
        c
        for c in range(0, 4)
        if abs(chern_l - 2 * c * chern_n) <= CHERN_BOUND
        and abs(mu1 - 2 * c * a) <= MU_BOUND
    ]
    c = rng.choice(feasible)
    return [
        Codim2Component(2, a, mu1, 1, chern_l=chern_l, chern_n=chern_n),
        Codim2Component(
            2, a, mu1 - 2 * c * a, -1, chern_l=chern_l - 2 * c * chern_n, chern_n=chern_n
        ),
    ]


def realizable_dataset(rng: random.Random, m: int | None = None) -> FixedPointData:
    """A valid polarized dataset whose character is a Laurent polynomial."""
    if m is None:
        m = rng.choice([1, 2])
    isolated: list[IsolatedFixedPoint] = []
    codim2: list[Codim2Component] = []
    if m == 1:
        for _ in range(rng.randint(1, 3)):
            block = difference_pair(rng, as_codim2=rng.random() < 0.5)
            for comp in block:
                (codim2 if isinstance(comp, Codim2Component) else isolated).append(comp)
    else:
        layout = rng.choice(["P", "M", "PM", "MM", "MMM"])
        for kind in layout:
            if kind == "P":
                isolated.extend(product_block(rng))
            else:
                codim2.extend(surface_mirror(rng))
    return FixedPointData(m, tuple(isolated), tuple(codim2))


def projective_space(weights: Sequence[int], k: int) -> FixedPointData:
    """CP^m (m = len(weights) - 1) with the circle acting by distinct weights
    w_0..w_m, and the spin^c structure of O(k).

    Fixed point i has isotropy weights w_i - w_j (j != i), determinant weight
    sum_j (w_i - w_j) + 2k w_i and sign +1.
    """
    points = tuple(
        IsolatedFixedPoint(
            weights=tuple(w - v for j, v in enumerate(weights) if j != i),
            det_weight=sum(w - v for v in weights) + 2 * k * w,
            sign=1,
        )
        for i, w in enumerate(weights)
    )
    return FixedPointData(len(weights) - 1, points)


def projective_space_character(weights: Sequence[int], k: int) -> dict[int, int]:
    """Bott's formula for the character of projective_space(weights, k).

    k >= 0: the weights of Sym^k(C^{m+1}), one sum of k of the w_i (repeats
    allowed) each.  -m <= k < 0: zero.  k <= -m-1 (Serre duality): (-1)^m
    times the weights -sum(w) - (a sum of -k-m-1 of the w_i).
    """
    m = len(weights) - 1
    if -m <= k < 0:
        return {}
    if k >= 0:
        sums = (sum(c) for c in itertools.combinations_with_replacement(weights, k))
        return dict(Counter(sums))
    total = sum(weights)
    dual = itertools.combinations_with_replacement(weights, -k - m - 1)
    return {w: (-1) ** m * n for w, n in Counter(-total - sum(c) for c in dual).items()}


def _flip_point(rng: random.Random, point: IsolatedFixedPoint) -> IsolatedFixedPoint:
    mask = [rng.random() < 0.5 for _ in point.weights]
    if not any(mask):
        return point
    weights = tuple(-w if f else w for w, f in zip(point.weights, mask))
    sign = point.sign * (-1 if sum(mask) % 2 else 1)
    return IsolatedFixedPoint(weights, point.det_weight, sign)


def flip_component(comp: Codim2Component) -> Codim2Component:
    """The involution that negates a component's normal weight."""
    if comp.dim == 0:
        return Codim2Component(0, -comp.normal_weight, comp.det_weight, -comp.sign)
    return Codim2Component(
        2,
        -comp.normal_weight,
        comp.det_weight,
        -comp.sign,
        chern_l=comp.chern_l - 2 * comp.chern_n,
        chern_n=-comp.chern_n,
    )


def mixed_sign_variant(rng: random.Random, data: FixedPointData) -> FixedPointData:
    """Flip random components so the data has negative weights; same character."""
    isolated = tuple(_flip_point(rng, p) for p in data.isolated)
    codim2 = tuple(
        flip_component(c) if rng.random() < 0.5 else c for c in data.codim2
    )
    out = FixedPointData(data.half_dimension, isolated, codim2)
    if is_polarized(out):
        if isolated:
            first = isolated[0]
            forced = IsolatedFixedPoint(
                (-first.weights[0],) + first.weights[1:],
                first.det_weight,
                -first.sign,
            )
            out = FixedPointData(data.half_dimension, (forced,) + isolated[1:], codim2)
        else:
            out = FixedPointData(
                data.half_dimension,
                isolated,
                (flip_component(codim2[0]),) + codim2[1:],
            )
    return out


def random_polarized_dataset(rng: random.Random) -> FixedPointData:
    """Valid polarized data, not necessarily realizable (for counting oracles)."""
    m = rng.choice([1, 2, 3])
    isolated = []
    for _ in range(rng.randint(1 if m == 3 else 0, 6)):
        weights = tuple(rng.randint(1, 4) for _ in range(m))
        isolated.append(
            IsolatedFixedPoint(
                weights, _matched_det(rng, sum(weights)), rng.choice([1, -1])
            )
        )
    codim2 = []
    if m == 1:
        for _ in range(rng.randint(0, 6 - len(isolated))):
            a = rng.randint(1, 4)
            codim2.append(
                Codim2Component(0, a, _matched_det(rng, a), rng.choice([1, -1]))
            )
    elif m == 2:
        for _ in range(rng.randint(0, max(0, 6 - len(isolated)))):
            a = rng.randint(1, 4)
            codim2.append(
                Codim2Component(
                    2,
                    a,
                    _matched_det(rng, a),
                    rng.choice([1, -1]),
                    chern_l=rng.choice([-2, 0, 2]),
                    chern_n=rng.randint(-CHERN_BOUND, CHERN_BOUND),
                )
            )
    if not isolated and not codim2:
        weights = tuple(rng.randint(1, 4) for _ in range(m))
        isolated.append(
            IsolatedFixedPoint(weights, _matched_det(rng, sum(weights)), 1)
        )
    return FixedPointData(m, tuple(isolated), tuple(codim2))


def _anchored_side_m1(rng: random.Random, plus_side: bool) -> object:
    """The carried companion forcing one dim-0 reduced component on a side."""
    as_codim2 = rng.random() < 0.5
    if plus_side:
        mu = 2 * rng.randint(0, 4) + 1
        sign = 1
    else:
        mu = 1 - 2 * rng.randint(0, 4)
        sign = -1
    if as_codim2:
        return Codim2Component(0, 1, mu, sign)
    return IsolatedFixedPoint((1,), mu, sign)


def _anchored_side_m2(
    rng: random.Random, plus_side: bool, chern_lred: int, chern_nminus: int
) -> Codim2Component:
    """The carried companion forcing one dim-2 reduced component on a side."""
    chern_l = chern_lred + chern_nminus
    direction = 1 if plus_side else -1
    feasible = [
        c
        for c in range(0, 3)
        if abs(chern_l + direction * 2 * c * chern_nminus) <= CHERN_BOUND
    ]
    c = rng.choice(feasible)
    return Codim2Component(
        2,
        1,
        1 + direction * 2 * c,
        1 if plus_side else -1,
        chern_l=chern_l + direction * 2 * c * chern_nminus,
        chern_n=chern_nminus,
    )


def cut_case(rng: random.Random) -> tuple[FixedPointData, CutSpecification]:
    """A valid dataset plus cut spec whose three characters are all finite."""
    m = rng.choice([1, 2])
    tagged: list[tuple[str, object]] = []
    reduced: list[ReducedComponent] = []
    if m == 1:
        for _ in range(rng.randint(1, 2)):
            reduced.append(ReducedComponent(dim=0))
            tagged.append(("plus", _anchored_side_m1(rng, True)))
            tagged.append(("minus", _anchored_side_m1(rng, False)))
        budget = 6 - len(tagged)
        while budget >= 2 and rng.random() < 0.5:
            side = rng.choice(["plus", "minus"])
            for comp in difference_pair(rng, as_codim2=rng.random() < 0.5):
                tagged.append((side, comp))
            budget -= 2
    else:
        for _ in range(rng.randint(1, 2)):
            chern_nminus = rng.randint(-CHERN_BOUND, CHERN_BOUND)
            lred_choices = [
                v
                for v in range(-CHERN_BOUND, CHERN_BOUND + 1)
                if (v + chern_nminus) % 2 == 0
                and abs(v + chern_nminus) <= CHERN_BOUND
            ]
            chern_lred = rng.choice(lred_choices)
            reduced.append(
                ReducedComponent(dim=2, chern_lred=chern_lred, chern_nminus=chern_nminus)
            )
            tagged.append(("plus", _anchored_side_m2(rng, True, chern_lred, chern_nminus)))
            tagged.append(("minus", _anchored_side_m2(rng, False, chern_lred, chern_nminus)))
        if len(tagged) <= 2 and rng.random() < 0.5:
            side = rng.choice(["plus", "minus"])
            if rng.random() < 0.5:
                for comp in product_block(rng):
                    tagged.append((side, comp))
            else:
                for comp in surface_mirror(rng):
                    tagged.append((side, comp))
    rng.shuffle(tagged)
    isolated = [(side, c) for side, c in tagged if isinstance(c, IsolatedFixedPoint)]
    codim2 = [(side, c) for side, c in tagged if isinstance(c, Codim2Component)]
    assignments = {}
    for index, (side, _) in enumerate(isolated + codim2):
        assignments[index] = side
    data = FixedPointData(
        m,
        tuple(c for _, c in isolated),
        tuple(c for _, c in codim2),
    )
    rng.shuffle(reduced)
    return data, CutSpecification(assignments, tuple(reduced))


def parity_mutated_document(rng: random.Random) -> str:
    """A dataset document made to violate the determinant parity rule."""
    data = random_polarized_dataset(rng)
    doc = json.loads(serialize_dataset(data))
    if doc["isolated"] and (not doc["codim2"] or rng.random() < 0.5):
        entry = rng.choice(doc["isolated"])
    else:
        entry = rng.choice(doc["codim2"])
    entry["det_weight"] += rng.choice([1, -1])
    return json.dumps(doc)
