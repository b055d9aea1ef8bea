"""Brute-force series oracle for quantized circle characters.

A third route to the character, kept deliberately independent of both
engines in spincut.kostant: it neither counts partitions nor divides.
Every component's closed form is expanded as a truncated descending
geometric series, term by term, so it checks the counting route and the
rational route alike.  Like the counting route it expands every weight in
its positive direction, so it takes any valid data and works on its
polarization (fixed_points.polarize).  Its sums stay doubled, and
integrality is asserted only on final multiplicities.

It takes from spincut only FixedPointData, polarize and
NonIntegerMultiplicityError; tests/test_kostant.py pins that.
"""

from __future__ import annotations

from spincut.fixed_points import FixedPointData, polarize
from spincut.kostant import NonIntegerMultiplicityError


def character_series(data: FixedPointData, window: tuple[int, int]) -> dict[int, int]:
    """Brute-force oracle: truncated geometric expansion over a finite window.

    Expands every component term as a descending power series, truncated as
    soon as weights drop below the window, and returns the nonzero
    multiplicities inside [window[0], window[1]].  Takes any valid data and
    expands its polarization.  Kept deliberately independent of the rational
    route: no division happens here.
    """
    data = polarize(data)
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window {window}")
    doubled: dict[int, int] = {}
    for point in data.isolated:
        top = (point.det_weight - sum(point.weights)) // 2
        _expand_point(point.weights, 0, top, 2 * point.sign, lo, hi, doubled)
    for comp in data.codim2:
        weight = (comp.det_weight - comp.normal_weight) // 2
        k_doubled = 1
        while weight >= lo:
            if weight <= hi:
                # The paper's doubled integrand at k = k_doubled/2.
                if comp.dim == 0:
                    value = 2
                else:
                    value = (comp.chern_l - comp.chern_n) - k_doubled * comp.chern_n
                doubled[weight] = doubled.get(weight, 0) + comp.sign * value
            weight -= comp.normal_weight
            k_doubled += 2
    result: dict[int, int] = {}
    for weight in sorted(doubled):
        value = doubled[weight]
        if value % 2:
            raise NonIntegerMultiplicityError(
                f"half multiplicity at weight {weight}: doubled total {value} is odd"
            )
        if value:
            result[weight] = value // 2
    return result


def _expand_point(
    weights: tuple[int, ...],
    j: int,
    weight: int,
    value: int,
    lo: int,
    hi: int,
    doubled: dict[int, int],
) -> None:
    # Each tangent line contributes the series q^-alpha + q^-3alpha + ...;
    # in weight terms a drop of alpha*l for every l >= 0 beyond the top term.
    if j == len(weights):
        if lo <= weight <= hi:
            doubled[weight] = doubled.get(weight, 0) + value
        return
    alpha = weights[j]
    while weight >= lo:
        _expand_point(weights, j + 1, weight, value, lo, hi, doubled)
        weight -= alpha
