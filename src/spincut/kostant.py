"""Multiplicity engines for quantized circle actions.

Two independent routes compute the same thing.  The counting route evaluates
one weight at a time: each isolated point contributes a signed count of
positive half-integer partitions (closed form for two weights, peeled
enumeration above), and each codimension-2 component
contributes a signed surface integral when its unique expansion step lands on
the queried weight.  The rational route assembles every component's closed
form over a common denominator, divides exactly, and reads off the whole
character at once.  A truncated geometric series gives a third, deliberately
brute-force oracle.  The counting route and the oracle expand every weight in
its positive direction, so each takes any valid data and works on its
polarization (fixed_points.polarize); the rational route needs none.

Conventions.  The rational route works in the circle variable lambda of the
laurent module: a character is its Laurent polynomial, the weight beta sits
at lambda^beta, and the parity rule of fixed_points makes every exponent an
integer.  Only the counting route and the oracle carry half-integer
bookkeeping (partition targets, expansion steps k, surface integrand values)
doubled, asserting integrality only on final multiplicities.  A dim-0
codimension-2 component contributes exactly like the isolated point with the
same data; the paper's opposite sign convention is
fixed_points.flip_codim2_signs applied to the data.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    polarize,
    require_valid,
)
from .laurent import LaurentPoly, exact_divide


class NonIntegerMultiplicityError(ArithmeticError):
    """Half contributions failed to cancel; the input data is inconsistent."""


def partition_count(alphas: Sequence[int], target_doubled: int) -> int:
    """Count tuples of positive half-integers k_j with target + sum k_j*alpha_j = 0.

    The target is passed doubled.  Writing each k_j as d_j/2 with d_j an odd
    positive integer, the count is the number of solutions of
    sum d_j*alpha_j = -target_doubled: a closed form for two weights, peeled
    enumeration above (one loop per weight beyond the two smallest).  The
    loops nest by recursion, so a weight count near the interpreter's
    recursion limit raises InvalidDataError.
    """
    if not alphas:
        raise ValueError("at least one weight is required")
    if any(a <= 0 for a in alphas):
        raise ValueError("partition weights must be strictly positive")
    try:
        return _count_odd(tuple(sorted(alphas)), -target_doubled)
    except RecursionError:
        raise InvalidDataError(
            f"{len(alphas)} weights are too many for the counting path's recursion"
        ) from None


def _count_odd(alphas: tuple[int, ...], remaining: int) -> int:
    # alphas is sorted ascending; the largest weight is peeled first, so the
    # loop runs the fewest times and ends on the two-weight closed form.
    if len(alphas) == 1:
        if remaining <= 0:
            return 0
        d, leftover = divmod(remaining, alphas[0])
        return 1 if leftover == 0 and d % 2 == 1 else 0
    if len(alphas) == 2:
        return _count_odd_pair(alphas[0], alphas[1], remaining)
    rest, last = alphas[:-1], alphas[-1]
    rest_floor = sum(rest)  # every remaining d_j is at least 1
    total = 0
    remaining -= last
    while remaining >= rest_floor:
        total += _count_odd(rest, remaining)
        remaining -= 2 * last
    return total


def _count_odd_pair(a: int, b: int, remaining: int) -> int:
    # d = 2e + 1 turns the count into coin exchange: nonnegative (e1, e2)
    # with e1*a + e2*b = n.  Over a, b, n divided by their gcd, e1 is fixed
    # modulo b, and the solutions are its residue e1 plus multiples of b
    # while e1*a <= n (Sturmfels, "On vector partition functions", 1995).
    n, odd = divmod(remaining - a - b, 2)
    if n < 0 or odd:
        return 0
    g = gcd(a, b)
    if n % g:
        return 0
    a, b, n = a // g, b // g, n // g
    e1 = n * pow(a, -1, b) % b
    return (n // a - e1) // b + 1 if e1 * a <= n else 0


def pbar(comp: Codim2Component, k_doubled: int) -> int:
    """Doubled surface integrand of a codimension-2 component at expansion step k.

    For a point component the integrand is the constant 1 (doubled: 2).  For a
    surface it is (chern_l - chern_n)/2 - k*chern_n, the degree-2 part of the
    expansion of the determinant-twisted normal contribution; doubled this is
    (chern_l - chern_n) - k_doubled*chern_n, always an integer.  The
    component must be polarized: a nonpositive normal weight raises
    ValueError.
    """
    if comp.normal_weight <= 0:
        raise ValueError("component must be polarized (normal weight > 0)")
    if k_doubled <= 0 or k_doubled % 2 == 0:
        raise ValueError("k must be a positive half-integer, passed doubled (odd)")
    if comp.dim == 0:
        return 2
    return (comp.chern_l - comp.chern_n) - k_doubled * comp.chern_n


def multiplicity(data: FixedPointData, beta: int) -> int:
    """Weight multiplicity by counting, one weight at a time.

    Takes any valid data and counts its polarization.  Isolated points
    contribute signed partition counts.  A codimension-2 component
    contributes sign * pbar at k = (mu/2 - beta)/alpha when that k is a
    positive half-integer, and nothing otherwise.  All contributions are
    accumulated doubled; an odd total means the halves failed to cancel and
    the data is not consistent.  Realizability is not checked: on data that
    is no closed manifold's, this still returns a count, where
    character_rational raises NotDivisibleError.
    """
    data = polarize(data)
    doubled = 0
    for point in data.isolated:
        doubled += 2 * point.sign * partition_count(
            point.weights, 2 * beta - point.det_weight
        )
    for comp in data.codim2:
        k_doubled, leftover = divmod(comp.det_weight - 2 * beta, comp.normal_weight)
        if leftover == 0 and k_doubled > 0 and k_doubled % 2 == 1:
            doubled += comp.sign * pbar(comp, k_doubled)
    if doubled % 2:
        raise NonIntegerMultiplicityError(
            f"half multiplicity at weight {beta}: doubled total {doubled} is odd"
        )
    return doubled // 2


def component_term(
    comp: IsolatedFixedPoint | Codim2Component,
) -> tuple[LaurentPoly, LaurentPoly]:
    """Closed-form rational contribution of a single component, in lambda.

    Returned as a (numerator, denominator) pair of Laurent polynomials in the
    form written here, not reduced.  Isolated point: sign *
    lambda^((mu-sum alpha_j)/2) / prod_j (1 - lambda^-alpha_j).  Point
    component: sign * lambda^((mu-alpha)/2) / (1 - lambda^-alpha).  Surface
    component, with x = lambda^-alpha:
    sign * lambda^((mu-alpha)/2) * ((chern_l - 2*chern_n) - chern_l*x) / (2*(1-x)^2),
    which is the geometric-series closed form of the doubled pbar expansion.
    The component must satisfy the parity rule of fixed_points.validate, which
    makes each exponent an integer.  Polarization is not required; flipped
    components produce the identical rational function.
    """
    one = LaurentPoly.monomial(0)
    if isinstance(comp, IsolatedFixedPoint):
        top = (comp.det_weight - sum(comp.weights)) // 2
        denominator = one
        for alpha in comp.weights:
            denominator = denominator * (one - LaurentPoly.monomial(-alpha))
        return LaurentPoly.monomial(top, comp.sign), denominator
    alpha = comp.normal_weight
    base = LaurentPoly.monomial((comp.det_weight - alpha) // 2, comp.sign)
    one_minus_x = one - LaurentPoly.monomial(-alpha)
    if comp.dim == 0:
        return base, one_minus_x
    series = LaurentPoly({0: comp.chern_l - 2 * comp.chern_n, -alpha: -comp.chern_l})
    return base * series, (one_minus_x * one_minus_x) * LaurentPoly.monomial(0, 2)


def character_rational(data: FixedPointData) -> LaurentPoly:
    """Full character by exact rational algebra in lambda.

    Starting from 0/1, each component's (numerator, denominator) pair is
    folded in by cross-multiplying, n/d + n'/d' = (n*d' + n'*d)/(d*d'), and
    the final numerator is divided exactly by the final denominator.  The
    quotient is the character itself.  The sum of fixed-point contributions
    of a genuine closed manifold is a Laurent polynomial, so exact division
    must succeed; NotDivisibleError therefore means the data is not
    realizable.  Polarization is not required.
    """
    require_valid(data)
    num, den = LaurentPoly(), LaurentPoly.monomial(0)
    for comp in data.components():
        n, d = component_term(comp)
        num, den = num * d + n * den, den * d
    return exact_divide(num, den)


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
                value = comp.sign * pbar(comp, k_doubled)
                doubled[weight] = doubled.get(weight, 0) + value
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
