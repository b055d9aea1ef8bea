"""Multiplicity engines for quantized circle actions.

Two independent routes compute the same thing.  The counting route,
multiplicity, evaluates one weight at a time as a sum of signed
coin-exchange counts: one per isolated point, over its weights, and one or
two per codimension-2 component, over one or two copies of its normal weight
(a surface's integrand is linear in the expansion step, and two copies count
one more at each step).  A count costs O(1) for one or two weights (a
remainder, a closed form).  For m >= 3 weights it peels one multiple of the
largest weight at a time below the depth m*lcm(weights) and interpolates the
count's quasi-polynomial from there on from m peeled samples, so its cost
stops growing with the depth.  Each peel level charges its loop iterations
as it starts, and a count whose charges pass MAX_COUNT_STEPS, the counting
limit, raises InvalidDataError.  A counter per sorted weight tuple, m
samples per residue class and a counting plan per dataset (one counter,
top and coefficient per count) are kept in bounded functools.lru_cache
caches, and fixed_points.polarize keeps its own, so a sweep of weights over
one dataset, polarized by the caller or not, validates it once.  The
rational route assembles every component's closed form over a common
denominator, divides exactly, and reads off the whole character at once.
Each closed form's denominator is a product of binomials 1 - lambda^-a,
and the running numerator and denominator are multiplied by one binomial at
a time, so a component with m weights costs O(m * |den|).  The counting
route expands every weight in its positive direction, so it takes any valid
data and works on its polarization (fixed_points.polarize); the rational
route needs none.  The rational route loads the laurent module on first use,
so callers that only count never compile it.

Conventions.  The rational route works in the circle variable lambda of the
laurent module: a character is its Laurent polynomial, the weight beta sits
at lambda^beta, and the parity rule of fixed_points makes every exponent an
integer.  The counting route reads each component at the depth n = top -
beta below its top weight, (mu - sum alpha)/2 for an isolated point and
(mu - alpha)/2 for a codimension-2 one, so it counts nonnegative integers:
k_j = e_j + 1/2 and sum e_j*alpha_j = n (coin exchange).  Only the plan's
coefficients and the rational route's numerators stay doubled, and
integrality is asserted only on final multiplicities.  A dim-0 codimension-2
component contributes exactly like the isolated point with the same data;
the paper's opposite sign convention is fixed_points.flip_codim2_signs
applied to the data.
"""

from __future__ import annotations

from functools import lru_cache, partial
from math import comb, gcd, lcm
from typing import Callable

from .fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    polarize,
    require_valid,
)


class NonIntegerMultiplicityError(ArithmeticError):
    """Half contributions failed to cancel; the input data is inconsistent."""


# The counting limit.  Below m*lcm(weights), m >= 3 sorted weights are
# counted by peeling multiples of every weight but the two smallest, one
# loop iteration per multiple at each level, and a far query's m samples are
# peeled at up to n = (m-1)*lcm(weights) + r: a file of a hundred bytes can
# ask for 10^12 iterations.  _peel charges them as it goes, and a count that
# needs more raises InvalidDataError.  At the limit a count takes seconds.
MAX_COUNT_STEPS = 1 << 22


@lru_cache(maxsize=1024)
def _counter(alphas: tuple[int, ...]) -> Callable[[int], int]:
    # The coin-exchange count of nonnegative e_j with sum e_j*alpha_j = n, for
    # sorted positive alphas and n >= 0.
    if len(alphas) == 1:
        (a,) = alphas

        def count(n: int) -> int:
            return 1 if n % a == 0 else 0

    elif len(alphas) == 2:
        # Over a, b, n divided by their gcd, e1 is fixed modulo b, and the
        # solutions are its residue plus multiples of b while e1*a <= n
        # (Sturmfels, "On vector partition functions", 1995): none when
        # e1*a > n, since n >= 0 and e1 < b then make the floor division -1.
        g = gcd(*alphas)
        a, b = alphas[0] // g, alphas[1] // g
        inverse = pow(a, -1, b)

        def count(n: int) -> int:
            if n % g:
                return 0
            n //= g
            e1 = n * inverse % b
            return (n // a - e1) // b + 1

    else:
        # For n >= 0 the coin-exchange count is a quasi-polynomial of degree
        # m - 1 with period P = lcm(alphas) (Beck & Robins, "Computing the
        # Continuous Discretely", ch. 1): a polynomial in j on n = r + j*P,
        # given exactly by Newton's forward differences at j = 0..m-1.
        period = lcm(*alphas)
        threshold = len(alphas) * period

        def count(n: int) -> int:
            if n < threshold:
                return _peel(alphas, [0], n)
            j, r = divmod(n, period)
            return sum(d * comb(j, k) for k, d in enumerate(_differences(alphas, r)))

    return count


@lru_cache(maxsize=4096)
def _differences(alphas: tuple[int, ...], r: int) -> tuple[int, ...]:
    # Forward differences Delta^k at j = 0 of the peeled counts at n = r +
    # j*lcm(alphas), j = 0..m-1, held to the counting limit together.  A
    # refusal is not cached, so every query of the residue raises.
    period = lcm(*alphas)
    spent = [0]
    row = [_peel(alphas, spent, r + j * period) for j in range(len(alphas))]
    heads = []
    while row:
        heads.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return tuple(heads)


def _peel(alphas: tuple[int, ...], spent: list[int], n: int) -> int:
    # alphas is sorted ascending, at least three; the largest weight is peeled
    # first, so the loop runs the fewest times and ends on the pair counter.
    # Each level adds its loop iterations to spent[0] before it loops, so the
    # charges sum to the peel's steps.  The next level is a positional
    # partial under map, one frame per level: a generator or a keyword
    # argument would take two.
    rest, last = alphas[:-1], alphas[-1]
    spent[0] += n // last + 1
    if spent[0] > MAX_COUNT_STEPS:
        raise InvalidDataError(
            f"a count needs more than {MAX_COUNT_STEPS} steps, the counting limit"
        )
    count_rest = _counter(rest) if len(rest) == 2 else partial(_peel, rest, spent)
    return sum(map(count_rest, range(n, -1, -last)))


def multiplicity(data: FixedPointData, beta: int) -> int:
    """Weight multiplicity by counting, one weight at a time.

    Takes any valid data and counts its polarization at the depth
    n = top - beta below each component's top weight.  An isolated point,
    top (mu - sum alpha)/2, contributes sign times its coin-exchange count at
    n.  A codimension-2 component, top (mu - alpha)/2, contributes sign times
    half its doubled integrand at n = j*alpha with j >= 0: 2, one count of
    (alpha,), for a point component, and chern_l - 2*(j + 1)*chern_n,
    chern_l counts of (alpha,) minus 2*chern_n counts of (alpha, alpha), for
    a surface.  An odd doubled total means the halves failed to cancel and
    the data is not consistent.  Realizability is not checked: on data that
    is no closed manifold's, this still returns a count, where
    character_rational raises NotDivisibleError.

    The counting plan, one (counter, top, doubled signed coefficient) term
    per count, is built once per dataset and kept in a bounded cache keyed
    on the (frozen, hashable) data, whose hash is computed once per
    instance, so a sweep of weights validates and sorts once.  Each term
    then costs one count at its depth, as the module docstring prices it; a
    count past the counting limit, or past the peel's recursion, raises
    InvalidDataError.  Invalid data raises InvalidDataError on every call,
    since a raise is never cached.
    """
    doubled = 0
    try:
        for count, top, coefficient in _counting_plan(data):
            if top >= beta:
                doubled += coefficient * count(top - beta)
    except RecursionError:
        raise InvalidDataError(
            f"{data.half_dimension} weights are too many for the counting path's recursion"
        ) from None
    if doubled % 2:
        raise NonIntegerMultiplicityError(
            f"half multiplicity at weight {beta}: doubled total {doubled} is odd"
        )
    return doubled // 2


_Plan = tuple[tuple[Callable[[int], int], int, int], ...]


@lru_cache(maxsize=32)
def _counting_plan(data: FixedPointData) -> _Plan:
    # All polarized; polarize validates, and a raise is never cached.
    data = polarize(data)
    plan = [
        (_counter(tuple(sorted(p.weights))), (p.det_weight - sum(p.weights)) // 2, 2 * p.sign)
        for p in data.isolated
    ]
    for c in data.codim2:
        alpha, top = c.normal_weight, (c.det_weight - c.normal_weight) // 2
        if c.dim == 0:
            terms = (((alpha,), 2),)
        else:
            terms = (((alpha,), c.chern_l), ((alpha, alpha), -2 * c.chern_n))
        plan.extend((_counter(alphas), top, c.sign * k) for alphas, k in terms if k)
    return tuple(plan)


def component_term(
    comp: IsolatedFixedPoint | Codim2Component,
) -> tuple[dict[int, int], tuple[int, ...]]:
    """Twice a component's closed-form rational contribution, in lambda.

    Returned factored as (numerator, binomial weights): twice the
    contribution is numerator / prod_a (1 - lambda^-a) over the binomial
    weights a, not reduced, with the numerator as a dict of its nonzero
    terms, exponent to coefficient.  Isolated point: 2 * sign *
    lambda^((mu-sum alpha_j)/2) over the binomials of its weights alpha_j.
    Point component: 2 * sign * lambda^((mu-alpha)/2) over 1 - lambda^-alpha.
    Surface component, with x = lambda^-alpha:
    sign * lambda^((mu-alpha)/2) * ((chern_l - 2*chern_n) - chern_l*x) / (1-x)^2,
    which sums the doubled surface integrand (chern_l - chern_n) - 2k*chern_n
    times x^j over the steps k = j + 1/2 as a geometric series.
    The component must satisfy the parity rule of fixed_points.validate, which
    makes each exponent an integer.  Polarization is not required; flipped
    components produce the identical rational function.
    """
    if isinstance(comp, IsolatedFixedPoint):
        top = (comp.det_weight - sum(comp.weights)) // 2
        return {top: 2 * comp.sign}, comp.weights
    alpha = comp.normal_weight
    top = (comp.det_weight - alpha) // 2
    if comp.dim == 0:
        return {top: 2 * comp.sign}, (alpha,)
    numerator = {
        top: comp.sign * (comp.chern_l - 2 * comp.chern_n),
        top - alpha: -comp.sign * comp.chern_l,
    }
    return {e: c for e, c in numerator.items() if c}, (alpha, alpha)


def character_rational(data: FixedPointData) -> LaurentPoly:
    """Full character by exact rational algebra in lambda.

    Starting from 0/1, each component's doubled n / prod_a (1 - lambda^-a)
    is folded in by cross-multiplying, num/den + n/d = (num*d + n*den)/(den*d),
    and the final numerator is divided exactly by 2 * den, which halves the
    sum once.  The product with d is taken one binomial at a time, so a
    component with m binomial weights costs O(m * (len(num) + len(den)))
    instead of a product with the expanded d.  The quotient is the character
    itself.  The sum of fixed-point contributions of a genuine closed
    manifold is a Laurent polynomial, so exact division must succeed;
    NotDivisibleError therefore means the data is not realizable, or that
    its halves fail to cancel.  Polarization is not required.
    """
    # Imported here so that counting alone never compiles laurent: about
    # 1.2 ms of every fresh process that only counts (python -X importtime).
    from .laurent import LaurentPoly, exact_divide

    require_valid(data)
    num, den = LaurentPoly(), LaurentPoly({0: 1})
    for comp in data.components():
        n, weights = component_term(comp)
        added = LaurentPoly(n) * den
        for alpha in weights:
            num, den = num.times_binomial(alpha), den.times_binomial(alpha)
        num = num + added
    return exact_divide(num, LaurentPoly({0: 2}) * den)
