"""Cutting a dataset in two and checking that quantization adds up.

A cut specification assigns every component of the input to one side and
lists the reduced components that appear on both cut spaces.  Each reduced
component becomes a codimension-2 datum with normal weight 1 and determinant
weight 1; the plus side receives it with sign -1 and the minus side with
sign +1 (the two sides see opposite complex structures on the new normal
line, which in data terms is exactly an orientation flip).  Everything else
is carried over unchanged.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .fixed_points import Codim2Component, FixedPointData, InvalidDataError, require_valid
from .kostant import character_rational
from .laurent import LaurentPoly, NotDivisibleError


class ReducedComponent(NamedTuple):
    """One component of the cut locus quotient, as both cut spaces see it.

    dim-2 components carry the two integrals that determine their data:
    chern_lred for the reduced determinant line and chern_nminus for the
    chosen normal direction; the engine derives the tensor-product Chern
    number chern_lred + chern_nminus itself.
    """

    dim: int
    chern_lred: int | None = None
    chern_nminus: int | None = None


class CutSpecification(namedtuple("CutSpecification", ("assignments", "reduced"))):
    """Side assignment per component index plus the reduced components.

    Assignments, pairs or a mapping, are stored sorted by index.  A repeated
    index is refused at construction, so a specification is a function from
    index to side; _make and _replace check it too.
    """

    __slots__ = ()

    def __new__(cls, assignments: Mapping | Iterable, reduced: Iterable = ()):
        pairs = assignments.items() if isinstance(assignments, Mapping) else assignments
        pairs = sorted(((int(k), v) for k, v in pairs), key=lambda pair: pair[0])
        for (index, _), (following, _) in zip(pairs, pairs[1:]):
            if index == following:
                raise InvalidDataError(
                    f"assignments.{index}: component {index} is assigned twice"
                )
        return super().__new__(cls, tuple(pairs), tuple(reduced))

    @classmethod
    def _make(cls, iterable: Iterable) -> CutSpecification:
        return cls(*iterable)


class AdditivityRow(NamedTuple):
    weight: int
    original: int
    plus: int
    minus: int


class AdditivityReport(NamedTuple):
    """Per-weight comparison of the original character with plus + minus."""

    holds: bool
    rows: tuple[AdditivityRow, ...]


def build_cut_data(
    data: FixedPointData, spec: CutSpecification
) -> tuple[FixedPointData, FixedPointData]:
    """Construct the fixed-point data of both cut spaces."""
    require_valid(data)
    total = len(data.components())
    sides = dict(spec.assignments)
    for index, side in spec.assignments:
        if side not in ("plus", "minus"):
            raise InvalidDataError(
                f'assignments.{index}: side must be "plus" or "minus", got {side!r}'
            )
        if not 0 <= index < total:
            raise InvalidDataError(f"assignment for unknown component {index}")
    for index in range(total):
        if index not in sides:
            raise InvalidDataError(f"component {index} has no side assignment")
    m = data.half_dimension
    for i, (d, chern_lred, chern_nminus) in enumerate(spec.reduced):
        if d not in (0, 2):
            raise InvalidDataError(f"reduced[{i}].dim: expected 0 or 2, got {d}")
        if d == 0 and (chern_lred is not None or chern_nminus is not None):
            raise InvalidDataError(f"reduced[{i}]: dim-0 components carry no Chern numbers")
        if d == 2 and (chern_lred is None or chern_nminus is None):
            raise InvalidDataError(
                f"reduced[{i}]: dim-2 components need chern_Lred and chern_Nminus"
            )
        # The reduced space is a codim-2 component of each half: dim 2m - 2.
        if m != d // 2 + 1:
            raise InvalidDataError(
                f"reduced[{i}]: dim-{d} reduced component requires half_dimension {d // 2 + 1}, "
                f"got {m}"
            )
    base = len(data.isolated)
    halves = []
    for side, sign in (("plus", -1), ("minus", 1)):
        isolated = [p for i, p in enumerate(data.isolated) if sides[i] == side]
        codim2 = [c for i, c in enumerate(data.codim2, base) if sides[i] == side]
        for reduced in spec.reduced:
            chern_l = chern_n = None
            if reduced.dim == 2:
                chern_l = reduced.chern_lred + reduced.chern_nminus
                chern_n = reduced.chern_nminus
            codim2.append(Codim2Component(reduced.dim, 1, 1, sign, chern_l, chern_n))
        halves.append(FixedPointData(m, tuple(isolated), tuple(codim2)))
    return halves[0], halves[1]


def _character_for(label: str, data: FixedPointData) -> LaurentPoly:
    try:
        return character_rational(data)
    except NotDivisibleError as exc:
        raise NotDivisibleError(f"{label} dataset is not realizable: {exc}") from exc


def check_additivity(
    data: FixedPointData, plus: FixedPointData, minus: FixedPointData
) -> AdditivityReport:
    """Compare char(data) with char(plus) + char(minus), weight by weight."""
    original = _character_for("original", data)
    plus_char = _character_for("plus", plus)
    minus_char = _character_for("minus", minus)
    combined = plus_char + minus_char
    weights = sorted(
        set(original.support()) | set(plus_char.support()) | set(minus_char.support())
    )
    chars = (original, plus_char, minus_char)
    rows = tuple(AdditivityRow(w, *(c.multiplicity(w) for c in chars)) for w in weights)
    return AdditivityReport(holds=original == combined, rows=rows)
