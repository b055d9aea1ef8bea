"""Fixed-point data of a circle action: value types, validation, polarization.

The data model is the engine's whole description of a manifold: the half
dimension m, a list of isolated fixed points (m isotropy weights each), and a
list of codimension-2 fixed components (points or surfaces with a single
normal weight).  Component indices used elsewhere (cut specifications,
validation reports) refer to positions in the concatenated list, isolated
entries first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache


class InvalidDataError(ValueError):
    """The operation needs data that passes validate()."""


@dataclass(frozen=True)
class IsolatedFixedPoint:
    """One isolated fixed point: isotropy weights, determinant weight, sign."""

    weights: tuple[int, ...]
    det_weight: int
    sign: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))


@dataclass(frozen=True)
class Codim2Component:
    """A fixed component of codimension 2: a point (dim 0) or surface (dim 2).

    Surfaces carry two Chern numbers: chern_l for the determinant line bundle
    restricted to the component and chern_n for the normal bundle.  Points
    carry neither.
    """

    dim: int
    normal_weight: int
    det_weight: int
    sign: int
    chern_l: int | None = None
    chern_n: int | None = None


@dataclass(frozen=True)
class FixedPointData:
    """Half dimension m together with every fixed component.

    Equality and the hash are over the three fields, as for any frozen
    dataclass, but the hash is computed once per instance: the bounded
    caches of polarize and the counting engine look a dataset up on every
    call, and a sweep of weights would otherwise hash every field each
    time.  The cached value is not pickled or copied, since hash(None), and
    so the hash of a dataset with a dim-0 codim-2 component, may differ
    between processes.
    """

    half_dimension: int
    isolated: tuple[IsolatedFixedPoint, ...] = ()
    codim2: tuple[Codim2Component, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "isolated", tuple(self.isolated))
        object.__setattr__(self, "codim2", tuple(self.codim2))

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.half_dimension, self.isolated, self.codim2))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def components(self) -> tuple[IsolatedFixedPoint | Codim2Component, ...]:
        """All components in index order: isolated first, then codim2."""
        return self.isolated + self.codim2


@dataclass(frozen=True)
class Violation:
    """One violated rule; component is an index into components(), or None."""

    component: int | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = "data" if self.component is None else f"component {self.component}"
        return f"{where}: {self.rule}: {self.message}"


def validate(data: FixedPointData) -> list[Violation]:
    """Report every violated structural rule; an empty list means valid."""
    out: list[Violation] = []
    m = data.half_dimension
    if m < 1:
        out.append(
            Violation(None, "half-dimension", f"half_dimension must be >= 1, got {m}")
        )
    for index, point in enumerate(data.isolated):
        if len(point.weights) != m:
            out.append(
                Violation(
                    index,
                    "weight-count",
                    f"expected {m} weights, got {len(point.weights)}",
                )
            )
        if any(w == 0 for w in point.weights):
            out.append(Violation(index, "zero-weight", "isotropy weights must be nonzero"))
        if (point.det_weight - sum(point.weights)) % 2:
            out.append(
                Violation(
                    index,
                    "parity",
                    "det_weight minus the weight sum must be even "
                    f"(got {point.det_weight} - {sum(point.weights)})",
                )
            )
        if point.sign not in (1, -1):
            out.append(Violation(index, "sign", f"sign must be +1 or -1, got {point.sign}"))
    base = len(data.isolated)
    for offset, comp in enumerate(data.codim2):
        index = base + offset
        if comp.dim not in (0, 2):
            out.append(Violation(index, "dimension", f"dim must be 0 or 2, got {comp.dim}"))
        if comp.normal_weight == 0:
            out.append(Violation(index, "zero-weight", "normal weight must be nonzero"))
        if (comp.det_weight - comp.normal_weight) % 2:
            out.append(
                Violation(
                    index,
                    "parity",
                    "det_weight minus the normal weight must be even "
                    f"(got {comp.det_weight} - {comp.normal_weight})",
                )
            )
        if comp.sign not in (1, -1):
            out.append(Violation(index, "sign", f"sign must be +1 or -1, got {comp.sign}"))
        if comp.dim == 0:
            if m != 1:
                out.append(
                    Violation(
                        index,
                        "dimension",
                        f"dim-0 components require half_dimension 1, got {m}",
                    )
                )
            if comp.chern_l is not None or comp.chern_n is not None:
                out.append(
                    Violation(index, "chern-fields", "dim-0 components carry no Chern numbers")
                )
        elif comp.dim == 2:
            if m != 2:
                out.append(
                    Violation(
                        index,
                        "dimension",
                        f"dim-2 components require half_dimension 2, got {m}",
                    )
                )
            if comp.chern_l is None or comp.chern_n is None:
                out.append(
                    Violation(
                        index, "chern-fields", "dim-2 components need chern_l and chern_n"
                    )
                )
    return out


def require_valid(data: FixedPointData) -> None:
    """Raise InvalidDataError listing every violation, if any."""
    violations = validate(data)
    if violations:
        raise InvalidDataError("; ".join(str(v) for v in violations))


def is_polarized(data: FixedPointData) -> bool:
    """True when every isotropy and normal weight is strictly positive."""
    for point in data.isolated:
        if any(w <= 0 for w in point.weights):
            return False
    return all(comp.normal_weight > 0 for comp in data.codim2)


def _polarize_point(point: IsolatedFixedPoint) -> IsolatedFixedPoint:
    flips = sum(1 for w in point.weights if w < 0)
    if not flips:
        return point
    # Each weight flip swaps the complex structure on one tangent line, which
    # toggles the orientation sign and leaves det_weight alone.
    return replace(
        point,
        weights=tuple(abs(w) for w in point.weights),
        sign=point.sign if flips % 2 == 0 else -point.sign,
    )


def _polarize_component(comp: Codim2Component) -> Codim2Component:
    if comp.normal_weight > 0:
        return comp
    flipped = replace(comp, normal_weight=-comp.normal_weight, sign=-comp.sign)
    if comp.dim == 0:
        return flipped
    # Conjugating the normal line negates its Chern number, and the Chern
    # number stored for the determinant line shifts against it; this is the
    # unique rule under which the rational character is flip-invariant.
    return replace(flipped, chern_l=comp.chern_l - 2 * comp.chern_n, chern_n=-comp.chern_n)


@lru_cache(maxsize=32)
def polarize(data: FixedPointData) -> FixedPointData:
    """Flip every negative weight positive, trading signs for orientation.

    Raises InvalidDataError on invalid data, on every call.  det_weight
    never changes.  Idempotent, validity preserving, and invisible to the
    rational character path; polarized data comes back equal to itself.

    The last 32 results are cached, keyed on the (frozen, hashable) data, so
    a sweep of weights over one dataset validates it once.  The result is
    therefore an equal dataset, possibly one computed from an earlier equal
    input; a raise is never cached.
    """
    require_valid(data)
    if is_polarized(data):
        return data
    return replace(
        data,
        isolated=tuple(_polarize_point(p) for p in data.isolated),
        codim2=tuple(_polarize_component(c) for c in data.codim2),
    )


def flip_codim2_signs(data: FixedPointData) -> FixedPointData:
    """Negate the sign of every codimension-2 component; nothing else changes.

    This is the paper's orientation convention for codimension-2 components,
    under which each of them contributes with the opposite overall sign.
    """
    return replace(data, codim2=tuple(replace(c, sign=-c.sign) for c in data.codim2))
