"""Fixed-point data of a circle action: value types, validation, polarization.

The data model is the engine's whole description of a manifold: the half
dimension m, a list of isolated fixed points (m isotropy weights each), and a
list of codimension-2 fixed components (points or surfaces with a single
normal weight).  Component indices used elsewhere (cut specifications,
validation reports) refer to positions in the concatenated list, isolated
entries first.

The records are named tuples and one frozen class, not dataclasses, which
cost 14 of the 48 ms of `import spincut.cli` (CPython 3.11, no .pyc files).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple


class InvalidDataError(ValueError):
    """The operation needs data that passes validate()."""


class IsolatedFixedPoint(NamedTuple):
    """One isolated fixed point: isotropy weights, determinant weight, sign."""

    weights: tuple[int, ...]
    det_weight: int
    sign: int


class Codim2Component(NamedTuple):
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


class FixedPointData:
    """Half dimension m together with every fixed component.

    Equality, hash, repr, copies and immutability over _fields, as a frozen
    dataclass; unlike a named tuple it never equals a plain tuple.  Lists
    passed in, a point's weights included, are stored as tuples.  The hash is
    computed once per instance, since the bounded caches of polarize and the
    counting engine look a dataset up on every call, and is never pickled or
    copied: hash(None), and so the hash of a dataset with a dim-0 codim-2
    component, may differ between processes.
    """

    _fields = ("half_dimension", "isolated", "codim2")
    __slots__ = (*_fields, "_hash")

    def __init__(
        self, half_dimension: int, isolated: Iterable = (), codim2: Iterable = ()
    ) -> None:
        isolated = tuple(isolated)
        if any(type(p.weights) is not tuple for p in isolated):
            isolated = tuple(p._replace(weights=tuple(p.weights)) for p in isolated)
        for name, value in zip(self._fields, (half_dimension, isolated, tuple(codim2))):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.half_dimension, self.isolated, self.codim2

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values()))
            return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def components(self) -> tuple[IsolatedFixedPoint | Codim2Component, ...]:
        """All components in index order: isolated first, then codim2."""
        return self.isolated + self.codim2


class Violation(NamedTuple):
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
    for index, (weights, det_weight, sign) in enumerate(data.isolated):
        if len(weights) != m:
            out.append(
                Violation(
                    index,
                    "weight-count",
                    f"expected {m} weights, got {len(weights)}",
                )
            )
        if any(w == 0 for w in weights):
            out.append(Violation(index, "zero-weight", "isotropy weights must be nonzero"))
        if (det_weight - sum(weights)) % 2:
            out.append(
                Violation(
                    index,
                    "parity",
                    "det_weight minus the weight sum must be even "
                    f"(got {det_weight} - {sum(weights)})",
                )
            )
        if sign not in (1, -1):
            out.append(Violation(index, "sign", f"sign must be +1 or -1, got {sign}"))
    base = len(data.isolated)
    for offset, (dim, normal_weight, det_weight, sign, chern_l, chern_n) in enumerate(data.codim2):
        index = base + offset
        if dim not in (0, 2):
            out.append(Violation(index, "dimension", f"dim must be 0 or 2, got {dim}"))
        if normal_weight == 0:
            out.append(Violation(index, "zero-weight", "normal weight must be nonzero"))
        if (det_weight - normal_weight) % 2:
            out.append(
                Violation(
                    index,
                    "parity",
                    "det_weight minus the normal weight must be even "
                    f"(got {det_weight} - {normal_weight})",
                )
            )
        if sign not in (1, -1):
            out.append(Violation(index, "sign", f"sign must be +1 or -1, got {sign}"))
        # A codim-2 component of a 2m-manifold has dim 2m - 2.
        if dim in (0, 2) and m != dim // 2 + 1:
            message = f"dim-{dim} components require half_dimension {dim // 2 + 1}, got {m}"
            out.append(Violation(index, "dimension", message))
        if dim == 0 and (chern_l is not None or chern_n is not None):
            out.append(Violation(index, "chern-fields", "dim-0 components carry no Chern numbers"))
        if dim == 2 and (chern_l is None or chern_n is None):
            message = "dim-2 components need chern_l and chern_n"
            out.append(Violation(index, "chern-fields", message))
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
    return point._replace(
        weights=tuple(abs(w) for w in point.weights),
        sign=point.sign if flips % 2 == 0 else -point.sign,
    )


def _polarize_component(comp: Codim2Component) -> Codim2Component:
    if comp.normal_weight > 0:
        return comp
    flipped = comp._replace(normal_weight=-comp.normal_weight, sign=-comp.sign)
    if comp.dim == 0:
        return flipped
    # Conjugating the normal line negates its Chern number, and the Chern
    # number stored for the determinant line shifts against it; this is the
    # unique rule under which the rational character is flip-invariant.
    return flipped._replace(chern_l=comp.chern_l - 2 * comp.chern_n, chern_n=-comp.chern_n)


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
    points = map(_polarize_point, data.isolated)
    return FixedPointData(data.half_dimension, points, map(_polarize_component, data.codim2))


def flip_codim2_signs(data: FixedPointData) -> FixedPointData:
    """Negate the sign of every codimension-2 component; nothing else changes.

    This is the paper's orientation convention for codimension-2 components,
    under which each of them contributes with the opposite overall sign.
    """
    codim2 = (c._replace(sign=-c.sign) for c in data.codim2)
    return FixedPointData(data.half_dimension, data.isolated, codim2)
