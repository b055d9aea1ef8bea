"""Catalogue of equivariant structures on the two-sphere.

The structure P_{k,n} rotates the sphere with two fixed poles.  Its data is
fully explicit: the north pole has determinant weight 2k+2n+1 and positive
orientation, the south pole 2k+1 and negative orientation, both with isotropy
weight 1.  Cutting along the equator splits P_{k,n} into P_{0,k+n} and
P_{k,-k}, which is the worked identity the engines are tested against.
"""

from __future__ import annotations

from .fixed_points import FixedPointData, IsolatedFixedPoint


def sphere_data(k: int, n: int) -> FixedPointData:
    """Fixed-point data of P_{k,n}: north pole first, then south."""
    north = IsolatedFixedPoint(weights=(1,), det_weight=2 * k + 2 * n + 1, sign=1)
    south = IsolatedFixedPoint(weights=(1,), det_weight=2 * k + 1, sign=-1)
    return FixedPointData(half_dimension=1, isolated=(north, south))


def closed_form_multiplicity(k: int, n: int, beta: int) -> int:
    """Multiplicity of beta in the quantization of P_{k,n}, in closed form."""
    shifted = beta - k
    if 0 < shifted <= n:
        return 1
    if n < shifted <= 0:
        return -1
    return 0


def cut_identity(k: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (k, n) parameters of both halves of the equatorial cut."""
    return (0, k + n), (k, -k)


def label(k: int, n: int) -> str:
    """Display name of the structure, e.g. P_{1,2}."""
    return f"P_{{{k},{n}}}"
