"""Exact circle-equivariant quantization from fixed-point data.

The package computes the virtual character of a quantized circle action from
the combinatorial shadow of a manifold (isolated fixed points and
codimension-2 fixed components), cuts that data in two, and checks that
quantization is additive under cutting.  Two independent engines (partition
counting and exact rational algebra) plus a brute-force series oracle keep
each other honest.
"""

from .kostant import character_rational, multiplicity
from .sphere import sphere_data

__version__ = "0.1.0"

__all__ = ["character_rational", "multiplicity", "sphere_data"]
