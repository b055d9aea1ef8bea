"""Exact circle-equivariant quantization from fixed-point data.

The package computes the virtual character of a quantized circle action from
the combinatorial shadow of a manifold (isolated fixed points and
codimension-2 fixed components), cuts that data in two, and checks that
quantization is additive under cutting.  Two independent engines (partition
counting and exact rational algebra) and the test suite's series oracle
keep each other honest.  Importing the package loads no submodule; each
name of __all__ loads its module on first use.
"""

__version__ = "0.1.0"

__all__ = ["character_rational", "multiplicity", "sphere_data"]


def __getattr__(name: str):
    # Module-level __getattr__ (PEP 562): a module is compiled only when one of
    # its names is used.  Compiling every module from source costs about 9 ms
    # of a fresh process (python -X importtime), most of a counting worker's
    # 12.6 ms set-up.
    if name in ("character_rational", "multiplicity"):
        from . import kostant as module
    elif name == "sphere_data":
        from . import sphere as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value
