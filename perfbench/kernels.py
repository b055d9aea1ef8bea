"""Frozen reference kernels, one per kind of work the workloads do.

On the machine the README describes, the same Python code runs up to twice
as slow in phases of a quarter second and more, and how much slower depends
on what the code does: a small dict loop and an argparse-heavy CLI call
drift apart by 10-20% over minutes.  So each workload is divided by a
kernel that does the same kind of work as the program does there, timed
right next to each job (see worker.py), and reported at NOMINAL_S, the
kernel's time in that machine's fast phases.  The kernels never change; a faster
program shows as a smaller ratio.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass

# poly: sparse Laurent products over growing ints (product-ladder).
class _Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int]) -> None:
        self.coeffs = {int(e): int(c) for e, c in coeffs.items() if c}

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return _Poly(out)

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return _Poly(out)


_FACTORS = [_Poly({a: 1, -a: -1}) for a in (1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4)]
_NUMERATORS = [_Poly({7 * i - 30: (-1) ** i * (i + 1) ** 9}) for i in range(12)]


def poly() -> None:
    # A small rational combine: num/den pairs summed by cross-multiplying.
    num, den = _NUMERATORS[0], _FACTORS[0]
    for f, n in zip(_FACTORS[1:], _NUMERATORS[1:]):
        num, den = num * f + n * den, den * f
    sorted(num.coeffs.items())


# count: frozen-dataclass rebuilding and odd-partition recursion (deep-count).
@dataclass(frozen=True)
class _Point:
    weights: tuple[int, ...]
    det_weight: int
    sign: int


_POINTS = [_Point((-(1 + i % 3), 2 + i % 2), 60 + 2 * i, 1 - 2 * (i % 2)) for i in range(12)]


def _odd(alphas: tuple[int, ...], remaining: int) -> int:
    first = alphas[0]
    if len(alphas) == 1:
        d, rest = divmod(remaining, first)
        return 1 if remaining > 0 and rest == 0 and d % 2 == 1 else 0
    floor = sum(alphas[1:])
    total = 0
    d = 1
    while d * first + floor <= remaining:
        total += _odd(alphas[1:], remaining - d * first)
        d += 2
    return total


def count() -> None:
    for _ in range(4):
        flipped = [_Point(tuple(abs(w) for w in p.weights), p.det_weight, -p.sign) for p in _POINTS]
        sum(p.sign * _odd(p.weights, 140 - p.det_weight + 2 * p.weights[0]) for p in flipped)


# cli: argparse, JSON text and line formatting (cut-roundtrip, set-up).
_DOC = {
    "half_dimension": 2,
    "isolated": [
        {"weights": [i % 4 + 1, i % 5 + 1], "det_weight": 7 * i - 20, "sign": 1 - 2 * (i % 2)}
        for i in range(6)
    ],
    "codim2": [{"dim": 2, "normal_weight": 1, "det_weight": 3, "sign": 1, "chern_L": 2, "chern_N": 1}],
}


def cli() -> None:
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("one", "two", "three", "four", "five"):
        command = sub.add_parser(name, help=f"the {name} command")
        command.add_argument("input", help="input file")
        command.add_argument("--flag", action="store_true", help="a flag")
        command.add_argument("--number", type=int, metavar="N", help="a number")
    parser.parse_args(["three", "data.json", "--number", "4"])
    text = json.dumps(_DOC, indent=2)
    json.loads(text)
    "\n".join(f"{i}: {part}" for i, part in enumerate(text.split(",")))


FOR_WORKLOAD = {"product-ladder": poly, "deep-count": count, "cut-roundtrip": cli}
SETUP = cli
# Each kernel's time in the fast phases of the 2-core VM of the README.
NOMINAL_S = {"poly": 5.0e-4, "count": 5.0e-4, "cli": 1.1e-3}


def timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
