"""Spans and counters recorded from outside spincut.

Tracer.install() replaces each public function named in LAYERS, in every
spincut module that binds it, with a wrapper that records a span (name,
parent span, start and end in ns) and the layer's counters; the Laurent
product is wrapped on its class.  A name the program no longer has is
skipped, so its figures read 0.  Spans are kept in memory per job and
handed back by end().
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _size(poly) -> int:
    # Term count without sorting: read the coefficient dict when the class
    # still keeps one, else fall back to the public items().
    coeffs = getattr(poly, "_coeffs", None)
    return len(coeffs) if isinstance(coeffs, dict) else len(poly.items())


def _coeff_bits(poly) -> int:
    return max((abs(c).bit_length() for _, c in poly.items()), default=0)


def _mul(counters, args, result):
    counters["laurent.mul_term_products"] += _size(args[0]) * _size(args[1])


def _divide(counters, args, result):
    numerator, denominator = args[0], args[1]
    counters["laurent.quotient_terms"] += _size(result)
    degree = denominator.max_exponent() - denominator.min_exponent()
    counters["laurent.max_denominator_degree"] = max(
        counters["laurent.max_denominator_degree"], degree
    )
    counters["laurent.max_coeff_bits"] = max(
        counters["laurent.max_coeff_bits"], _coeff_bits(numerator), _coeff_bits(denominator)
    )


def _calls(name):
    def count(counters, args, result):
        counters[name] += 1

    return count


def _partitions(counters, args, result):
    counters["kostant.partition_count_calls"] += 1
    counters["kostant.partitions_counted"] += result


def _parsed(counters, args, result):
    text = args[0]
    counters["documents.bytes"] += len(text.encode("utf-8") if isinstance(text, str) else text)


def _serialized(counters, args, result):
    counters["documents.bytes"] += len(result.encode("utf-8"))


# (span name, module, attribute, counter hook); "Class.method" wraps a method.
LAYERS = (
    ("laurent.mul", "spincut.laurent", "LaurentPoly.__mul__", _mul),
    ("laurent.combine", "spincut.laurent", "rational_combine", None),
    ("laurent.divide", "spincut.laurent", "exact_divide", _divide),
    ("laurent.to_character", "spincut.laurent", "to_character", None),
    ("kostant.character_rational", "spincut.kostant", "character_rational", None),
    ("kostant.component_term", "spincut.kostant", "component_term", None),
    ("kostant.multiplicity", "spincut.kostant", "multiplicity", _calls("kostant.multiplicity_calls")),
    ("kostant.partition_count", "spincut.kostant", "partition_count", _partitions),
    ("fixed_points.validate", "spincut.fixed_points", "validate", _calls("fixed_points.validate_calls")),
    ("fixed_points.polarize", "spincut.fixed_points", "polarize", None),
    ("cutting.build_cut_data", "spincut.cutting", "build_cut_data", None),
    ("cutting.check_additivity", "spincut.cutting", "check_additivity", None),
    ("documents.parse", "spincut.documents", "parse_dataset", _parsed),
    ("documents.parse", "spincut.documents", "parse_cut_spec", _parsed),
    ("documents.serialize", "spincut.documents", "serialize_dataset", _serialized),
    ("documents.serialize", "spincut.documents", "serialize_cut_spec", _serialized),
    ("cli", "spincut.cli", "main", _calls("cli.calls")),
)

TIMED = sorted({name for name, *_ in LAYERS if name != "cli"})
COUNTS = (
    "laurent.mul_term_products",
    "laurent.quotient_terms",
    "kostant.multiplicity_calls",
    "kostant.partition_count_calls",
    "kostant.partitions_counted",
    "fixed_points.validate_calls",
    "documents.bytes",
    "cli.calls",
)
MAXIMA = ("laurent.max_denominator_degree", "laurent.max_coeff_bits")


class Tracer:
    """Records spans; paused[0] is the time the caller spent outside the
    program (reference-kernel ticks), which a span leaves out by ending that
    much earlier."""

    def __init__(self, paused: list[float] | None = None) -> None:
        self.paused = paused if paused is not None else [0.0]
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, hook):
        spans, stack, paused = self.spans, self.stack, self.paused
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            paused_before = paused[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - round((paused[0] - paused_before) * 1e9)
                stack.pop()
                spans[index] = (name, parent, start, end)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == "spincut" or key.startswith("spincut."))
        ]
        for name, module_name, attr, hook in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner is not None else None
                if fn is not None:
                    setattr(owner, method, self.wrap(name, fn, hook))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def begin(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def end(self) -> tuple[dict, list]:
        """This job's layer figures and its spans, times relative to its first span."""
        spans = list(self.spans)
        figures: dict[str, float] = {f"{name}_s": 0.0 for name in TIMED}
        figures["cli.self_s"] = 0.0
        for name in COUNTS + MAXIMA:
            figures[name] = self.counters.get(name, 0)
        for index, (name, parent, start, end) in enumerate(spans):
            # A span inside a span of the same name is already counted.
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][1]
            if ancestor >= 0:
                continue
            if name == "cli":
                figures["cli.self_s"] += (end - start) / 1e9
            else:
                figures[f"{name}_s"] += (end - start) / 1e9
            if parent >= 0 and spans[parent][0] == "cli":
                figures["cli.self_s"] -= (end - start) / 1e9
        origin = spans[0][2] if spans else 0
        compact = [[name, parent, start - origin, end - origin] for name, parent, start, end in spans]
        return figures, compact
