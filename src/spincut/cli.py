"""Command line interface.

Commands:
    quantize          multiplicities of a dataset (one weight, full character, diagram)
    cut               write the two cut datasets for a dataset plus cut spec
    check-additivity  verify char(data) = char(plus) + char(minus) after cutting
    sphere            the P_{k,n} catalogue: data, cut identities, diagrams
    validate          structural validation report for a dataset file

Exit codes: 0 success, 1 malformed or invalid input (a malformed command
line included, a character past the output-support limit, and a number to
print past the interpreter's digit limit), 2 unrealizable data (exact
division failed or a half weight leaked), 3 additivity failure.
All output is deterministic.

main may be called any number of times in one process: it builds the
argparse parser on its first call and reuses it, since a parse keeps its
results in a fresh namespace and leaves the parser unchanged.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .cutting import build_cut_data, check_additivity
from .documents import (
    DocumentSyntaxError,
    SchemaError,
    parse_cut_spec,
    parse_dataset,
    serialize_dataset,
)
from .fixed_points import (
    FixedPointData,
    InvalidDataError,
    flip_codim2_signs,
    validate,
)
from .kostant import NonIntegerMultiplicityError, character_rational, multiplicity
from .laurent import LaurentPoly, NotDivisibleError, SupportLimitError
from . import laurent, sphere as sphere_catalogue


def format_character_report(char: LaurentPoly) -> str:
    """The quantize --character output: one 'weight: multiplicity' line each."""
    if not char:
        return "(zero representation)"
    return "\n".join(f"{weight}: {mult}" for weight, mult in char.items())


def render_diagram(char: LaurentPoly) -> list[str]:
    """Two rows: multiplicities with explicit signs, then integer tick labels.

    Ticks run from one below the support to one above it (around 0 for the
    zero character, whose multiplicity row is empty).  Columns share a fixed
    width, one space wider than the longest label, so every multiplicity
    lines up over its weight.  A support spanning more than
    MAX_QUOTIENT_TERMS weights raises SupportLimitError before any row is
    built.
    """
    support = char.support()
    if not support:
        ticks = [-1, 0, 1]
    elif support[-1] - support[0] + 1 > laurent.MAX_QUOTIENT_TERMS:
        raise SupportLimitError(
            f"the diagram spans more than {laurent.MAX_QUOTIENT_TERMS} weights, "
            "the output-support limit"
        )
    else:
        ticks = list(range(support[0] - 1, support[-1] + 2))
    mults = {w: format(char.multiplicity(w), "+d") for w in support}
    labels = [str(t) for t in ticks] + list(mults.values())
    width = 1 + max(len(text) for text in labels)
    mult_row = "".join(mults.get(t, "").rjust(width) for t in ticks).rstrip()
    axis_row = "".join(str(t).rjust(width) for t in ticks)
    return [mult_row, axis_row]


def _signed(value: int) -> str:
    return str(value) if value >= 0 else f"({value})"


def format_additivity_report(report) -> str:
    lines = [
        f"{row.weight}: {_signed(row.original)} = {_signed(row.plus)} + {_signed(row.minus)}"
        for row in report.rows
    ]
    lines.append("ADDITIVITY HOLDS" if report.holds else "ADDITIVITY FAILS")
    return "\n".join(lines)


def _load_dataset(path: str) -> FixedPointData:
    data = parse_dataset(Path(path).read_bytes())
    violations = validate(data)
    if violations:
        details = "\n".join(f"  {v}" for v in violations)
        raise InvalidDataError(f"invalid dataset {path}:\n{details}")
    return data


def _cmd_quantize(args: argparse.Namespace) -> int:
    data = _load_dataset(args.input)
    if args.flip_codim2_signs:
        data = flip_codim2_signs(data)
    if args.beta is not None:
        print(multiplicity(data, args.beta))
    elif args.diagram:
        for line in render_diagram(character_rational(data)):
            print(line)
    else:
        print(format_character_report(character_rational(data)))
    return 0


def _load_cut(args: argparse.Namespace) -> tuple[FixedPointData, ...]:
    data = _load_dataset(args.input)
    spec = parse_cut_spec(Path(args.spec).read_bytes())
    return (data, *build_cut_data(data, spec))


def _cmd_cut(args: argparse.Namespace) -> int:
    _, plus, minus = _load_cut(args)
    Path(args.out_plus).write_text(serialize_dataset(plus), encoding="utf-8")
    Path(args.out_minus).write_text(serialize_dataset(minus), encoding="utf-8")
    return 0


def _cmd_check_additivity(args: argparse.Namespace) -> int:
    data, plus, minus = _load_cut(args)
    if args.flip_codim2_signs:
        # After the cut, so the reduced components it adds flip as well.
        data, plus, minus = (flip_codim2_signs(d) for d in (data, plus, minus))
    report = check_additivity(data, plus, minus)
    print(format_additivity_report(report))
    return 0 if report.holds else 3


def _cmd_validate(args: argparse.Namespace) -> int:
    data = parse_dataset(Path(args.input).read_bytes())
    violations = validate(data)
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        return 1
    print("OK")
    return 0


def _sphere_summary(k: int, n: int) -> str:
    data = sphere_catalogue.sphere_data(k, n)
    north, south = data.isolated
    return "\n".join(
        [
            f"{sphere_catalogue.label(k, n)}: half_dimension {data.half_dimension}",
            f"  north pole: weight {north.weights[0]}, det_weight {north.det_weight}, "
            f"sign {north.sign:+d}",
            f"  south pole: weight {south.weights[0]}, det_weight {south.det_weight}, "
            f"sign {south.sign:+d}",
        ]
    )


def _cmd_sphere(args: argparse.Namespace) -> int:
    k, n = args.k, args.n
    spaces = [(k, n)]
    # Every line is built before any is printed, so a space that fails
    # leaves stdout empty.
    lines = []
    if args.cut:
        spaces += sphere_catalogue.cut_identity(k, n)
        name, plus, minus = (sphere_catalogue.label(*space) for space in spaces)
        lines.append(f"({name})+ = {plus}, ({name})- = {minus}")
    if args.diagram:
        for space in spaces:
            if args.cut:
                lines.append(f"{sphere_catalogue.label(*space)}:")
            lines += render_diagram(character_rational(sphere_catalogue.sphere_data(*space)))
    if args.emit:
        Path(args.emit).write_text(
            serialize_dataset(sphere_catalogue.sphere_data(k, n)), encoding="utf-8"
        )
    if not (args.cut or args.diagram or args.emit):
        lines.append(_sphere_summary(k, n))
    if lines:
        print("\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="spincut",
        description="Exact circle-equivariant quantization from fixed-point data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantize = sub.add_parser("quantize", help="multiplicities of a dataset")
    quantize.add_argument("input", help="dataset file (JSON)")
    mode = quantize.add_mutually_exclusive_group()
    mode.add_argument("--beta", type=int, metavar="B", help="one weight, counting path")
    mode.add_argument(
        "--character", action="store_true", help="full character, rational path (default)"
    )
    mode.add_argument("--diagram", action="store_true", help="render the multiplicity diagram")
    quantize.set_defaults(func=_cmd_quantize)

    cut = sub.add_parser("cut", help="write both cut datasets")
    cut.add_argument("input", help="dataset file (JSON)")
    cut.add_argument("spec", help="cut specification file (JSON)")
    cut.add_argument("--out-plus", required=True, help="output path for the plus side")
    cut.add_argument("--out-minus", required=True, help="output path for the minus side")
    cut.set_defaults(func=_cmd_cut)

    check = sub.add_parser(
        "check-additivity", help="verify additivity of quantization under a cut"
    )
    check.add_argument("input", help="dataset file (JSON)")
    check.add_argument("spec", help="cut specification file (JSON)")
    check.set_defaults(func=_cmd_check_additivity)
    for command in (quantize, check):
        command.add_argument(
            "--paper-signs",
            action="store_true",
            dest="flip_codim2_signs",
            help="flip the sign of every codimension-2 contribution",
        )

    sphere = sub.add_parser("sphere", help="the P_{k,n} catalogue")
    sphere.add_argument("--k", type=int, required=True)
    sphere.add_argument("--n", type=int, required=True)
    sphere.add_argument("--cut", action="store_true", help="print the cut identities")
    sphere.add_argument(
        "--diagram",
        action="store_true",
        help="render diagrams (all three spaces with --cut)",
    )
    sphere.add_argument("--emit", metavar="PATH", help="write the dataset file")
    sphere.set_defaults(func=_cmd_sphere)

    check_file = sub.add_parser("validate", help="validation report for a dataset")
    check_file.add_argument("input", help="dataset file (JSON)")
    check_file.set_defaults(func=_cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which here
        # is malformed input (exit 1); 2 is reserved for unrealizable data.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (
        DocumentSyntaxError,
        SchemaError,
        InvalidDataError,
        SupportLimitError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NotDivisibleError, NonIntegerMultiplicityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of a computed int longer than the parser's own digit limit.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(
            f"error: a number to print has more than {limit} digits, "
            "the integer string conversion limit",
            file=sys.stderr,
        )
        return 1
