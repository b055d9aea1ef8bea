"""Digest of the spincut command line over a fixed corpus.

Runs spincut.cli.main in process on a fixed set of datasets and prints one
line: the number of calls, a histogram of exit codes and one SHA-1 over every
call's arguments, exit code, stdout and stderr, and over every half that
`cut` writes.  The temporary directory is masked in arguments and stderr, so
two checkouts that print the same line gave the same bytes on every call.
This checks a change meant to keep every output against its parent:

    python tests/cli_digest.py --src path/to/parent/src
    python tests/cli_digest.py --src src

The corpus: the P_{k,n} grid for k, n in -4..4 with the equatorial cut, 60
cut cases (seed 11), 40 random polarized datasets (seed 5), 40 mixed-sign
realizable datasets (seed 7), CP^1..CP^4, and one m = 1 file of 21 points
with weights 1, 2, 4, ..., which passes the product limit.  On each:
`validate`, `quantize` with --character, --diagram and --beta at each of
BETAS, each with and without --paper-signs, then `cut` and
`check-additivity` with and without --paper-signs; plus `sphere --cut
--diagram` over the grid.  One m = 2 point with weights
(10^4300 - 1, 10^4300 - 1) and det_weight 1 joins
that corpus: validation formats a weight sum of 4301 digits, past the
interpreter's limit of integer string conversion, so every call on it
exits 1.  Four
more points get only `quantize --beta` at each of BETAS, with and without
--paper-signs: m = 3 with weights (97, 101, 103) and (1000003, 1000033,
1000037), whose counts the peel charges to the counting limit like every
other; m = 5 with weights (2, 3, 5, 7, 11), which peels three levels deep
below m*lcm(weights), and (1, 1, 2, 3, 5), which interpolates above it.
Three more points get one `quantize --beta` each, with and without
--paper-signs, that the counting route refuses with exit 1:
(1000003, 1000033, 1000037) at the depth 10^16, past the counting limit at
the first level; (1000, 1001, 1002, 1003) at beta -2950000, just past the
limit, so its peel charges levels for about a second before it stops; and
1500 weights of 1, past the peel's recursion.  Three m = 2 datasets of
surfaces get only `quantize --beta` at each of BETAS, with and without
--paper-signs: Codim2Component(2, 1, 21, -1, 5, -4) and (2, 3, 23, -1, 5,
-4), whose odd chern_l leaves a half multiplicity (exit 2) at every weight
on their steps, and the pair (2, 2, 40, 1, 2*10^6 + 2, 10^6) and (2, -2,
20, 1, -10^6, -10^6), one of them polarized by a flip, whose Chern numbers
near 10^6 give a count of -4499999 at beta 3, also queried at beta -10^9,
far below both tops.  A fourth, Codim2Component(2, 1, 2*10^4299 + 1, 1,
0, 10^4299), gets only `quantize --beta 0`, with and without
--paper-signs: its count of about 8600 digits is past the same limit
(exit 1).  One isolated point with 300 weights of 1 and
det_weight 300, unrealizable, gets only `quantize --character` and
`--diagram`, with and without --paper-signs: its fold builds
(1 - lambda^-1)^300 one binomial at a time, with coefficients up to
C(300, 150), before the exact division refuses it (exit 2).  So does the
mirrored surface pair Codim2Component(2, 1, 3, 1, 1, 1) and (2, 1, 1, -1,
-1, 1), whose odd chern_l make its doubled character -lambda: only the final
halving refuses it (exit 2).  The random datasets come from generators.py
next to this file, so both checkouts are run on the same inputs.  Nine
datasets with one codim-2 component that validation refuses, each of dim
1, dim 0 at m = 2 with and without Chern numbers, dim 2 at m = 1 with and
without them, dim 0 at m = 1 with both or one of them, and dim 2 at m = 2
with none or one, get `validate`, `quantize --character` and `quantize
--beta 0` (exit 1).  Nine cut specs whose one reduced component the cut
refuses get `cut` and `check-additivity` (exit 1): dim 3; dim 0 with both
or one Chern number at m = 1 and with both at m = 2; dim 0 at m = 2; dim 2
at m = 1; and dim 2 without Chern numbers at m = 1, and at m = 2 without
them or with one.  BETAS reach -400 so that counting at m >= 3 passes the
threshold m*lcm(weights) above which it interpolates the quasi-polynomial
instead of peeling.  The file is not a
test module; pytest does not collect it.

With this corpus, a checkout printed

    4444 calls; exit codes 0: 3884, 1: 77, 2: 483; sha1 10803b66d2493aff83dfef5e87092692ab82c8d1

and CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0 each printed that same line:
the digest needs neither pytest nor hypothesis, so it also checks
interpreters that have no test tools.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

BETAS = (-400, -40, -2, 0, 3)


def alternating(data, reduced=None):
    """(data, cut spec) whose spec alternates sides; the reduced components
    default to one point at m = 1 and none at m = 2.  Imports late, from
    --src, as every function here does."""
    from spincut import cutting

    if reduced is None:
        reduced = (cutting.ReducedComponent(0),) if data.half_dimension == 1 else ()
    sides = {i: "plus" if i % 2 == 0 else "minus" for i in range(len(data.components()))}
    return data, cutting.CutSpecification(sides, reduced)


def corpus():
    """(dataset, cut spec) pairs; a dataset without its own cut gets the
    alternating one."""
    import generators
    from spincut import fixed_points, sphere

    for k in range(-4, 5):
        for n in range(-4, 5):
            yield sphere.sphere_data(k, n), generators.canonical_cut_spec()
    rng = random.Random(11)
    for _ in range(60):
        yield generators.cut_case(rng)
    rng = random.Random(5)
    for _ in range(40):
        yield alternating(generators.random_polarized_dataset(rng))
    rng = random.Random(7)
    for _ in range(40):
        data = generators.realizable_dataset(rng)
        yield alternating(generators.mixed_sign_variant(rng, data))
    for m in range(1, 5):
        for k in (2, -1, -m - 2):
            yield alternating(generators.projective_space(list(range(m + 1)), k))
    points = tuple(fixed_points.IsolatedFixedPoint((2**i,), 2**i, 1) for i in range(21))
    yield alternating(fixed_points.FixedPointData(1, points))
    big = 10**4300 - 1
    point = fixed_points.IsolatedFixedPoint((big, big), 1, 1)
    yield alternating(fixed_points.FixedPointData(2, (point,)))


def beta_only():
    """(dataset, betas) pairs queried only with --beta: their characters are
    too wide."""
    from spincut import fixed_points

    for weights, above, betas in (
        ((97, 101, 103), 2000, BETAS),
        ((1000003, 1000033, 1000037), 2000, BETAS),
        ((2, 3, 5, 7, 11), 200, BETAS),
        ((1, 1, 2, 3, 5), 0, BETAS),
        ((1000003, 1000033, 1000037), 0, (-(10**16),)),
        ((1000, 1001, 1002, 1003), 0, (-2950000,)),
        ((1,) * 1500, 2, (0,)),
    ):
        point = fixed_points.IsolatedFixedPoint(weights, sum(weights) + above, 1)
        yield fixed_points.FixedPointData(len(weights), (point,)), betas
    surface = fixed_points.Codim2Component
    for surfaces, betas in (
        ((surface(2, 1, 21, -1, 5, -4),), BETAS),
        ((surface(2, 3, 23, -1, 5, -4),), BETAS),
        (
            (
                surface(2, 2, 40, 1, 2 * 10**6 + 2, 10**6),
                surface(2, -2, 20, 1, -(10**6), -(10**6)),
            ),
            BETAS + (-(10**9),),
        ),
        ((surface(2, 1, 2 * 10**4299 + 1, 1, 0, 10**4299),), (0,)),
    ):
        yield fixed_points.FixedPointData(2, (), surfaces), betas


def character_only():
    """Datasets queried only with --character and --diagram: one isolated
    point with 300 weights of 1, unrealizable at det_weight 300, and a
    mirrored pair of surfaces with odd chern_l whose doubled character is
    -lambda."""
    from spincut import fixed_points

    point = fixed_points.IsolatedFixedPoint((1,) * 300, 300, 1)
    yield fixed_points.FixedPointData(300, (point,))
    surface = fixed_points.Codim2Component
    pair = (surface(2, 1, 3, 1, 1, 1), surface(2, 1, 1, -1, -1, 1))
    yield fixed_points.FixedPointData(2, (), pair)


def invalid_codim2():
    """Datasets whose one codim-2 component validation refuses for its
    dimension or its Chern fields."""
    from spincut import fixed_points

    component = fixed_points.Codim2Component
    for m, comp in (
        (1, component(1, 1, 1, 1)),
        (2, component(0, 1, 1, 1)),
        (1, component(2, 1, 1, 1, 0, 0)),
        (1, component(2, 1, 1, 1)),
        (1, component(0, 1, 1, 1, 0, 0)),
        (1, component(0, 1, 1, 1, None, 0)),
        (2, component(0, 1, 1, 1, 0, 0)),
        (2, component(2, 1, 1, 1)),
        (2, component(2, 1, 1, 1, 0)),
    ):
        yield fixed_points.FixedPointData(m, (), (comp,))


def invalid_reduced():
    """Valid datasets at m = 1 and m = 2 with a cut spec whose one reduced
    component the cut refuses for its dimension or its Chern fields."""
    import generators
    from spincut import cutting, sphere

    reduced = cutting.ReducedComponent
    m1, m2 = sphere.sphere_data(1, 2), generators.projective_space([0, 1, 2], 2)
    for data, comp in (
        (m1, reduced(3)),
        (m1, reduced(0, 1, 0)),
        (m1, reduced(0, None, 1)),
        (m2, reduced(0, 1, 0)),
        (m2, reduced(0)),
        (m1, reduced(2, 0, 0)),
        (m1, reduced(2)),
        (m2, reduced(2)),
        (m2, reduced(2, 1)),
    ):
        yield alternating(data, (comp,))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the src directory to run")
    src = Path(parser.parse_args().src).resolve()
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import spincut
    from spincut import cli, documents

    if not Path(spincut.__file__).resolve().is_relative_to(src):
        sys.exit(f"spincut was imported from {spincut.__file__}, not from {src}")
    digest, codes = hashlib.sha1(), Counter()
    with tempfile.TemporaryDirectory() as tmp:

        def call(*argv: str) -> None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except Exception as exc:  # a traceback is an outcome too
                    code = f"raised {type(exc).__name__}: {exc}"
            codes[code] += 1
            record = (argv, code, out.getvalue(), err.getvalue())
            digest.update(repr(record).replace(tmp, "<tmp>").encode("utf-8"))

        def write(name: str, data, spec=None) -> tuple[str, str]:
            path, spec_path = Path(tmp, f"{name}.json"), Path(tmp, f"{name}.cut.json")
            path.write_text(documents.serialize_dataset(data), encoding="utf-8")
            if spec is not None:
                spec_path.write_text(documents.serialize_cut_spec(spec), encoding="utf-8")
            return str(path), str(spec_path)

        def cut(path: str, spec_path: str) -> None:
            halves = [Path(tmp, "plus.json"), Path(tmp, "minus.json")]
            outs = ("--out-plus", str(halves[0]), "--out-minus", str(halves[1]))
            call("cut", path, spec_path, *outs)
            for half in halves:
                digest.update(half.read_bytes() if half.exists() else b"(not written)")
                half.unlink(missing_ok=True)

        for index, (data, spec) in enumerate(corpus()):
            path, spec_path = write(str(index), data, spec)
            call("validate", path)
            for signs in ((), ("--paper-signs",)):
                call("quantize", path, "--character", *signs)
                call("quantize", path, "--diagram", *signs)
                for beta in BETAS:
                    call("quantize", path, "--beta", str(beta), *signs)
                call("check-additivity", path, spec_path, *signs)
            cut(path, spec_path)
        for index, (data, betas) in enumerate(beta_only()):
            path, _ = write(f"beta{index}", data)
            for signs in ((), ("--paper-signs",)):
                for beta in betas:
                    call("quantize", path, "--beta", str(beta), *signs)
        for index, data in enumerate(character_only()):
            path, _ = write(f"character{index}", data)
            for signs in ((), ("--paper-signs",)):
                call("quantize", path, "--character", *signs)
                call("quantize", path, "--diagram", *signs)
        for index, data in enumerate(invalid_codim2()):
            path, _ = write(f"codim2_{index}", data)
            call("validate", path)
            call("quantize", path, "--character")
            call("quantize", path, "--beta", "0")
        for index, (data, spec) in enumerate(invalid_reduced()):
            path, spec_path = write(f"reduced{index}", data, spec)
            cut(path, spec_path)
            call("check-additivity", path, spec_path)
        for k in range(-4, 5):
            for n in range(-4, 5):
                call("sphere", "--k", str(k), "--n", str(n), "--cut", "--diagram")
    histogram = ", ".join(f"{code}: {n}" for code, n in sorted(codes.items(), key=str))
    calls = sum(codes.values())
    print(f"{calls} calls; exit codes {histogram}; sha1 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
