"""Acceptance gate: the end-to-end checks the package must pass.

Every test prints exactly one verdict line, "acceptance N PASS: <name>" or
"acceptance N FAIL: <name>", so running this module with -s (or reading the
captured output of a failure) gives a checklist.  Tolerances are stated
inline: all comparisons are exact (integer characters), and the two timed
checks assert wall-clock budgets of 5 and 30 seconds.
"""

from __future__ import annotations

import random
import time

from spincut.cli import format_character_report, render_diagram
from spincut.cutting import build_cut_data, check_additivity
from spincut.documents import parse_dataset
from spincut.fixed_points import polarize, validate
from spincut.kostant import character_rational, multiplicity
from spincut.laurent import LaurentPoly
from spincut.sphere import closed_form_multiplicity, cut_identity, sphere_data

from .generators import (
    canonical_cut_spec,
    cut_case,
    mixed_sign_variant,
    parity_mutated_document,
    random_polarized_dataset,
    realizable_dataset,
)
from .series import character_series
from .test_cli import run_cli, write_dataset, write_spec
from .test_diagram import diagram_positions

GRID = [(k, n) for k in range(-5, 6) for n in range(-5, 6)]


def _checked(number: int, name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"acceptance {number} FAIL: {name}")
        raise
    print(f"acceptance {number} PASS: {name}")


def test_acceptance_1_sphere_catalogue_exactness():
    def body():
        start = time.perf_counter()
        for k, n in GRID:
            data = sphere_data(k, n)
            char = character_rational(data)
            for beta in range(-30, 31):
                expected = closed_form_multiplicity(k, n, beta)
                assert multiplicity(data, beta) == expected, (k, n, beta)
                assert char.multiplicity(beta) == expected, (k, n, beta)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"

    _checked(1, "sphere catalogue, both engines, 0 mismatches in 5s", body)


def test_acceptance_2_cut_identities():
    def body():
        for k, n in GRID:
            plus, minus = build_cut_data(sphere_data(k, n), canonical_cut_spec())
            (pk, pn), (mk, mn) = cut_identity(k, n)
            assert character_rational(plus) == character_rational(
                sphere_data(pk, pn)
            ), (k, n)
            assert character_rational(minus) == character_rational(
                sphere_data(mk, mn)
            ), (k, n)

    _checked(2, "equatorial cut reproduces the catalogue identities", body)


def test_acceptance_3_additivity():
    def body():
        for k, n in GRID:
            data = sphere_data(k, n)
            plus, minus = build_cut_data(data, canonical_cut_spec())
            assert check_additivity(data, plus, minus).holds, (k, n)
        rng = random.Random(2026)
        for i in range(200):
            data, spec = cut_case(rng)
            plus, minus = build_cut_data(data, spec)
            assert check_additivity(data, plus, minus).holds, f"case {i}"

    _checked(3, "additivity holds on the grid and 200 randomized cuts", body)


def test_acceptance_4_two_engine_equivalence():
    def body():
        start = time.perf_counter()
        rng = random.Random(404)
        for i in range(100):
            data = random_polarized_dataset(rng)
            mus = [c.det_weight for c in data.components()]
            half = max(abs(mu) for mu in mus) // 2 + 20
            series = character_series(data, (-half, half))
            for beta in range(-half, half + 1):
                assert multiplicity(data, beta) == series.get(beta, 0), (i, beta)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"

    _checked(4, "counting equals the series oracle on 100 datasets in 30s", body)


def test_acceptance_5_polarization_invariance():
    def body():
        rng = random.Random(505)
        for i in range(100):
            data = mixed_sign_variant(rng, realizable_dataset(rng))
            assert character_rational(data) == character_rational(polarize(data)), i

    _checked(5, "rational character unchanged by polarize on 100 datasets", body)


def test_acceptance_6_parity_gate(tmp_path, capsys):
    def body():
        rng = random.Random(606)
        for i in range(100):
            data = parse_dataset(parity_mutated_document(rng))
            violations = validate(data)
            assert any(v.rule == "parity" for v in violations), f"false accept {i}"
        path = tmp_path / "mutated.json"
        path.write_text(parity_mutated_document(rng), encoding="utf-8")
        code, _, err = run_cli(capsys, "quantize", str(path))
        assert code == 1 and "parity" in err

    _checked(6, "100 parity-violating documents, 0 false accepts", body)


def _expected_diagram_content(k: int, n: int) -> dict[int, int]:
    # the worked families: +1 over k+1..k+n when n > 0, -1 over k+n+1..k when
    # n < 0, empty when n = 0
    if n > 0:
        return {beta: 1 for beta in range(k + 1, k + n + 1)}
    return {beta: -1 for beta in range(k + n + 1, k + 1)}


def test_acceptance_7_worked_diagram_families():
    def body():
        samples = [(1, 2), (2, 3), (3, 1), (-2, 5), (-1, 3), (-3, 4)]
        assert all(k > 0 and n > 0 for k, n in samples[:3])
        assert all(k < 0 < n + k for k, n in samples[3:])
        for k, n in samples:
            for kk, nn in ((k, n), (0, k + n), (k, -k)):
                lines = render_diagram(character_rational(sphere_data(kk, nn)))
                assert diagram_positions(lines) == _expected_diagram_content(
                    kk, nn
                ), (k, n, kk, nn)

    _checked(7, "diagram content of the three worked families", body)


def _parse_character_report(text: str) -> LaurentPoly:
    if text == "(zero representation)\n":
        return LaurentPoly()
    mults = {}
    for line in text.splitlines():
        weight, mult = line.split(": ")
        mults[int(weight)] = int(mult)
    return LaurentPoly(mults)


def test_acceptance_8_pipeline_integrity(tmp_path, capsys):
    def body():
        spec_path = write_spec(tmp_path, canonical_cut_spec())
        for k, n in GRID:
            data_path = write_dataset(tmp_path, sphere_data(k, n))
            plus_path = str(tmp_path / "plus.json")
            minus_path = str(tmp_path / "minus.json")
            code, _, _ = run_cli(
                capsys,
                "cut",
                data_path,
                spec_path,
                "--out-plus",
                plus_path,
                "--out-minus",
                minus_path,
            )
            assert code == 0, (k, n)
            reports = []
            for path in (data_path, plus_path, minus_path):
                code, out, _ = run_cli(capsys, "quantize", path, "--character")
                assert code == 0, (k, n, path)
                reports.append(out)
            whole = _parse_character_report(reports[0])
            parts = _parse_character_report(reports[1]) + _parse_character_report(reports[2])
            assert whole == parts, (k, n)
            # byte-exact round trip: re-rendering the sum reproduces the
            # original quantize output
            assert format_character_report(parts) + "\n" == reports[0], (k, n)

    _checked(8, "cut-then-quantize pipeline sums byte-exactly on the grid", body)
