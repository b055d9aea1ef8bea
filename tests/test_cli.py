from __future__ import annotations

import argparse
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from spincut import cli, laurent
from spincut.cli import format_additivity_report, format_character_report, main, render_diagram
from spincut.cutting import (
    AdditivityReport,
    CutSpecification,
    ReducedComponent,
    build_cut_data,
    check_additivity,
)
from spincut.documents import parse_dataset, serialize_cut_spec, serialize_dataset
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    IsolatedFixedPoint,
    validate,
)
from spincut.kostant import character_rational
from spincut.laurent import LaurentPoly
from spincut.sphere import sphere_data

from .generators import canonical_cut_spec, projective_space, realizable_dataset


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dataset(tmp_path, data, name="data.json"):
    path = tmp_path / name
    path.write_text(serialize_dataset(data), encoding="utf-8")
    return str(path)


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(serialize_cut_spec(spec), encoding="utf-8")
    return str(path)


def test_quantize_character(tmp_path, capsys):
    path = write_dataset(tmp_path, sphere_data(1, 2))
    code, out, err = run_cli(capsys, "quantize", path, "--character")
    assert (code, err) == (0, "")
    assert out == "2: 1\n3: 1\n"


def test_quantize_character_is_the_default_mode(tmp_path, capsys):
    path = write_dataset(tmp_path, sphere_data(1, 2))
    code, out, _ = run_cli(capsys, "quantize", path)
    assert code == 0
    assert out == "2: 1\n3: 1\n"


def test_quantize_zero_representation(tmp_path, capsys):
    path = write_dataset(tmp_path, sphere_data(0, 0))
    code, out, _ = run_cli(capsys, "quantize", path, "--character")
    assert code == 0
    assert out == "(zero representation)\n"


def test_quantize_beta_agrees_with_character(tmp_path, capsys):
    rng = random.Random(3)
    datasets = [sphere_data(2, 3), sphere_data(-1, -4), realizable_dataset(rng)]
    for i, data in enumerate(datasets):
        path = write_dataset(tmp_path, data, f"data{i}.json")
        code, out, _ = run_cli(capsys, "quantize", path, "--character")
        assert code == 0
        char = {}
        if out != "(zero representation)\n":
            for line in out.splitlines():
                weight, mult = line.split(": ")
                char[int(weight)] = int(mult)
        support = sorted(char) or [0]
        for beta in range(support[0] - 2, support[-1] + 3):
            code, out, _ = run_cli(capsys, "quantize", path, "--beta", str(beta))
            assert code == 0
            assert int(out) == char.get(beta, 0)


def test_quantize_beta_far_below_an_m2_product(tmp_path, capsys):
    # P_{1,2} x P_{0,1}: four m=2 points whose partition counts at this beta
    # are each about 10**8 and cancel exactly.
    points = tuple(
        IsolatedFixedPoint(
            weights=a.weights + b.weights,
            det_weight=a.det_weight + b.det_weight,
            sign=a.sign * b.sign,
        )
        for a, b in itertools.product(sphere_data(1, 2).isolated, sphere_data(0, 1).isolated)
    )
    path = write_dataset(tmp_path, FixedPointData(half_dimension=2, isolated=points))
    assert run_cli(capsys, "quantize", path) == (0, "3: 1\n4: 1\n", "")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "quantize", path, "--beta", "-100000000")
    elapsed = time.perf_counter() - start
    assert (code, out, err) == (0, "0\n", "")
    assert elapsed < 1.0


def test_quantize_diagram(tmp_path, capsys):
    path = write_dataset(tmp_path, sphere_data(0, 3))
    code, out, _ = run_cli(capsys, "quantize", path, "--diagram")
    assert code == 0
    expected = render_diagram(character_rational(sphere_data(0, 3)))
    assert out == "\n".join(expected) + "\n"


def test_quantize_invalid_parity_file(tmp_path, capsys):
    bad = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=2, sign=1),),
    )
    path = write_dataset(tmp_path, bad)
    code, out, err = run_cli(capsys, "quantize", path, "--character")
    assert code == 1
    assert out == ""
    assert "parity" in err


def test_quantize_unrealizable_file(tmp_path, capsys):
    lonely = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=1, sign=1),),
    )
    path = write_dataset(tmp_path, lonely)
    code, out, err = run_cli(capsys, "quantize", path, "--character")
    assert code == 2
    assert "error" in err


def test_quantize_missing_file(capsys):
    code, _, err = run_cli(capsys, "quantize", "/nonexistent/data.json")
    assert code == 1
    assert "error" in err


def test_quantize_syntax_error_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  bad\n}", encoding="utf-8")
    code, _, err = run_cli(capsys, "quantize", str(path))
    assert code == 1
    assert "line 2" in err


def test_quantize_paper_signs(tmp_path, capsys):
    text = """\
{
  "half_dimension": 1,
  "isolated": [],
  "codim2": [
    {"dim": 0, "normal_weight": 1, "det_weight": 5, "sign": 1},
    {"dim": 0, "normal_weight": 1, "det_weight": 1, "sign": -1}
  ]
}
"""
    path = tmp_path / "pure.json"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(capsys, "quantize", str(path), "--character")
    assert (code, out) == (0, "1: 1\n2: 1\n")
    code, out, _ = run_cli(capsys, "quantize", str(path), "--character", "--paper-signs")
    assert (code, out) == (0, "1: -1\n2: -1\n")
    for beta, expected in ((-1, "0"), (0, "0"), (1, "-1"), (2, "-1"), (3, "0"), (4, "0")):
        argv = ("quantize", str(path), "--beta", str(beta), "--paper-signs")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")


def test_quantize_paper_signs_beta_on_unpolarized_data(tmp_path, capsys):
    # The first component has a negative normal weight; the flipped signs and
    # polarization must give the same answers as on the polarized form above.
    text = """\
{
  "half_dimension": 1,
  "isolated": [],
  "codim2": [
    {"dim": 0, "normal_weight": -1, "det_weight": 5, "sign": -1},
    {"dim": 0, "normal_weight": 1, "det_weight": 1, "sign": -1}
  ]
}
"""
    path = tmp_path / "mixed.json"
    path.write_text(text, encoding="utf-8")
    for beta, expected in ((0, "0"), (1, "-1"), (2, "-1"), (3, "0")):
        argv = ("quantize", str(path), "--beta", str(beta), "--paper-signs")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, expected + "\n", "")
        code, out, err = run_cli(capsys, "quantize", str(path), "--beta", str(beta))
        assert (code, out, err) == (0, expected.lstrip("-") + "\n", "")


PAPER_SIGNS_SURFACE_DATA = """\
{
  "half_dimension": 2,
  "isolated": [],
  "codim2": [
    {"dim": 2, "normal_weight": 1, "det_weight": 1, "sign": -1, "chern_L": -2, "chern_N": 1},
    {"dim": 2, "normal_weight": 1, "det_weight": 3, "sign": 1, "chern_L": 0, "chern_N": 1}
  ]
}
"""
PAPER_SIGNS_SURFACE_SPEC = """\
{
  "assignments": {"0": "minus", "1": "plus"},
  "reduced": [{"dim": 2, "chern_Lred": -3, "chern_Nminus": 1}]
}
"""


def test_check_additivity_paper_signs_sphere_equator(tmp_path, capsys):
    # The signs flip on the cut's dim-0 reduced components too, so the plus
    # half is no longer realizable; flipping only the input would not see it.
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    code, out, err = run_cli(capsys, "check-additivity", data_path, spec_path, "--paper-signs")
    assert (code, out) == (2, "")
    assert err == (
        "error: plus dataset is not realizable: "
        "remainder is nonzero: quotient is not a Laurent polynomial\n"
    )


def test_check_additivity_paper_signs_surface_cut(tmp_path, capsys):
    data_path = tmp_path / "surfaces.json"
    data_path.write_text(PAPER_SIGNS_SURFACE_DATA, encoding="utf-8")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(PAPER_SIGNS_SURFACE_SPEC, encoding="utf-8")
    code, out, err = run_cli(capsys, "check-additivity", str(data_path), str(spec_path))
    assert (code, out, err) == (0, "1: (-1) = (-1) + 0\nADDITIVITY HOLDS\n", "")
    code, out, err = run_cli(
        capsys, "check-additivity", str(data_path), str(spec_path), "--paper-signs"
    )
    assert (code, out, err) == (0, "1: 1 = 1 + 0\nADDITIVITY HOLDS\n", "")


def test_check_additivity_unrealizable_only_under_paper_signs(tmp_path, capsys):
    # An isolated point and a dim-0 component that cancel exactly; with the
    # component's sign flipped they add up instead, and nothing divides.
    data_path = tmp_path / "cancel.json"
    data_path.write_text(
        '{"half_dimension": 1,'
        ' "isolated": [{"weights": [1], "det_weight": 1, "sign": 1}],'
        ' "codim2": [{"dim": 0, "normal_weight": 1, "det_weight": 1, "sign": -1}]}',
        encoding="utf-8",
    )
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    code, out, err = run_cli(capsys, "check-additivity", str(data_path), spec_path)
    assert (code, out, err) == (0, "ADDITIVITY HOLDS\n", "")
    code, out, err = run_cli(
        capsys, "check-additivity", str(data_path), spec_path, "--paper-signs"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: original dataset is not realizable: "
        "remainder is nonzero: quotient is not a Laurent polynomial\n"
    )


def _assert_one_line_error(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_malformed_bytes_and_huge_integers_exit_1(tmp_path, capsys):
    good = serialize_dataset(sphere_data(1, 2))
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    malformed = {
        "undecodable": good.encode("utf-8") + b"\xff",
        "huge": good.replace('"det_weight": 7', '"det_weight": ' + "7" * 5001).encode(),
    }
    outs = ["--out-plus", str(tmp_path / "plus.json"), "--out-minus", str(tmp_path / "minus.json")]
    for name, raw in malformed.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        for argv in (
            ["quantize", str(path)],
            ["quantize", str(path), "--beta", "2"],
            ["validate", str(path)],
            ["check-additivity", str(path), spec_path],
            ["cut", str(path), spec_path, *outs],
        ):
            _assert_one_line_error(*run_cli(capsys, *argv))
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    canonical = serialize_cut_spec(canonical_cut_spec()).encode("utf-8")
    for raw in (canonical + b"\xfe", canonical.replace(b'"dim": 0', b'"dim": 1' + b"0" * 5000)):
        bad_spec = tmp_path / "bad_spec.json"
        bad_spec.write_bytes(raw)
        _assert_one_line_error(*run_cli(capsys, "cut", data_path, str(bad_spec), *outs))
    assert not (tmp_path / "plus.json").exists()
    assert not (tmp_path / "minus.json").exists()


def test_cut_rejects_an_index_given_twice(tmp_path, capsys):
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = tmp_path / "spec.json"
    out_plus, out_minus = tmp_path / "plus.json", tmp_path / "minus.json"
    outs = ("--out-plus", str(out_plus), "--out-minus", str(out_minus))
    # The second side is never compared with the first, whatever its type.
    for assignments in (
        '{"0": "plus", "1": "minus", "00": "minus"}',
        '{"0": "plus", "00": 5, "1": "minus"}',
    ):
        spec_path.write_text(
            f'{{"assignments": {assignments}, "reduced": [{{"dim": 0}}]}}', encoding="utf-8"
        )
        code, out, err = run_cli(capsys, "cut", data_path, str(spec_path), *outs)
        _assert_one_line_error(code, out, err)
        assert err == "error: assignments.0: component 0 is assigned twice\n"
    assert not out_plus.exists() and not out_minus.exists()


# One fault per spec: the assignments (P_{1,2} has components 0 and 1), the
# reduced components, and the exact error line both commands print for it.
GOOD_ASSIGNMENTS = '{"0": "plus", "1": "minus"}'
FAULTY_SPECS = (
    ('{"0": "left", "1": "minus"}', '[{"dim": 0}]',
     """assignments.0: side must be "plus" or "minus", got 'left'"""),
    ('{"0": "plus", "1": 5}', '[{"dim": 0}]',
     'assignments.1: side must be "plus" or "minus", got 5'),
    ('{"0": null, "1": "minus"}', '[{"dim": 0}]',
     'assignments.0: side must be "plus" or "minus", got None'),
    (GOOD_ASSIGNMENTS, '[{"dim": 3}]', "reduced[0].dim: expected 0 or 2, got 3"),
    ('{"0": "plus", "1": "minus", "7": "plus"}', '[{"dim": 0}]',
     "assignment for unknown component 7"),
    ('{"0": "plus"}', '[{"dim": 0}]', "component 1 has no side assignment"),
    (GOOD_ASSIGNMENTS, '[{"dim": 2, "chern_Lred": 0, "chern_Nminus": 0}]',
     "reduced[0]: dim-2 reduced component requires half_dimension 2, got 1"),
    (GOOD_ASSIGNMENTS, '[{"dim": 0, "chern_Lred": 1}]',
     "reduced[0]: dim-0 components carry no Chern numbers"),
    (GOOD_ASSIGNMENTS, '[{"dim": 2}]',
     "reduced[0]: dim-2 components need chern_Lred and chern_Nminus"),
    ('{"a": "plus", "0": "plus", "1": "minus"}', '[{"dim": 0}]',
     "assignments.a: component index must be an integer"),
    ('{"0": "plus", "1_0": "minus"}', '[{"dim": 0}]',
     "assignments.1_0: component index must be an integer"),
)


def test_each_cut_spec_fault_has_one_error_line(tmp_path, capsys):
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = tmp_path / "spec.json"
    out_plus, out_minus = tmp_path / "plus.json", tmp_path / "minus.json"
    outs = ("--out-plus", str(out_plus), "--out-minus", str(out_minus))
    for assignments, reduced, message in FAULTY_SPECS:
        spec_path.write_text(
            f'{{"assignments": {assignments}, "reduced": {reduced}}}', encoding="utf-8"
        )
        for argv in (
            ("cut", data_path, str(spec_path), *outs),
            ("check-additivity", data_path, str(spec_path)),
        ):
            assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")
    assert not out_plus.exists() and not out_minus.exists()


def test_deep_nesting_exits_1(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for command in ("quantize", "validate"):
        code, out, err = run_cli(capsys, command, str(path))
        _assert_one_line_error(code, out, err)
        assert err == (
            "error: line 1, column 100000: "
            "nested 100000 levels deep, past the parser's recursion limit\n"
        )


def test_a_key_given_twice_exits_1(tmp_path, capsys):
    dataset = tmp_path / "data.json"
    dataset.write_text(
        serialize_dataset(sphere_data(1, 2)).replace(
            '"half_dimension": 1,', '"half_dimension": 1,\n  "half_dimension": 2,'
        ),
        encoding="utf-8",
    )
    for command in ("quantize", "validate"):
        code, out, err = run_cli(capsys, command, str(dataset))
        _assert_one_line_error(code, out, err)
        assert err == 'error: "half_dimension": key given twice in one object\n'
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        '{"assignments": {"0": "plus", "1": "minus", "0": "minus"}, "reduced": [{"dim": 0}]}',
        encoding="utf-8",
    )
    out_plus, out_minus = tmp_path / "plus.json", tmp_path / "minus.json"
    outs = ["--out-plus", str(out_plus), "--out-minus", str(out_minus)]
    for argv in (
        ["cut", data_path, str(spec_path), *outs],
        ["check-additivity", data_path, str(spec_path)],
    ):
        code, out, err = run_cli(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert err == 'error: "0": key given twice in one object\n'
    assert not out_plus.exists() and not out_minus.exists()


def test_beta_past_the_counting_recursion_exits_1(tmp_path, capsys):
    # Counting peels one weight per nested call; 1500 of them is too deep.
    data = FixedPointData(
        half_dimension=1500,
        isolated=(IsolatedFixedPoint(weights=(1,) * 1500, det_weight=1502, sign=1),),
    )
    path = write_dataset(tmp_path, data)
    code, out, err = run_cli(capsys, "quantize", path, "--beta", "0")
    _assert_one_line_error(code, out, err)
    assert err == "error: 1500 weights are too many for the counting path's recursion\n"


def test_a_number_past_the_print_limit_exits_1(tmp_path, capsys):
    # The parser reads integers of up to the interpreter's digit limit, but
    # the program can compute longer ones: the weight sum of a parity message,
    # or a count of about twice the digits.
    limit = sys.get_int_max_str_digits()
    big = 10**limit - 1
    point = FixedPointData(2, (IsolatedFixedPoint((big, big), 1, 1),))
    point_path = write_dataset(tmp_path, point, "point.json")
    spec_path = write_spec(tmp_path, CutSpecification({0: "plus"}))
    surface = Codim2Component(2, 1, 2 * 10 ** (limit - 1) + 1, 1, 0, 10 ** (limit - 1))
    surface_path = write_dataset(tmp_path, FixedPointData(2, (), (surface,)), "surface.json")
    error = (
        f"error: a number to print has more than {limit} digits, "
        "the integer string conversion limit\n"
    )
    for argv in (
        ("validate", point_path),
        ("quantize", point_path),
        ("check-additivity", point_path, spec_path),
        ("quantize", surface_path, "--beta", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        _assert_one_line_error(code, out, err)
        assert err == error


def test_sphere_cut_diagram_prints_nothing_when_a_later_space_fails(capsys, monkeypatch):
    # The cut identity line is built first; then a diagram fails on the
    # print limit (n = -1, the first space's) or the quotient limit (n = 0,
    # after one diagram was built).  The limit is lowered so that the dense
    # division stops early.
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 1000)
    limit = sys.get_int_max_str_digits()
    k = str(10**limit - 1)
    errors = {
        "-1": f"error: a number to print has more than {limit} digits, "
        "the integer string conversion limit\n",
        "0": "error: the quotient has more than 1000 terms, the output-support limit\n",
    }
    for n, error in errors.items():
        code, out, err = run_cli(capsys, "sphere", "--k", k, "--n", n, "--cut", "--diagram")
        _assert_one_line_error(code, out, err)
        assert err == error


def test_quotient_limit_on_huge_exponents_arrives_at_once(capsys, monkeypatch):
    # The dense quotient's exponents have 4300 digits.  On exponents relative
    # to each input's top the division reaches this limit in about 0.14 s;
    # on the exponents themselves it took 1.8 s (2-core VM).
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 1 << 17)
    k = str(10 ** sys.get_int_max_str_digits() - 1)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "sphere", "--k", k, "--n", "0", "--cut", "--diagram")
    elapsed = time.perf_counter() - started
    _assert_one_line_error(code, out, err)
    assert err == "error: the quotient has more than 131072 terms, the output-support limit\n"
    assert elapsed < 0.6


def test_beta_far_below_an_m3_point_is_counted_at_once(tmp_path, capsys):
    # Three weights 1 count C(n + 2, 2) at n = -beta - 1; peeling one odd
    # multiple at a time took about a second per 10^6 of |beta|.
    data = FixedPointData(3, (IsolatedFixedPoint(weights=(1, 1, 1), det_weight=1, sign=1),))
    path = write_dataset(tmp_path, data)
    for beta, count in (("-1000000", "500000500000"), ("-100000000", "5000000050000000")):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "quantize", path, "--beta", beta)
        assert (code, out, err) == (0, count + "\n", "")
        assert time.perf_counter() - started < 5


def test_beta_past_the_counting_limit_exits_1_at_once(tmp_path):
    # Below 3*lcm (about 3*10^18) these weights peel about |beta| / 1000037
    # steps, and far queries peel samples at up to 2*lcm.  Without the limit,
    # beta = -10^13 took 11 s, and the time grows linearly in |beta|.
    point = IsolatedFixedPoint(weights=(1000003, 1000033, 1000037), det_weight=3000073, sign=1)
    path = write_dataset(tmp_path, FixedPointData(3, (point,)))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    error = "error: a count needs more than 4194304 steps, the counting limit\n"
    for beta, code, out, err in (
        ("-100000000000", 0, "3333\n", ""),
        ("-10000000000000000", 1, "", error),
        ("-4000000000000000000", 1, "", error),
    ):
        result = subprocess.run(
            [sys.executable, "-m", "spincut", "quantize", path, "--beta", beta],
            capture_output=True,
            text=True,
            env=env,
            timeout=20,
        )
        assert (result.returncode, result.stdout, result.stderr) == (code, out, err), beta
        if code:
            _assert_one_line_error(result.returncode, result.stdout, result.stderr)


def test_an_m4_count_past_the_counting_limit_exits_1_within_the_largest_counts_time(tmp_path):
    # The peel charges each level's iterations as it starts, so a refused
    # m = 4 count peels at most the limit's worth of steps before it stops:
    # about as long as --beta -2900000, the largest accepted count here.
    point = IsolatedFixedPoint(weights=(1000, 1001, 1002, 1003), det_weight=4006, sign=1)
    path = write_dataset(tmp_path, FixedPointData(4, (point,)))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-m", "spincut", "quantize", path, "--beta", "-100000000"],
        capture_output=True,
        text=True,
        env=env,
        timeout=20,
    )
    assert result.stderr == "error: a count needs more than 4194304 steps, the counting limit\n"
    _assert_one_line_error(result.returncode, result.stdout, result.stderr)


def test_beta_within_the_counting_limit_is_counted_for_six_weights(tmp_path, capsys):
    # The peel at n = 2482 over (5, 6, 52, 957) runs 2138184 loop iterations,
    # half the limit, so a step bound that is 2x loose for m >= 4 refuses it.
    weights = (2, 5, 5, 6, 52, 957)
    point = IsolatedFixedPoint(weights=weights, det_weight=sum(weights), sign=1)
    path = write_dataset(tmp_path, FixedPointData(6, (point,)))
    assert run_cli(capsys, "quantize", path, "--beta", "-2482") == (0, "123338940\n", "")


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    for argv in (["quantize"], ["frobnicate"], ["sphere", "--k", "x", "--n", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: spincut")
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: spincut")


def _reuse_corpus(tmp_path) -> list[list[str]]:
    """Every command and mode, with and without --paper-signs, plus usage errors."""
    surfaces = tmp_path / "surfaces.json"
    surfaces.write_text(PAPER_SIGNS_SURFACE_DATA, encoding="utf-8")
    surface_spec = tmp_path / "surface-spec.json"
    surface_spec.write_text(PAPER_SIGNS_SURFACE_SPEC, encoding="utf-8")
    sphere = write_dataset(tmp_path, sphere_data(1, 2), "sphere.json")
    spec = write_spec(tmp_path, canonical_cut_spec())
    outs = ["--out-plus", str(tmp_path / "plus.json"), "--out-minus", str(tmp_path / "minus.json")]
    commands = ("quantize", "cut", "check-additivity", "sphere", "validate")
    calls = [["quantize"], ["frobnicate"], ["sphere", "--k", "x", "--n", "1"], ["--help"]]
    calls += [[command, "--help"] for command in commands]
    calls += [["quantize", sphere, "--beta", "1", "--diagram"]]
    for path in (str(surfaces), sphere):
        for mode in (["--beta", "1"], ["--beta", "2"], ["--diagram"], ["--character"], []):
            calls += [["quantize", path, *mode], ["quantize", path, *mode, "--paper-signs"]]
        calls += [["validate", path]]
    for data, cut_spec in ((str(surfaces), str(surface_spec)), (sphere, spec)):
        for flag in ([], ["--paper-signs"]):
            calls += [["check-additivity", data, cut_spec, *flag]]
        calls += [["cut", data, cut_spec, *outs]]
    calls += [["sphere", "--k", "1", "--n", "2", "--cut", "--diagram"]]
    calls += [["sphere", "--k", "-2", "--n", "3"]]
    return calls


def _outcome(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv)
    written = {}
    for name in ("plus.json", "minus.json"):
        path = tmp_path / name
        if path.exists():
            written[name] = path.read_bytes()
            path.unlink()
    return code, out, err, written


def test_reused_parser_answers_like_a_fresh_one(tmp_path, capsys):
    calls = _reuse_corpus(tmp_path)
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(capsys, tmp_path, argv))
    # One parser for everything, each call twice, in two interleavings.
    order = list(range(len(calls))) * 2
    random.Random(9).shuffle(order)
    for i in list(range(len(calls))) + order:
        assert _outcome(capsys, tmp_path, calls[i]) == fresh[i], calls[i]
    assert {code for code, *_ in fresh} == {0, 1, 2}
    assert any(written for *_, written in fresh)


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "sphere", "--k", "1", "--n", "2", "--cut")[0] == 0
    assert len(built) == 6  # spincut and its five subcommands
    for _ in range(50):
        run_cli(capsys, "sphere", "--k", "1", "--n", "2", "--cut")
        run_cli(capsys, "quantize")
        run_cli(capsys, "--help")
    assert len(built) == 6


def test_output_support_limit(tmp_path, capsys, monkeypatch):
    # Terms are counted, not the exponent span: two weights 2*10**7 apart pass.
    # This runs at the real limit: the four-point fold multiplies polynomials
    # of more than five term pairs.
    far = [sphere_data(-(10**7), 1), sphere_data(10**7, 1)]
    union = FixedPointData(half_dimension=1, isolated=far[0].isolated + far[1].isolated)
    path = write_dataset(tmp_path, union, "far.json")
    assert run_cli(capsys, "quantize", path) == (0, "-9999999: 1\n10000001: 1\n", "")
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 5)
    # P_{0,n} has n weights: five is the last size under the limit.
    at_limit = write_dataset(tmp_path, sphere_data(0, 5), "five.json")
    assert run_cli(capsys, "quantize", at_limit) == (0, "1: 1\n2: 1\n3: 1\n4: 1\n5: 1\n", "")
    past = write_dataset(tmp_path, sphere_data(0, 6), "six.json")
    spec = write_spec(tmp_path, canonical_cut_spec())
    error = "error: the quotient has more than 5 terms, the output-support limit\n"
    for argv in (
        ("quantize", past),
        ("quantize", past, "--diagram"),
        ("check-additivity", past, spec),
        ("sphere", "--k", "0", "--n", "6", "--diagram"),
    ):
        assert run_cli(capsys, *argv) == (1, "", error)


def test_diagram_span_limit(tmp_path, capsys, monkeypatch):
    # Two weights d apart span d + 1 columns, not counting the padding ticks.
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 5)
    at_limit = write_dataset(tmp_path, projective_space((0, 4), 1), "span5.json")
    diagram = "    +1          +1\n -1  0  1  2  3  4  5\n"
    assert run_cli(capsys, "quantize", at_limit, "--diagram") == (0, diagram, "")
    past = write_dataset(tmp_path, projective_space((0, 5), 1), "span6.json")
    assert run_cli(capsys, "quantize", past) == (0, "0: 1\n5: 1\n", "")
    error = "error: the diagram spans more than 5 weights, the output-support limit\n"
    assert run_cli(capsys, "quantize", past, "--diagram") == (1, "", error)


def test_product_limit_stops_a_doubling_combine(tmp_path, capsys, monkeypatch):
    # Weights 1, 2, 4, ...: every subset sum is a new exponent, so the common
    # denominator doubles at each point; the combine stops at the product
    # that passes the limit, before the (failing) division is reached.
    monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", 64)
    points = tuple(IsolatedFixedPoint((2**i,), 2**i, 1) for i in range(8))
    path = write_dataset(tmp_path, FixedPointData(1, points), "powers.json")
    spec = CutSpecification(
        assignments=[(i, "plus") for i in range(8)], reduced=(ReducedComponent(0),)
    )
    spec_path = write_spec(tmp_path, spec)
    error = "error: a product has more than 64 term pairs, the output-support limit\n"
    for argv in (("quantize", path, "--character"), ("check-additivity", path, spec_path)):
        assert run_cli(capsys, *argv) == (1, "", error)


def test_product_limit_binds_per_binomial_step(tmp_path, capsys, monkeypatch):
    # Beyond m = 1 the fold multiplies by one binomial 1 - lambda^-a at a
    # time, and each step is held to the limit.  CP^2 needs at most 16 term
    # pairs per step and a surface pair 8; multiplying by the expanded
    # products (1 - x)(1 - y) and (1 - x)^2 instead would need 24 and 9 at
    # the largest step.
    surfaces = (
        Codim2Component(2, 2, 6, 1, chern_l=2, chern_n=2),
        Codim2Component(2, 2, 2, -1, chern_l=-2, chern_n=2),
    )
    for name, data, steps, character in (
        ("cp2.json", projective_space((0, 1, 2), 1), 16, "0: 1\n1: 1\n2: 1\n"),
        ("surfaces.json", FixedPointData(2, (), surfaces), 8, "2: -1\n"),
    ):
        path = write_dataset(tmp_path, data, name)
        monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", steps)
        assert run_cli(capsys, "quantize", path) == (0, character, "")
        monkeypatch.setattr(laurent, "MAX_QUOTIENT_TERMS", steps - 1)
        error = (
            f"error: a product has more than {steps - 1} term pairs, "
            "the output-support limit\n"
        )
        assert run_cli(capsys, "quantize", path, "--character") == (1, "", error)


def test_cut_writes_canonical_datasets(tmp_path, capsys):
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    out_plus = tmp_path / "plus.json"
    out_minus = tmp_path / "minus.json"
    code, out, err = run_cli(
        capsys,
        "cut",
        data_path,
        spec_path,
        "--out-plus",
        str(out_plus),
        "--out-minus",
        str(out_minus),
    )
    assert (code, out, err) == (0, "", "")
    plus = parse_dataset(out_plus.read_text(encoding="utf-8"))
    minus = parse_dataset(out_minus.read_text(encoding="utf-8"))
    assert validate(plus) == []
    assert validate(minus) == []
    expected_plus, expected_minus = build_cut_data(sphere_data(1, 2), canonical_cut_spec())
    assert (plus, minus) == (expected_plus, expected_minus)
    assert character_rational(plus) == character_rational(sphere_data(0, 3))
    assert character_rational(minus) == character_rational(sphere_data(1, -1))


def test_check_additivity_holds(tmp_path, capsys):
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    code, out, _ = run_cli(capsys, "check-additivity", data_path, spec_path)
    assert code == 0
    assert out == "1: 0 = 1 + (-1)\n2: 1 = 1 + 0\n3: 1 = 1 + 0\nADDITIVITY HOLDS\n"


def test_check_additivity_unassigned_component(tmp_path, capsys):
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"assignments": {"0": "plus"}, "reduced": []}', encoding="utf-8")
    code, _, err = run_cli(capsys, "check-additivity", data_path, str(spec_path))
    assert code == 1
    assert "component 1" in err


def test_additivity_failure_formatting():
    data = sphere_data(1, 2)
    plus, _ = build_cut_data(data, canonical_cut_spec())
    report = check_additivity(data, plus, plus)
    text = format_additivity_report(report)
    assert text.endswith("ADDITIVITY FAILS")
    assert "1: 0 = 1 + 1" in text


def test_additivity_failure_exits_3(tmp_path, capsys, monkeypatch):
    # On a dataset and its cut specification, additivity is an identity, so
    # only an engine fault fails it: stand one in that reports the true rows
    # as failing.
    def failing(data, plus, minus):
        return AdditivityReport(False, check_additivity(data, plus, minus).rows)

    monkeypatch.setattr(cli, "check_additivity", failing)
    data_path = write_dataset(tmp_path, sphere_data(1, 2))
    spec_path = write_spec(tmp_path, canonical_cut_spec())
    code, out, err = run_cli(capsys, "check-additivity", data_path, spec_path)
    assert (code, err) == (3, "")
    assert out == "1: 0 = 1 + (-1)\n2: 1 = 1 + 0\n3: 1 = 1 + 0\nADDITIVITY FAILS\n"


def test_sphere_cut_identity_line(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--k", "1", "--n", "2", "--cut")
    assert code == 0
    assert out == "(P_{1,2})+ = P_{0,3}, (P_{1,2})- = P_{1,-1}\n"


def test_sphere_diagram(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--k", "0", "--n", "3", "--diagram")
    assert code == 0
    assert out == "    +1 +1 +1\n  0  1  2  3  4\n"


def test_sphere_zero_diagram(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--k", "0", "--n", "0", "--diagram")
    assert code == 0
    assert out == "\n -1  0  1\n"


def test_sphere_cut_with_diagrams_prints_all_three(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--k", "1", "--n", "2", "--cut", "--diagram")
    assert code == 0
    for name in ("P_{1,2}:", "P_{0,3}:", "P_{1,-1}:"):
        assert name in out
    assert out.index("P_{1,2}:") < out.index("P_{0,3}:") < out.index("P_{1,-1}:")


def test_sphere_emit_round_trips(tmp_path, capsys):
    path = tmp_path / "sphere.json"
    code, _, _ = run_cli(capsys, "sphere", "--k", "-2", "--n", "5", "--emit", str(path))
    assert code == 0
    assert parse_dataset(path.read_text(encoding="utf-8")) == sphere_data(-2, 5)


def test_sphere_default_summary(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--k", "1", "--n", "2")
    assert code == 0
    assert "P_{1,2}" in out
    assert "det_weight 7" in out
    assert "det_weight 3" in out


def test_validate_ok(tmp_path, capsys):
    path = write_dataset(tmp_path, sphere_data(0, 1))
    code, out, err = run_cli(capsys, "validate", path)
    assert (code, out, err) == (0, "OK\n", "")


def test_dataset_dim_outside_0_and_2_is_reported_by_validation(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text(
        serialize_dataset(sphere_data(1, 2)).replace(
            '"codim2": []',
            '"codim2": [{"dim": 1, "normal_weight": 1, "det_weight": 1, "sign": 1}]',
        ),
        encoding="utf-8",
    )
    violation = "component 2: dimension: dim must be 0 or 2, got 1\n"
    assert run_cli(capsys, "validate", str(path)) == (1, "", violation)
    for argv in (("quantize", str(path)), ("quantize", str(path), "--beta", "2")):
        expected = f"error: invalid dataset {path}:\n  {violation}"
        assert run_cli(capsys, *argv) == (1, "", expected)
    # A second codim-2 entry is numbered past the first: isolated count plus
    # its offset.
    path.write_text(
        serialize_dataset(sphere_data(1, 2)).replace(
            '"codim2": []',
            '"codim2": [{"dim": 0, "normal_weight": 1, "det_weight": 1, "sign": 1}, '
            '{"dim": 3, "normal_weight": 1, "det_weight": 1, "sign": 1}]',
        ),
        encoding="utf-8",
    )
    violation = "component 3: dimension: dim must be 0 or 2, got 3\n"
    assert run_cli(capsys, "validate", str(path)) == (1, "", violation)


def test_validate_reports_violations(tmp_path, capsys):
    bad = FixedPointData(
        half_dimension=2,
        isolated=(IsolatedFixedPoint(weights=(1, 0), det_weight=1, sign=3),),
    )
    path = write_dataset(tmp_path, bad)
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 1
    assert out == ""
    assert "zero-weight" in err
    assert "sign" in err


def test_character_report_formatting():
    assert format_character_report(LaurentPoly()) == "(zero representation)"
    assert format_character_report(LaurentPoly({3: 1, -2: -4})) == "-2: -4\n3: 1"


def test_module_entry_point():
    # The child does not see pytest's sys.path; spincut needs only src.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "spincut", "sphere", "--k", "1", "--n", "2", "--cut"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "(P_{1,2})+ = P_{0,3}, (P_{1,2})- = P_{1,-1}\n"
