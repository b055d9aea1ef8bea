"""Fuzzing the command line in process: every input ends in a documented exit.

Arbitrary bytes and schema-shaped JSON documents go through every file-reading
command.  Whatever the input, main must return 0, 1, 2 or 3 without letting an
exception escape, and a failing command other than validate must say why on
one stderr line that starts with "error: ".  The size bounds keep every engine
call fast, so the run time stays bounded.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spincut.cli import main
from spincut.documents import serialize_cut_spec, serialize_dataset
from spincut.sphere import sphere_data

from .generators import canonical_cut_spec

SMALL = st.integers(-6, 6)
WRONG = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=2),
    st.just(1.5),
    st.lists(SMALL, max_size=2),
    st.just({}),
)
MISSING = object()


def mostly(good: st.SearchStrategy, other: st.SearchStrategy) -> st.SearchStrategy:
    # Nine draws in ten from good, so that many documents pass validation.
    return st.integers(0, 9).flatmap(lambda r: other if r == 0 else good)


NONZERO = mostly(SMALL.filter(bool), SMALL)
SIGN = mostly(st.sampled_from([1, -1]), SMALL)
SIDE = mostly(st.sampled_from(["plus", "minus"]), WRONG)


def field(values, noise: int) -> st.SearchStrategy:
    # A field is missing, or of a wrong type, noise times in 20 each.
    return st.integers(0, 19).flatmap(
        lambda r: st.just(MISSING) if r < noise else WRONG if r < 2 * noise else values
    )


def document(noise: int, **fields) -> st.SearchStrategy:
    return st.fixed_dictionaries({k: field(v, noise) for k, v in fields.items()}).map(
        lambda doc: {key: value for key, value in doc.items() if value is not MISSING}
    )


def det_weight(*weights: int) -> st.SearchStrategy:
    return mostly(st.integers(-3, 3).map(lambda k: sum(weights) + 2 * k), SMALL)


@st.composite
def isolated_entry(draw, m: int, noise: int) -> dict:
    weights = draw(
        mostly(st.lists(NONZERO, min_size=m, max_size=m), st.lists(SMALL, max_size=3))
    )
    return draw(
        document(noise, weights=st.just(weights), det_weight=det_weight(*weights), sign=SIGN)
    )


@st.composite
def codim2_entry(draw, m: int, noise: int) -> dict:
    dim = draw(mostly(st.just(2 if m == 2 else 0), SMALL))
    normal = draw(NONZERO)
    chern = SMALL if dim == 2 else st.just(MISSING)
    return draw(
        document(
            noise,
            dim=st.just(dim),
            normal_weight=st.just(normal),
            det_weight=det_weight(normal),
            sign=SIGN,
            chern_L=chern,
            chern_N=chern,
        )
    )


@st.composite
def dataset_and_spec(draw) -> tuple[dict, dict]:
    noise = draw(st.sampled_from([0, 0, 1, 3]))
    m = draw(mostly(st.integers(1, 3), st.just(0)))
    dataset = draw(
        document(
            noise,
            half_dimension=st.just(m),
            isolated=st.lists(isolated_entry(m, noise), max_size=4),
            codim2=st.lists(codim2_entry(m, noise), max_size=3),
        )
    )
    count = sum(
        len(dataset[key]) for key in ("isolated", "codim2") if isinstance(dataset.get(key), list)
    )
    covering = st.fixed_dictionaries({str(i): SIDE for i in range(count)})
    junk = st.dictionaries(st.sampled_from(["0", "1", "7", "-1", "00", " 1", "a"]), SIDE)
    dim = mostly(st.just(2 if m == 2 else 0), SMALL)
    reduced = st.lists(
        document(noise, dim=dim, chern_Lred=SMALL, chern_Nminus=SMALL), max_size=2
    )
    spec = draw(
        document(noise, assignments=st.one_of(covering, junk), reduced=reduced)
    )
    return dataset, spec


def _run(*argv: str) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stderr.getvalue()


def _commands(data: str, spec: str, outs: str, beta: int) -> list[list[str]]:
    plus, minus = f"{outs}/plus.json", f"{outs}/minus.json"
    return [
        ["validate", data],
        ["quantize", data],
        ["quantize", data, "--diagram"],
        ["quantize", data, f"--beta={beta}"],
        ["cut", data, spec, "--out-plus", plus, "--out-minus", minus],
        ["check-additivity", data, spec],
    ]


def _check_every_command(data: str, spec: str, outs: str, beta: int) -> None:
    for argv in _commands(data, spec, outs, beta):
        code, err = _run(*argv)
        assert type(code) is int and code in (0, 1, 2, 3), (argv, code)
        if code and argv[0] != "validate":
            assert err.startswith("error: "), (argv, err)


FUZZ = settings(max_examples=200, deadline=None)


@FUZZ
@given(raw=st.binary(max_size=64), beta=st.integers(-20, 20))
def test_arbitrary_bytes_end_in_a_documented_exit(raw, beta):
    with tempfile.TemporaryDirectory() as work:
        good_data, good_spec = Path(work, "good.json"), Path(work, "good_spec.json")
        good_data.write_text(serialize_dataset(sphere_data(1, 2)), encoding="utf-8")
        good_spec.write_text(serialize_cut_spec(canonical_cut_spec()), encoding="utf-8")
        fuzzed = Path(work, "fuzzed.json")
        fuzzed.write_bytes(raw)
        _check_every_command(str(fuzzed), str(good_spec), work, beta)
        _check_every_command(str(good_data), str(fuzzed), work, beta)


@FUZZ
@given(case=dataset_and_spec(), beta=st.integers(-20, 20))
def test_schema_shaped_documents_end_in_a_documented_exit(case, beta):
    dataset, spec = case
    with tempfile.TemporaryDirectory() as work:
        data_path, spec_path = Path(work, "data.json"), Path(work, "spec.json")
        data_path.write_text(json.dumps(dataset), encoding="utf-8")
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        _check_every_command(str(data_path), str(spec_path), work, beta)
