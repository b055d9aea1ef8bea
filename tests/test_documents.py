from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincut import documents
from spincut.cutting import CutSpecification, ReducedComponent, build_cut_data
from spincut.documents import (
    DocumentSyntaxError,
    SchemaError,
    parse_cut_spec,
    parse_dataset,
    serialize_cut_spec,
    serialize_dataset,
)
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    validate,
)
from spincut.sphere import sphere_data

from .generators import cut_case, random_polarized_dataset

SPHERE_TEXT = """\
{
  "half_dimension": 1,
  "isolated": [
    {
      "weights": [
        1
      ],
      "det_weight": 7,
      "sign": 1
    },
    {
      "weights": [
        1
      ],
      "det_weight": 3,
      "sign": -1
    }
  ],
  "codim2": []
}
"""


def test_parse_dataset_example():
    data = parse_dataset(SPHERE_TEXT)
    assert data == FixedPointData(
        half_dimension=1,
        isolated=(
            IsolatedFixedPoint(weights=(1,), det_weight=7, sign=1),
            IsolatedFixedPoint(weights=(1,), det_weight=3, sign=-1),
        ),
    )


def test_serialize_then_parse_is_identity():
    rng = random.Random(23)
    for _ in range(50):
        data = random_polarized_dataset(rng)
        assert parse_dataset(serialize_dataset(data)) == data


def test_parse_then_serialize_is_byte_identity():
    assert serialize_dataset(parse_dataset(SPHERE_TEXT)) == SPHERE_TEXT


def test_codim2_round_trip_includes_chern_fields():
    data = FixedPointData(
        half_dimension=2,
        codim2=(
            Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=2, chern_n=1),
            Codim2Component(dim=0, normal_weight=3, det_weight=1, sign=-1),
        ),
    )
    text = serialize_dataset(data)
    assert '"chern_L": 2' in text
    assert '"chern_N": 1' in text
    assert parse_dataset(text) == data


def test_dim0_serialization_omits_chern_keys():
    data = FixedPointData(
        half_dimension=1,
        codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1),),
    )
    text = serialize_dataset(data)
    assert "chern_L" not in text
    assert "chern_N" not in text


def test_missing_half_dimension():
    with pytest.raises(SchemaError) as exc:
        parse_dataset('{"isolated": [], "codim2": []}')
    assert exc.value.field.endswith("half_dimension")


def test_wrong_type_for_weights():
    text = '{"half_dimension": 1, "isolated": [{"weights": 1, "det_weight": 1, "sign": 1}], "codim2": []}'
    with pytest.raises(SchemaError):
        parse_dataset(text)


def test_component_lists_are_optional_lists():
    assert parse_dataset('{"half_dimension": 1}') == FixedPointData(half_dimension=1)
    for key in ("isolated", "codim2"):
        with pytest.raises(SchemaError) as exc:
            parse_dataset(f'{{"half_dimension": 1, "{key}": {{}}}}')
        assert exc.value.field == f"dataset.{key}"


def test_unknown_key_rejected():
    text = '{"half_dimension": 1, "isolated": [], "codim2": [], "extra": 0}'
    with pytest.raises(SchemaError) as exc:
        parse_dataset(text)
    assert "extra" in str(exc.value)


def test_bool_is_not_an_integer():
    text = '{"half_dimension": true, "isolated": [], "codim2": []}'
    with pytest.raises(SchemaError):
        parse_dataset(text)


def test_codim2_dim_restricted():
    # The parser reads any integer dim; validate is the one home of the rule.
    text = (
        '{"half_dimension": 1, "isolated": [], "codim2": '
        '[{"dim": 1, "normal_weight": 1, "det_weight": 1, "sign": 1}]}'
    )
    data = parse_dataset(text)
    assert data.codim2[0].dim == 1
    assert [(v.component, v.rule) for v in validate(data)] == [(0, "dimension")]


def test_top_level_must_be_object():
    with pytest.raises(SchemaError):
        parse_dataset("[1, 2]")


def test_syntax_error_carries_position():
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_dataset("{\n  bad\n}")
    assert exc.value.line == 2
    assert exc.value.column >= 1


def test_undecodable_byte_is_a_syntax_error_at_its_position():
    for raw, position in (
        (b"\xff", (1, 1)),
        (SPHERE_TEXT.encode("utf-8") + b"\xff", (SPHERE_TEXT.count("\n") + 1, 1)),
        # columns count characters, so the two-byte \u00e9 takes one
        ('{\n  "h\u00e9": '.encode("utf-8") + b"\xfe}", (2, 9)),
    ):
        with pytest.raises(DocumentSyntaxError, match="is not UTF-8") as exc:
            parse_dataset(raw)
        assert (exc.value.line, exc.value.column) == position
    with pytest.raises(DocumentSyntaxError, match="byte 0xfe"):
        parse_cut_spec(b'{"assignments": {"0": "plus\xfe"}}')


def test_integer_over_the_digit_limit_is_a_syntax_error():
    # The interpreter's int-digit limit stays the size guard (4300 by default).
    digits = "7" * 5001
    text = '{\n  "half_dimension": 1,\n  "isolated": [{"det_weight": ' + digits + "}]}"
    with pytest.raises(DocumentSyntaxError, match="integer longer than") as exc:
        parse_dataset(text)
    assert (exc.value.line, exc.value.column) == (3, 31)
    with pytest.raises(DocumentSyntaxError, match="integer longer than") as exc:
        parse_dataset(text.replace(digits, "-" + digits).encode("utf-8"))
    assert (exc.value.line, exc.value.column) == (3, 31)
    # Long fractions are floats, not integers; the error points past them.
    text = '{"x": [0.' + digits + ", " + digits + "]}"
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_cut_spec(text)
    assert exc.value.column == text.rindex(digits) + 1


def test_nesting_past_the_recursion_limit_is_a_syntax_error():
    # Brackets inside strings, escaped quotes included, do not count.
    text = '{"isolated": [' + '{"[\\"": ' * 5000 + "[[1]]" + "}" * 5000 + "]}"
    with pytest.raises(DocumentSyntaxError, match="nested 5004 levels deep") as exc:
        parse_dataset(text)
    assert (exc.value.line, exc.value.column) == (1, text.index("[[1]]") + 2)


def test_a_key_given_twice_is_a_schema_error():
    text = SPHERE_TEXT.replace('"sign": 1', '"sign": 1, "sign": -1', 1)
    with pytest.raises(SchemaError, match="key given twice") as exc:
        parse_dataset(text)
    assert exc.value.field == '"sign"'
    # The inner object closes, and is rejected, before the long integer.
    text = '{"reduced": [{"dim": 0, "dim": 0}], "x": ' + "7" * 5001 + "}"
    with pytest.raises(SchemaError, match="key given twice"):
        parse_cut_spec(text)


CUT_TEXT = """\
{
  "assignments": {
    "0": "plus",
    "1": "minus"
  },
  "reduced": [
    {
      "dim": 0
    }
  ]
}
"""


def test_parse_cut_spec_example():
    spec = parse_cut_spec(CUT_TEXT)
    assert spec.assignments == ((0, "plus"), (1, "minus"))
    assert spec.reduced == (ReducedComponent(dim=0),)


def test_cut_spec_byte_round_trip():
    assert serialize_cut_spec(parse_cut_spec(CUT_TEXT)) == CUT_TEXT


def test_cut_spec_dim2_round_trip():
    spec = CutSpecification(
        assignments={2: "minus", 0: "plus"},
        reduced=(ReducedComponent(dim=2, chern_lred=1, chern_nminus=-1),),
    )
    text = serialize_cut_spec(spec)
    assert '"chern_Lred": 1' in text
    assert '"chern_Nminus": -1' in text
    parsed = parse_cut_spec(text)
    assert parsed == spec
    # assignments serialize sorted by component index
    assert text.index('"0"') < text.index('"2"')


def test_cut_spec_round_trip_on_generated_cases():
    rng = random.Random(31)
    for _ in range(50):
        _, spec = cut_case(rng)
        assert parse_cut_spec(serialize_cut_spec(spec)) == spec


def test_cut_spec_rejects_bad_side():
    # The parser passes the side through; the cut builder refuses it.
    spec = parse_cut_spec('{"assignments": {"0": "left"}, "reduced": []}')
    assert spec.assignments == ((0, "left"),)
    message = """assignments.0: side must be "plus" or "minus", got 'left'"""
    with pytest.raises(InvalidDataError) as exc:
        build_cut_data(sphere_data(0, 1), spec)
    assert str(exc.value) == message


def test_cut_spec_rejects_an_index_given_twice():
    # CutSpecification refuses the repeat, whichever way the index is spelled.
    for text, index in (
        ('{"assignments": {"0": "plus", "00": "minus"}, "reduced": []}', 0),
        ('{"assignments": {"1": "plus", "0": "plus", "01": "plus"}, "reduced": []}', 1),
    ):
        with pytest.raises(InvalidDataError, match="assigned twice") as exc:
            parse_cut_spec(text)
        assert str(exc.value) == f"assignments.{index}: component {index} is assigned twice"


def test_cut_spec_assignments_must_be_an_object():
    for text in ('{"reduced": []}', '{"assignments": [], "reduced": []}'):
        with pytest.raises(SchemaError) as exc:
            parse_cut_spec(text)
        assert str(exc.value) == "cutspec.assignments: expected an object"


def test_cut_spec_rejects_non_integer_index():
    # int() alone would read "1_0", " 2 ", "+3" and "\u0661" as 10, 2, 3 and 1.
    for key in ("a", "1_0", " 2 ", "+3", "\u0661"):
        text = json.dumps({"assignments": {key: "plus"}, "reduced": []})
        with pytest.raises(SchemaError) as exc:
            parse_cut_spec(text)
        assert str(exc.value) == f"assignments.{key}: component index must be an integer"
    text = '{"assignments": {"-0": "plus", "12": "minus"}, "reduced": []}'
    assert parse_cut_spec(text).assignments == ((0, "plus"), (12, "minus"))


def test_cut_spec_rejects_unknown_reduced_keys():
    with pytest.raises(SchemaError):
        parse_cut_spec('{"assignments": {}, "reduced": [{"dim": 0, "x": 1}]}')


def test_cut_spec_parsing_leaves_semantics_to_the_cut_builder():
    # missing Chern fields are a build_cut_data error, not a schema error
    spec = parse_cut_spec('{"assignments": {}, "reduced": [{"dim": 2}]}')
    assert spec.reduced == (ReducedComponent(dim=2),)
    with pytest.raises(SchemaError):
        parse_cut_spec('{"assignments": {}, "reduced": [{"dim": 2, "chern_Lred": "x"}]}')


# Every key of the three record types: (list it sits in, key, required).
RECORD_KEYS = [
    ("isolated", "weights", True),
    ("isolated", "det_weight", True),
    ("isolated", "sign", True),
    ("codim2", "dim", True),
    ("codim2", "normal_weight", True),
    ("codim2", "det_weight", True),
    ("codim2", "sign", True),
    ("codim2", "chern_L", False),
    ("codim2", "chern_N", False),
    ("reduced", "dim", True),
    ("reduced", "chern_Lred", False),
    ("reduced", "chern_Nminus", False),
]
GOOD_RECORDS = {
    "isolated": {"weights": [1, -2], "det_weight": 1, "sign": 1},
    "codim2": {
        "dim": 2,
        "normal_weight": 1,
        "det_weight": 1,
        "sign": -1,
        "chern_L": 2,
        "chern_N": 0,
    },
    "reduced": {"dim": 2, "chern_Lred": 1, "chern_Nminus": 0},
}


def test_record_keys_are_pinned_as_data():
    # _KEYS is read from the record fields, so a renamed field fails here
    # instead of silently changing the file format.
    kinds = {"isolated": IsolatedFixedPoint, "codim2": Codim2Component, "reduced": ReducedComponent}
    assert list(documents._KEYS) == list(kinds.values())
    table = [
        (list_key, key, required)
        for list_key, kind in kinds.items()
        for key, required in documents._KEYS[kind].items()
    ]
    assert table == RECORD_KEYS


def _parse_with_second_record(list_key: str, record: dict):
    # The faulty record sits at index 1, behind a good one.
    entries = [GOOD_RECORDS[list_key], record]
    if list_key == "reduced":
        return parse_cut_spec(json.dumps({"assignments": {}, "reduced": entries}))
    return parse_dataset(json.dumps({"half_dimension": 2, list_key: entries}))


def _schema_error(list_key: str, record: dict) -> str:
    with pytest.raises(SchemaError) as exc:
        _parse_with_second_record(list_key, record)
    return str(exc.value)


@pytest.mark.parametrize("list_key, key, required", RECORD_KEYS)
def test_every_record_field_error_is_pinned(list_key, key, required):
    field = f"{list_key}[1].{key}"
    good = GOOD_RECORDS[list_key]
    without = {k: v for k, v in good.items() if k != key}
    if key == "weights":
        not_a_list = f"{field}: expected a list of integers"
        assert _schema_error(list_key, without) == not_a_list
        for value in ("1", True, 1.0, 1, {"0": 1}):
            assert _schema_error(list_key, {**good, key: value}) == not_a_list
        for value, shown in (("1", "'1'"), (True, "True"), (1.5, "1.5"), (None, "None")):
            message = f"{field}[1]: expected an integer, got {shown}"
            assert _schema_error(list_key, {**good, key: [1, value]}) == message
    else:
        for value, shown in (("1", "'1'"), (True, "True"), (False, "False"), (1.0, "1.0")):
            message = f"{field}: expected an integer, got {shown}"
            assert _schema_error(list_key, {**good, key: value}) == message
        if required:
            assert _schema_error(list_key, without) == f"{field}: required field is missing"
        else:
            # An optional key left out reads as None and is omitted on write.
            parsed = _parse_with_second_record(list_key, without)
            assert getattr(getattr(parsed, list_key)[1], key.lower()) is None
            write = serialize_cut_spec if list_key == "reduced" else serialize_dataset
            written = json.loads(write(parsed))[list_key]
            assert written == [good, without]
    # A key the record does not have, here the key with its case swapped.
    unknown = {**good, key.swapcase(): 1}
    assert _schema_error(list_key, unknown) == f"{list_key}[1].{key.swapcase()}: unknown field"


integers = st.integers(-(10**6), 10**6)
optional = st.none() | integers
weight_tuples = st.lists(integers, max_size=4).map(tuple)
datasets = st.builds(
    FixedPointData,
    half_dimension=integers,
    isolated=st.lists(
        st.builds(IsolatedFixedPoint, weight_tuples, integers, integers), max_size=3
    ).map(tuple),
    codim2=st.lists(
        st.builds(Codim2Component, integers, integers, integers, integers, optional, optional),
        max_size=3,
    ).map(tuple),
)
cut_specs = st.builds(
    CutSpecification,
    assignments=st.dictionaries(integers, st.text(max_size=6), max_size=4),
    reduced=st.lists(st.builds(ReducedComponent, integers, optional, optional), max_size=3),
)


@given(data=datasets, spec=cut_specs)
def test_parsing_checks_types_not_semantics(data, spec):
    # Well-typed but invalid values (dim 1, sign 0, odd parity, any side)
    # survive a round trip: the parser leaves every semantic rule to others.
    assert parse_dataset(serialize_dataset(data)) == data
    assert parse_cut_spec(serialize_cut_spec(spec)) == spec
