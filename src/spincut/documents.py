"""JSON documents for datasets and cut specifications.

Both formats are plain UTF-8 JSON.  Serialization is canonical (fixed key
order, two-space indent, trailing newline) so equal values always produce
byte-identical documents.

Dataset schema:
    {"half_dimension": int, "isolated": [record...], "codim2": [record...]}

Cut specification schema:
    {"assignments": {"<component index>": "plus"|"minus"}, "reduced": [record...]}

A record is an IsolatedFixedPoint, Codim2Component or ReducedComponent.  The
table _KEYS is the one home of each record's key names, their order and which
are optional; one reader and one writer serve all three.

Parsing checks structure and types only (a key given twice in one object is a
structural error).  Every other rule has one home: fixed_points.validate owns
parity, signs, dims and Chern fields of a dataset; CutSpecification refuses a
repeated component index; cutting.build_cut_data owns sides, index coverage
and the reduced components.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Any, Container

from .cutting import CutSpecification, ReducedComponent
from .fixed_points import Codim2Component, FixedPointData, IsolatedFixedPoint


class DocumentSyntaxError(ValueError):
    """The text is not well-formed JSON; carries line and column."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaError(ValueError):
    """The document shape is wrong; carries the offending field path."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


def _error_at(text: str, offset: int, message: str) -> DocumentSyntaxError:
    line = text.count("\n", 0, offset) + 1
    return DocumentSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


def _load_json(text: str | bytes) -> Any:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = text[: exc.start].decode("utf-8")
            message = f"byte 0x{text[exc.start]:02x} is not UTF-8"
            raise _error_at(before, len(before), message) from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:
        offset, depth = _deepest_bracket(text)
        message = f"nested {depth} levels deep, past the parser's recursion limit"
        raise _error_at(text, offset, message) from exc
    except SchemaError:  # a repeated key, from _unique_keys
        raise
    except ValueError as exc:
        # The interpreter's limit on int digits guards against huge numbers;
        # point at the first run of more digits than that which is not the
        # fraction or exponent of a float.
        limit = sys.get_int_max_str_digits()
        found = re.search(r"(?<![\d.eE+-])-?\d{%d,}" % (limit + 1), text)
        if found is None:
            raise
        raise _error_at(text, found.start(), f"integer longer than {limit} digits") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(json.dumps(key), "key given twice in one object")
            seen.add(key)
    return obj


def _deepest_bracket(text: str) -> tuple[int, int]:
    # Offset and depth of the most deeply nested bracket outside strings.
    depth = deepest = offset = 0
    for token in re.finditer(r'"(?:[^"\\]|\\.)*"|[\[{\]}]', text):
        if token.group() in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, offset = depth, token.start()
        elif token.group() in ("]", "}"):
            depth -= 1
    return offset, deepest


def _require_object(value: Any, path: str, allowed: Container[str]) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise SchemaError(f"{path}.{key}", "unknown field")
    return value


def _integer(value: Any, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(field, f"expected an integer, got {value!r}")
    return value


def _require_list(obj: dict, path: str, key: str) -> list:
    if key not in obj:
        return []
    value = obj[key]
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", f"expected a list, got {type(value).__name__}")
    return value


# The one home of each record's JSON keys: in the order of the record's
# dataclass fields, which is also the canonical order on write, each marked
# required (True) or optional (False).  An optional key reads as None when
# absent and is left out on write when None.  "weights" is the one key whose
# value is a list of integers; every other value is one integer.
_KEYS: dict[type, dict[str, bool]] = {
    IsolatedFixedPoint: {"weights": True, "det_weight": True, "sign": True},
    Codim2Component: {
        "dim": True,
        "normal_weight": True,
        "det_weight": True,
        "sign": True,
        "chern_L": False,
        "chern_N": False,
    },
    ReducedComponent: {"dim": True, "chern_Lred": False, "chern_Nminus": False},
}


def _records(doc: dict, path: str, key: str, kind: type) -> tuple:
    # Each entry of the list doc[key] becomes kind(*values), in _KEYS order.
    keys = _KEYS[kind]
    records = []
    for i, entry in enumerate(_require_list(doc, path, key)):
        where = f"{key}[{i}]"
        entry = _require_object(entry, where, keys)
        values = []
        for name, required in keys.items():
            field = f"{where}.{name}"
            if name == "weights":
                weights = entry.get(name)
                if not isinstance(weights, list):
                    raise SchemaError(field, "expected a list of integers")
                items = enumerate(weights)
                values.append(tuple(_integer(w, f"{field}[{j}]") for j, w in items))
            elif name in entry:
                values.append(_integer(entry[name], field))
            elif required:
                raise SchemaError(field, "required field is missing")
            else:
                values.append(None)
        records.append(kind(*values))
    return tuple(records)


def _entry(record: Any) -> dict[str, Any]:
    # A dataclass instance's __dict__ holds its fields in declaration order.
    pairs = zip(_KEYS[type(record)].items(), vars(record).values())
    return {name: value for (name, required), value in pairs if required or value is not None}


def parse_dataset(text: str | bytes) -> FixedPointData:
    """Parse a dataset document into FixedPointData (types checked, not semantics)."""
    doc = _require_object(
        _load_json(text), "dataset", {"half_dimension", "isolated", "codim2"}
    )
    if "half_dimension" not in doc:
        raise SchemaError("dataset.half_dimension", "required field is missing")
    return FixedPointData(
        half_dimension=_integer(doc["half_dimension"], "dataset.half_dimension"),
        isolated=_records(doc, "dataset", "isolated", IsolatedFixedPoint),
        codim2=_records(doc, "dataset", "codim2", Codim2Component),
    )


def serialize_dataset(data: FixedPointData) -> str:
    """Canonical document for a dataset; parse_dataset inverts it exactly."""
    doc = {
        "half_dimension": data.half_dimension,
        "isolated": [_entry(point) for point in data.isolated],
        "codim2": [_entry(comp) for comp in data.codim2],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_cut_spec(text: str | bytes) -> CutSpecification:
    """Parse a cut specification document (types checked, not semantics).

    A repeated component index, under any spelling, raises InvalidDataError
    from CutSpecification.
    """
    doc = _require_object(_load_json(text), "cutspec", {"assignments", "reduced"})
    if "assignments" not in doc or not isinstance(doc["assignments"], dict):
        raise SchemaError("cutspec.assignments", "expected an object")
    assignments = []
    for key, side in doc["assignments"].items():
        try:
            assignments.append((int(key), side))
        except ValueError:
            path = f"assignments.{key}"
            raise SchemaError(path, "component index must be an integer") from None
    reduced = _records(doc, "cutspec", "reduced", ReducedComponent)
    return CutSpecification(assignments=assignments, reduced=reduced)


def serialize_cut_spec(spec: CutSpecification) -> str:
    """Canonical document for a cut specification."""
    doc = {
        "assignments": {str(index): side for index, side in spec.assignments},
        "reduced": [_entry(comp) for comp in spec.reduced],
    }
    return json.dumps(doc, indent=2) + "\n"
