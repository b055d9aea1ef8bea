"""JSON documents for datasets and cut specifications.

Both formats are plain UTF-8 JSON.  Serialization is canonical (fixed key
order, two-space indent, trailing newline) so equal values always produce
byte-identical documents.

Dataset schema:
    {"half_dimension": int,
     "isolated": [{"weights": [int...], "det_weight": int, "sign": int}...],
     "codim2":   [{"dim": 0|2, "normal_weight": int, "det_weight": int,
                   "sign": int, "chern_L": int?, "chern_N": int?}...]}

Cut specification schema:
    {"assignments": {"<component index>": "plus"|"minus"},
     "reduced": [{"dim": 0} | {"dim": 2, "chern_Lred": int, "chern_Nminus": int}]}

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
from typing import Any

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


def _require_object(value: Any, path: str, allowed: set[str]) -> dict:
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


def _require_int(obj: dict, path: str, key: str) -> int:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return _optional_int(obj, path, key)


def _optional_int(obj: dict, path: str, key: str) -> int | None:
    return _integer(obj[key], f"{path}.{key}") if key in obj else None


def _require_list(obj: dict, path: str, key: str) -> list:
    if key not in obj:
        return []
    value = obj[key]
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", f"expected a list, got {type(value).__name__}")
    return value


def parse_dataset(text: str | bytes) -> FixedPointData:
    """Parse a dataset document into FixedPointData (types checked, not semantics)."""
    doc = _require_object(
        _load_json(text), "dataset", {"half_dimension", "isolated", "codim2"}
    )
    half_dimension = _require_int(doc, "dataset", "half_dimension")
    isolated = []
    for i, entry in enumerate(_require_list(doc, "dataset", "isolated")):
        path = f"isolated[{i}]"
        entry = _require_object(entry, path, {"weights", "det_weight", "sign"})
        if "weights" not in entry or not isinstance(entry["weights"], list):
            raise SchemaError(f"{path}.weights", "expected a list of integers")
        weights = tuple(
            _integer(w, f"{path}.weights[{j}]") for j, w in enumerate(entry["weights"])
        )
        isolated.append(
            IsolatedFixedPoint(
                weights=weights,
                det_weight=_require_int(entry, path, "det_weight"),
                sign=_require_int(entry, path, "sign"),
            )
        )
    codim2 = []
    for i, entry in enumerate(_require_list(doc, "dataset", "codim2")):
        path = f"codim2[{i}]"
        entry = _require_object(
            entry, path, {"dim", "normal_weight", "det_weight", "sign", "chern_L", "chern_N"}
        )
        codim2.append(
            Codim2Component(
                dim=_require_int(entry, path, "dim"),
                normal_weight=_require_int(entry, path, "normal_weight"),
                det_weight=_require_int(entry, path, "det_weight"),
                sign=_require_int(entry, path, "sign"),
                chern_l=_optional_int(entry, path, "chern_L"),
                chern_n=_optional_int(entry, path, "chern_N"),
            )
        )
    return FixedPointData(
        half_dimension=half_dimension,
        isolated=tuple(isolated),
        codim2=tuple(codim2),
    )


def serialize_dataset(data: FixedPointData) -> str:
    """Canonical document for a dataset; parse_dataset inverts it exactly."""
    doc: dict[str, Any] = {
        "half_dimension": data.half_dimension,
        "isolated": [
            {
                "weights": list(p.weights),
                "det_weight": p.det_weight,
                "sign": p.sign,
            }
            for p in data.isolated
        ],
        "codim2": [],
    }
    for comp in data.codim2:
        entry: dict[str, Any] = {
            "dim": comp.dim,
            "normal_weight": comp.normal_weight,
            "det_weight": comp.det_weight,
            "sign": comp.sign,
        }
        if comp.chern_l is not None:
            entry["chern_L"] = comp.chern_l
        if comp.chern_n is not None:
            entry["chern_N"] = comp.chern_n
        doc["codim2"].append(entry)
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
    reduced = []
    for i, entry in enumerate(_require_list(doc, "cutspec", "reduced")):
        path = f"reduced[{i}]"
        entry = _require_object(entry, path, {"dim", "chern_Lred", "chern_Nminus"})
        reduced.append(
            ReducedComponent(
                dim=_require_int(entry, path, "dim"),
                chern_lred=_optional_int(entry, path, "chern_Lred"),
                chern_nminus=_optional_int(entry, path, "chern_Nminus"),
            )
        )
    return CutSpecification(assignments=assignments, reduced=tuple(reduced))


def serialize_cut_spec(spec: CutSpecification) -> str:
    """Canonical document for a cut specification."""
    doc: dict[str, Any] = {
        "assignments": {
            str(index): side for index, side in spec.assignments
        },
        "reduced": [],
    }
    for comp in spec.reduced:
        entry: dict[str, Any] = {"dim": comp.dim}
        if comp.chern_lred is not None:
            entry["chern_Lred"] = comp.chern_lred
        if comp.chern_nminus is not None:
            entry["chern_Nminus"] = comp.chern_nminus
        doc["reduced"].append(entry)
    return json.dumps(doc, indent=2) + "\n"
