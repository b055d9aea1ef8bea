from __future__ import annotations

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from spincut.cutting import AdditivityReport, AdditivityRow, CutSpecification, ReducedComponent
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    Violation,
    flip_codim2_signs,
    is_polarized,
    polarize,
    require_valid,
    validate,
)

from .generators import mixed_sign_variant, random_polarized_dataset, realizable_dataset


def test_valid_sphere_point_passes():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=3, sign=1),),
    )
    assert validate(data) == []
    require_valid(data)


def test_parity_violation_reported():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=2, sign=1),),
    )
    violations = validate(data)
    assert len(violations) == 1
    assert violations[0].rule == "parity"
    assert "component 0" in str(violations[0])


def test_zero_weight_rejected():
    point = FixedPointData(
        half_dimension=2,
        isolated=(IsolatedFixedPoint(weights=(1, 0), det_weight=1, sign=1),),
    )
    component = FixedPointData(
        half_dimension=1,
        codim2=(Codim2Component(dim=0, normal_weight=0, det_weight=0, sign=1),),
    )
    for data in (point, component):
        rules = {v.rule for v in validate(data)}
        assert "zero-weight" in rules


def test_weight_count_must_match_half_dimension():
    data = FixedPointData(
        half_dimension=3,
        isolated=(IsolatedFixedPoint(weights=(1, 2), det_weight=3, sign=1),),
    )
    rules = {v.rule for v in validate(data)}
    assert "weight-count" in rules


def test_half_dimension_must_be_positive():
    data = FixedPointData(half_dimension=0)
    rules = {v.rule for v in validate(data)}
    assert "half-dimension" in rules


def test_sign_must_be_unit():
    point = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=1, sign=2),),
    )
    components = [
        FixedPointData(
            half_dimension=1,
            codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=sign),),
        )
        for sign in (0, 2)
    ]
    for data in (point, *components):
        rules = {v.rule for v in validate(data)}
        assert "sign" in rules


def test_codim2_dimension_consistency():
    surface = Codim2Component(dim=2, normal_weight=1, det_weight=0, sign=1, chern_l=0, chern_n=1)
    neither = Codim2Component(dim=1, normal_weight=1, det_weight=1, sign=1)
    for comp in (surface, neither):
        data = FixedPointData(half_dimension=1, codim2=(comp,))
        rules = {v.rule for v in validate(data)}
        assert "dimension" in rules


def test_codim2_chern_fields_guarded_both_ways():
    missing = Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1)
    spurious = Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1, chern_l=0, chern_n=1)
    data = FixedPointData(half_dimension=2, codim2=(missing, spurious))
    rules = [v.rule for v in validate(data)]
    assert rules.count("chern-fields") == 2


def test_codim2_det_weight_parity():
    good = Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=2, chern_n=1)
    bad = Codim2Component(dim=2, normal_weight=1, det_weight=2, sign=1, chern_l=2, chern_n=1)
    assert validate(FixedPointData(half_dimension=2, codim2=(good,))) == []
    rules = {v.rule for v in validate(FixedPointData(half_dimension=2, codim2=(bad,)))}
    assert "parity" in rules


def test_require_valid_raises_with_violation_text():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=2, sign=1),),
    )
    with pytest.raises(InvalidDataError) as exc:
        require_valid(data)
    assert "parity" in str(exc.value)


def test_polarize_flips_negative_weight_and_sign():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(-1,), det_weight=1, sign=1),),
    )
    flipped = polarize(data)
    assert flipped.isolated[0].weights == (1,)
    assert flipped.isolated[0].sign == -1
    assert flipped.isolated[0].det_weight == 1


def test_polarize_even_flip_count_keeps_sign():
    data = FixedPointData(
        half_dimension=2,
        isolated=(IsolatedFixedPoint(weights=(-1, -2), det_weight=1, sign=1),),
    )
    flipped = polarize(data)
    assert flipped.isolated[0].weights == (1, 2)
    assert flipped.isolated[0].sign == 1


def test_polarize_single_negative_weight_example():
    data = FixedPointData(
        half_dimension=2,
        isolated=(IsolatedFixedPoint(weights=(-1, 2), det_weight=1, sign=1),),
    )
    flipped = polarize(data)
    assert flipped.isolated[0] == IsolatedFixedPoint(weights=(1, 2), det_weight=1, sign=-1)


def test_polarize_codim2_flip():
    comp = Codim2Component(dim=2, normal_weight=-2, det_weight=2, sign=1, chern_l=2, chern_n=1)
    data = FixedPointData(half_dimension=2, codim2=(comp,))
    flipped = polarize(data).codim2[0]
    assert flipped.normal_weight == 2
    assert flipped.sign == -1
    assert flipped.chern_l == 0
    assert flipped.chern_n == -1
    assert flipped.det_weight == 2


def test_polarize_is_identity_on_polarized_data():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=3, sign=1),),
        codim2=(Codim2Component(dim=0, normal_weight=2, det_weight=2, sign=-1),),
    )
    assert is_polarized(data)
    assert polarize(data) == data


def test_polarize_idempotent_and_validity_preserving():
    rng = random.Random(11)
    for _ in range(50):
        data = random_polarized_dataset(rng)
        once = polarize(data)
        assert polarize(once) == once
        assert validate(once) == []
        assert is_polarized(once)


def test_polarize_rejects_invalid_data():
    data = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=2, sign=1),),
    )
    with pytest.raises(InvalidDataError):
        polarize(data)


def test_flip_codim2_signs_example():
    iso = IsolatedFixedPoint(weights=(1,), det_weight=3, sign=1)
    point = Codim2Component(dim=0, normal_weight=-2, det_weight=2, sign=-1)
    data = FixedPointData(half_dimension=1, isolated=(iso,), codim2=(point, point))
    flipped = Codim2Component(dim=0, normal_weight=-2, det_weight=2, sign=1)
    assert flip_codim2_signs(data) == FixedPointData(1, (iso,), (flipped, flipped))
    surface = Codim2Component(2, 3, 1, 1, chern_l=-2, chern_n=3)
    assert flip_codim2_signs(FixedPointData(2, (), (surface,))).codim2 == (
        Codim2Component(2, 3, 1, -1, chern_l=-2, chern_n=3),
    )


def test_flip_codim2_signs_is_an_involution_on_signs_only():
    rng = random.Random(13)
    for _ in range(50):
        data = random_polarized_dataset(rng)
        flipped = flip_codim2_signs(data)
        assert flip_codim2_signs(flipped) == data
        assert (flipped.half_dimension, flipped.isolated) == (data.half_dimension, data.isolated)
        assert flipped.codim2 == tuple(c._replace(sign=-c.sign) for c in data.codim2)
        assert validate(flipped) == []


def test_flip_codim2_signs_commutes_with_polarize():
    rng = random.Random(19)
    for _ in range(80):
        data = mixed_sign_variant(rng, realizable_dataset(rng))
        assert polarize(flip_codim2_signs(data)) == flip_codim2_signs(polarize(data))


def test_components_ordering():
    iso = IsolatedFixedPoint(weights=(1,), det_weight=1, sign=1)
    comp = Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1)
    data = FixedPointData(half_dimension=1, isolated=(iso,), codim2=(comp,))
    assert data.components() == (iso, comp)


def _one_record_of_each_type() -> list:
    row = AdditivityRow(weight=1, original=2, plus=1, minus=1)
    return [
        IsolatedFixedPoint((1, 2), 5, -1),
        Codim2Component(2, 3, 1, 1, chern_l=-2, chern_n=3),
        FixedPointData(1, (IsolatedFixedPoint((1,), 3, 1),), (Codim2Component(0, 1, 1, -1),)),
        Violation(None, "half-dimension", "half_dimension must be >= 1, got 0"),
        ReducedComponent(2, chern_lred=1, chern_nminus=-1),
        CutSpecification({1: "minus", 0: "plus"}, (ReducedComponent(0),)),
        row,
        AdditivityReport(holds=True, rows=(row,)),
    ]


def test_records_are_frozen_values():
    records = _one_record_of_each_type()
    for record in records:
        kind = type(record)
        with pytest.raises(AttributeError):
            setattr(record, kind._fields[0], None)
        with pytest.raises(AttributeError):
            delattr(record, kind._fields[0])
        twin = kind(*(getattr(record, name) for name in kind._fields))
        assert twin == record and hash(twin) == hash(record)
        clones = (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record))
        for clone in clones:
            assert type(clone) is kind and clone == record and hash(clone) == hash(record)

    built = FixedPointData(2, [IsolatedFixedPoint([1, 2], 5, 1)], [])
    expected = FixedPointData(2, (IsolatedFixedPoint((1, 2), 5, 1),), ())
    assert built == expected and hash(built) == hash(expected)
    assert built.isolated[0].weights == (1, 2) and built.codim2 == ()
    assert expected != (2, expected.isolated, ()) and expected != CutSpecification({})

    # The repr a frozen dataclass printed, field by field.
    data, spec = records[2], records[5]
    assert repr(data) == (
        "FixedPointData(half_dimension=1, "
        "isolated=(IsolatedFixedPoint(weights=(1,), det_weight=3, sign=1),), "
        "codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=-1, "
        "chern_l=None, chern_n=None),))"
    )
    assert repr(spec) == (
        "CutSpecification(assignments=((0, 'plus'), (1, 'minus')), "
        "reduced=(ReducedComponent(dim=0, chern_lred=None, chern_nminus=None),))"
    )


def _fresh_process(child: str) -> str:
    # A fresh process without site shows what the imports themselves pull in,
    # whether or not bytecode is cached.
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", child],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.decode()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Together they cost about 14 of the 48 ms of this import.
    child = (
        "import sys\n"
        "import spincut.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    assert _fresh_process(child) == "[]\n"


def test_each_engine_is_loaded_only_when_used():
    # Compiling the engines' source is most of a fresh worker's set-up, so
    # the package loads a module only when one of its names is used, and
    # counting never loads laurent.
    child = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("spincut"))

seen = {}
import spincut
seen["package"] = loaded()
import spincut.kostant
seen["kostant"] = loaded()
from spincut.fixed_points import FixedPointData, IsolatedFixedPoint
north = IsolatedFixedPoint(weights=(1,), det_weight=5, sign=1)
south = IsolatedFixedPoint(weights=(1,), det_weight=3, sign=-1)
data = FixedPointData(half_dimension=1, isolated=(north, south))
seen["count"] = [spincut.multiplicity(data, 2), "spincut.laurent" in sys.modules]
seen["rational"] = [
    spincut.character_rational(data).items(), "spincut.laurent" in sys.modules
]
import spincut.sphere
seen["same"] = [
    spincut.character_rational is spincut.kostant.character_rational,
    spincut.multiplicity is spincut.kostant.multiplicity,
    spincut.sphere_data is spincut.sphere.sphere_data,
]
seen["cached"] = sorted(set(spincut.__all__) & set(vars(spincut)))
namespace = {}
exec("from spincut import *", namespace)
seen["star"] = sorted(set(namespace) - {"__builtins__"})
try:
    spincut.no_such_name
except AttributeError as error:
    seen["unknown"] = str(error)
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_process(child))
    assert seen["package"] == ["spincut"]
    assert seen["kostant"] == ["spincut", "spincut.fixed_points", "spincut.kostant"]
    assert seen["count"] == [1, False]
    assert seen["rational"] == [[[2, 1]], True]
    assert seen["same"] == [True, True, True]
    names = ["character_rational", "multiplicity", "sphere_data"]
    assert seen["cached"] == names
    assert seen["star"] == names
    assert seen["unknown"] == "module 'spincut' has no attribute 'no_such_name'"
    # The catalogue imports only fixed_points: counting a sphere loads
    # neither cutting nor laurent.
    child = """
import json, sys
from spincut import sphere_data
seen = {"sphere": sorted(name for name in sys.modules if name.startswith("spincut"))}
import spincut
seen["count"] = spincut.multiplicity(sphere_data(1, 2), 2)
seen["unloaded"] = sorted({"spincut.cutting", "spincut.laurent"} - set(sys.modules))
print(json.dumps(seen))
"""
    seen = json.loads(_fresh_process(child))
    assert seen["sphere"] == ["spincut", "spincut.fixed_points", "spincut.sphere"]
    assert seen["count"] == 1
    assert seen["unloaded"] == ["spincut.cutting", "spincut.laurent"]
