from __future__ import annotations

import random

import pytest

from spincut.cutting import (
    AdditivityRow,
    CutSpecification,
    ReducedComponent,
    build_cut_data,
    check_additivity,
)
from spincut.documents import serialize_cut_spec
from spincut.fixed_points import (
    Codim2Component,
    FixedPointData,
    InvalidDataError,
    IsolatedFixedPoint,
    validate,
)
from spincut.kostant import character_rational, multiplicity
from spincut.laurent import LaurentPoly, NotDivisibleError
from spincut.sphere import sphere_data

from .generators import canonical_cut_spec, closed_form, cut_case


def test_build_cut_data_sphere_example():
    plus, minus = build_cut_data(sphere_data(1, 2), canonical_cut_spec())
    assert plus == FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=7, sign=1),),
        codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=-1),),
    )
    assert minus == FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=3, sign=-1),),
        codim2=(Codim2Component(dim=0, normal_weight=1, det_weight=1, sign=1),),
    )


def test_build_cut_data_empty():
    empty = FixedPointData(half_dimension=1)
    plus, minus = build_cut_data(empty, CutSpecification(assignments={}))
    assert plus == empty
    assert minus == empty


def test_zero_structure_cut_characters_cancel():
    plus, minus = build_cut_data(sphere_data(0, 0), canonical_cut_spec())
    total = character_rational(plus) + character_rational(minus)
    assert not total


def test_dim2_reduced_component_chern_derivation():
    data = FixedPointData(
        half_dimension=2,
        codim2=(
            Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=2, chern_n=1),
        ),
    )
    spec = CutSpecification(
        assignments={0: "plus"},
        reduced=(ReducedComponent(dim=2, chern_lred=1, chern_nminus=-1),),
    )
    plus, minus = build_cut_data(data, spec)
    expected = Codim2Component(
        dim=2, normal_weight=1, det_weight=1, sign=-1, chern_l=0, chern_n=-1
    )
    assert plus.codim2[-1] == expected
    assert minus.codim2[-1] == Codim2Component(
        dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=0, chern_n=-1
    )


def test_reduced_components_differ_only_in_sign_and_outputs_are_valid():
    rng = random.Random(41)
    for _ in range(30):
        data, spec = cut_case(rng)
        plus, minus = build_cut_data(data, spec)
        assert validate(plus) == []
        assert validate(minus) == []
        count = len(spec.reduced)
        for p, m in zip(plus.codim2[-count:], minus.codim2[-count:]):
            assert p.sign == -1 and m.sign == 1
            assert (p.dim, p.normal_weight, p.det_weight) == (m.dim, m.normal_weight, m.det_weight)
            assert (p.chern_l, p.chern_n) == (m.chern_l, m.chern_n)
            assert p.det_weight == 1 and p.normal_weight == 1


def test_reduced_contributions_cancel_exactly():
    rng = random.Random(43)
    for _ in range(30):
        data, spec = cut_case(rng)
        plus, minus = build_cut_data(data, spec)
        count = len(spec.reduced)
        for p, m in zip(plus.codim2[-count:], minus.codim2[-count:]):
            (n1, d1), (n2, d2) = closed_form(p), closed_form(m)
            assert n1 * d2 + n2 * d1 == LaurentPoly()


def test_check_additivity_sphere_table():
    data = sphere_data(1, 2)
    plus, minus = build_cut_data(data, canonical_cut_spec())
    report = check_additivity(data, plus, minus)
    assert report.holds
    assert report.rows == (
        AdditivityRow(weight=1, original=0, plus=1, minus=-1),
        AdditivityRow(weight=2, original=1, plus=1, minus=0),
        AdditivityRow(weight=3, original=1, plus=1, minus=0),
    )


def test_check_additivity_empty():
    empty = FixedPointData(half_dimension=1)
    report = check_additivity(empty, empty, empty)
    assert report.holds
    assert report.rows == ()


def test_check_additivity_detects_mismatch():
    data = sphere_data(1, 2)
    plus, _ = build_cut_data(data, canonical_cut_spec())
    report = check_additivity(data, plus, plus)
    assert not report.holds
    by_weight = {row.weight: row for row in report.rows}
    assert by_weight[1].plus == by_weight[1].minus == 1
    assert by_weight[1].original == 0


def test_check_additivity_labels_the_failing_dataset():
    good = sphere_data(0, 1)
    zero = sphere_data(0, 0)
    bad = FixedPointData(
        half_dimension=1,
        isolated=(IsolatedFixedPoint(weights=(1,), det_weight=1, sign=1),),
    )
    with pytest.raises(NotDivisibleError, match="original"):
        check_additivity(bad, good, zero)
    with pytest.raises(NotDivisibleError, match="plus"):
        check_additivity(good, bad, zero)
    with pytest.raises(NotDivisibleError, match="minus"):
        check_additivity(good, zero, bad)


def test_build_cut_data_rejects_incomplete_assignments():
    data = sphere_data(0, 1)
    with pytest.raises(InvalidDataError, match="component 1"):
        build_cut_data(data, CutSpecification(assignments={0: "plus"}))


def test_build_cut_data_rejects_unknown_index():
    data = sphere_data(0, 1)
    spec = CutSpecification(assignments={0: "plus", 1: "minus", 5: "plus"})
    with pytest.raises(InvalidDataError, match="unknown component 5"):
        build_cut_data(data, spec)


def test_build_cut_data_rejects_index_assigned_twice():
    data = sphere_data(1, 2)
    for index, side in ((0, "minus"), (1, "minus")):
        with pytest.raises(InvalidDataError, match=f"component {index} is assigned twice"):
            spec = CutSpecification(assignments=[(0, "plus"), (1, "minus"), (index, side)])
            build_cut_data(data, spec)


def test_repeated_index_with_sides_of_mixed_types_is_refused():
    # Sorting compares indices only, so the sides are never compared.
    with pytest.raises(InvalidDataError) as exc:
        CutSpecification(assignments=[(0, "plus"), (0, None)])
    assert str(exc.value) == "assignments.0: component 0 is assigned twice"


def test_repeated_index_never_reaches_a_document():
    # A spec that could be built would serialize with one side dropped.
    with pytest.raises(InvalidDataError, match="component 0 is assigned twice"):
        serialize_cut_spec(CutSpecification(assignments=[(0, "plus"), (1, "minus"), (0, "minus")]))
    # The named tuple's own constructors check it too.
    spec = CutSpecification({0: "plus", 1: "minus"})
    repeated = ((0, "plus"), (0, "minus"))
    for build in (lambda: spec._replace(assignments=repeated), lambda: spec._make((repeated, ()))):
        with pytest.raises(InvalidDataError, match="component 0 is assigned twice"):
            build()
    assert spec._replace(reduced=[]) == spec and spec._make(spec) == spec


def test_build_cut_data_rejects_bad_side():
    data = sphere_data(0, 1)
    spec = CutSpecification(assignments={0: "plus", 1: "left"})
    with pytest.raises(InvalidDataError, match="side"):
        build_cut_data(data, spec)


def test_build_cut_data_dimension_mismatches():
    surface = FixedPointData(
        half_dimension=2,
        codim2=(
            Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=0, chern_n=0),
        ),
    )
    with pytest.raises(InvalidDataError, match="requires half_dimension"):
        build_cut_data(
            surface,
            CutSpecification(assignments={0: "plus"}, reduced=(ReducedComponent(dim=0),)),
        )
    with pytest.raises(InvalidDataError, match="requires half_dimension"):
        build_cut_data(
            sphere_data(0, 1),
            CutSpecification(
                assignments={0: "plus", 1: "minus"},
                reduced=(ReducedComponent(dim=2, chern_lred=0, chern_nminus=0),),
            ),
        )


def test_build_cut_data_rejects_malformed_reduced_components():
    data = sphere_data(0, 1)
    with pytest.raises(InvalidDataError, match="Chern"):
        build_cut_data(
            data,
            CutSpecification(
                assignments={0: "plus", 1: "minus"},
                reduced=(ReducedComponent(dim=0, chern_lred=1),),
            ),
        )
    surface = FixedPointData(
        half_dimension=2,
        codim2=(
            Codim2Component(dim=2, normal_weight=1, det_weight=1, sign=1, chern_l=0, chern_n=0),
        ),
    )
    with pytest.raises(InvalidDataError, match="chern"):
        build_cut_data(
            surface,
            CutSpecification(assignments={0: "plus"}, reduced=(ReducedComponent(dim=2),)),
        )


def test_additivity_on_randomized_cut_cases():
    rng = random.Random(47)
    for _ in range(30):
        data, spec = cut_case(rng)
        plus, minus = build_cut_data(data, spec)
        report = check_additivity(data, plus, minus)
        assert report.holds


def test_counting_route_is_additive_on_randomized_cut_cases():
    # The cutting theorem through the counting engine: at every weight within
    # 3 of the three characters' joint support (of 0 where all vanish), the
    # counts of the halves add up to the dataset's, which matches the
    # rational route.
    rng = random.Random(2026)
    checked = 0
    for _ in range(200):
        data, spec = cut_case(rng)
        plus, minus = build_cut_data(data, spec)
        character = character_rational(data)
        support = set(character.support())
        for half in (plus, minus):
            support.update(character_rational(half).support())
        support = support or {0}
        for beta in range(min(support) - 3, max(support) + 4):
            total = multiplicity(plus, beta) + multiplicity(minus, beta)
            assert multiplicity(data, beta) == total == character.multiplicity(beta), beta
            checked += 1
    assert checked == 1781


def test_cut_specification_normalizes_assignments():
    spec = CutSpecification(assignments={1: "minus", 0: "plus"})
    assert spec.assignments == ((0, "plus"), (1, "minus"))
    from_pairs = CutSpecification(assignments=[(1, "minus"), (0, "plus")])
    assert from_pairs == spec
