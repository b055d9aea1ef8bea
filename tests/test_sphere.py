from __future__ import annotations

from spincut.cutting import ReducedComponent, build_cut_data
from spincut.kostant import character_rational, multiplicity
from spincut.sphere import closed_form_multiplicity, cut_identity, label, sphere_data

from .generators import canonical_cut_spec


def test_sphere_data_examples():
    data = sphere_data(0, 1)
    assert data.half_dimension == 1
    assert [p.det_weight for p in data.isolated] == [3, 1]
    assert [p.sign for p in data.isolated] == [1, -1]
    assert all(p.weights == (1,) for p in data.isolated)

    flat = sphere_data(0, 0)
    assert [p.det_weight for p in flat.isolated] == [1, 1]
    assert not character_rational(flat)

    twisted = sphere_data(1, -3)
    assert [p.det_weight for p in twisted.isolated] == [-3, 3]


def test_closed_form_examples():
    assert closed_form_multiplicity(0, 2, 2) == 1
    assert closed_form_multiplicity(2, -3, 0) == -1
    assert closed_form_multiplicity(5, 7, 5) == 0


def test_cut_identity_examples():
    assert cut_identity(1, 2) == ((0, 3), (1, -1))
    assert cut_identity(0, 0) == ((0, 0), (0, 0))
    assert cut_identity(-2, 5) == ((0, 3), (-2, 2))


def test_canonical_cut_spec_shape():
    spec = canonical_cut_spec()
    assert spec.assignments == ((0, "plus"), (1, "minus"))
    assert spec.reduced == (ReducedComponent(dim=0),)


def test_labels():
    assert label(1, 2) == "P_{1,2}"
    assert label(-2, 5) == "P_{-2,5}"


def test_closed_form_matches_both_engines_on_small_grid():
    for k in range(-3, 4):
        for n in range(-3, 4):
            data = sphere_data(k, n)
            char = character_rational(data)
            for beta in range(-15, 16):
                expected = closed_form_multiplicity(k, n, beta)
                assert multiplicity(data, beta) == expected
                assert char.multiplicity(beta) == expected


def test_cutting_reproduces_the_catalogue_identity():
    for k in range(-3, 4):
        for n in range(-3, 4):
            plus, minus = build_cut_data(sphere_data(k, n), canonical_cut_spec())
            (pk, pn), (mk, mn) = cut_identity(k, n)
            assert character_rational(plus) == character_rational(sphere_data(pk, pn))
            assert character_rational(minus) == character_rational(sphere_data(mk, mn))


def test_catalogue_additivity():
    for k in range(-10, 11):
        for n in range(-10, 11):
            whole = character_rational(sphere_data(k, n))
            (pk, pn), (mk, mn) = cut_identity(k, n)
            plus = character_rational(sphere_data(pk, pn))
            minus = character_rational(sphere_data(mk, mn))
            assert whole == plus + minus
