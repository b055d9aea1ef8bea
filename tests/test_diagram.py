from __future__ import annotations

import re

from hypothesis import given
from hypothesis import strategies as st

from spincut.cli import render_diagram
from spincut.kostant import character_rational
from spincut.laurent import LaurentPoly
from spincut.sphere import sphere_data

TOKEN = re.compile(r"[+-]?\d+")


def diagram_positions(lines: list[str]) -> dict[int, int]:
    """Read a rendered diagram back into a weight -> multiplicity map.

    Cells are right-justified in fixed-width columns, so a label and its tick
    share their end column; whitespace details never matter.
    """
    mult_row, axis_row = lines
    ticks = {m.end(): int(m.group()) for m in TOKEN.finditer(axis_row)}
    out = {}
    for m in TOKEN.finditer(mult_row):
        column = m.end()
        assert column in ticks, f"multiplicity {m.group()} is not above a tick"
        out[ticks[column]] = int(m.group())
    return out


def axis_ticks(lines: list[str]) -> list[int]:
    return [int(m.group()) for m in TOKEN.finditer(lines[1])]


def test_sphere_0_3_diagram():
    lines = render_diagram(character_rational(sphere_data(0, 3)))
    assert axis_ticks(lines) == [0, 1, 2, 3, 4]
    assert diagram_positions(lines) == {1: 1, 2: 1, 3: 1}
    # signs are explicit in the rendering
    assert "+1" in lines[0]


def test_zero_character_diagram():
    lines = render_diagram(LaurentPoly())
    assert axis_ticks(lines) == [-1, 0, 1]
    assert lines[0] == ""


def test_exact_layout_of_small_diagram():
    lines = render_diagram(character_rational(sphere_data(0, 3)))
    assert lines == ["    +1 +1 +1", "  0  1  2  3  4"]


def test_negative_multiplicities_render_with_sign():
    lines = render_diagram(LaurentPoly({1: -1, 2: -1}))
    assert diagram_positions(lines) == {1: -1, 2: -1}
    assert "-1" in lines[0]


def test_wide_labels_stay_aligned():
    char = LaurentPoly({9: -1, 10: 12, -3: 4})
    lines = render_diagram(char)
    assert axis_ticks(lines) == list(range(-4, 12))
    assert diagram_positions(lines) == {-3: 4, 9: -1, 10: 12}


characters = st.dictionaries(
    st.integers(-30, 30), st.integers(-99, 99).filter(bool), max_size=8
).map(LaurentPoly)


@given(characters)
def test_rendering_parses_back(char):
    lines = render_diagram(char)
    assert diagram_positions(lines) == dict(char.items())
    support = char.support()
    if support:
        assert axis_ticks(lines) == list(range(support[0] - 1, support[-1] + 2))
