"""ASCII multiplicity diagrams: signed multiplicities above a ticked axis."""

from __future__ import annotations

from . import laurent


def render_diagram(char: laurent.LaurentPoly) -> list[str]:
    """Two rows: multiplicities with explicit signs, then integer tick labels.

    Ticks run from one below the support to one above it (around 0 for the
    zero character, whose multiplicity row is empty).  Columns share a fixed
    width, one space wider than the longest label, so every multiplicity
    lines up over its weight.  A support spanning more than
    MAX_QUOTIENT_TERMS weights raises SupportLimitError before any row is
    built.
    """
    support = char.support()
    if not support:
        ticks = [-1, 0, 1]
    elif support[-1] - support[0] + 1 > laurent.MAX_QUOTIENT_TERMS:
        raise laurent.SupportLimitError(
            f"the diagram spans more than {laurent.MAX_QUOTIENT_TERMS} weights, "
            "the output-support limit"
        )
    else:
        ticks = list(range(support[0] - 1, support[-1] + 2))
    mults = {w: format(char.multiplicity(w), "+d") for w in support}
    labels = [str(t) for t in ticks] + list(mults.values())
    width = 1 + max(len(text) for text in labels)
    mult_row = "".join(mults.get(t, "").rjust(width) for t in ticks).rstrip()
    axis_row = "".join(str(t).rjust(width) for t in ticks)
    return [mult_row, axis_row]
