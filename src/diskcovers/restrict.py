"""Restrictions of a covering to the subdisk left after cutting along curves.

Cutting the base disk along the fundamental-system curves indexed by
``i_1 < ... < i_k`` leaves a covering with the same sheets and ``n - k``
branch points.  The surviving monodromies depend on which end of the cut arc
serves as the new base point:

- start base point: entries below ``i_1`` are unchanged; an entry between
  ``i_l`` and ``i_{l+1}`` is conjugated by the removed entries below it,
  nearest first; entries above ``i_k`` are conjugated by all removed entries,
  nearest first.
- end base point: symmetric, conjugating by the removed entries above,
  nearest first.

All sheets are kept, so trivial sheets show up as singleton components and
component signatures can be compared sheet by sheet.
"""

from __future__ import annotations

from .core import (
    ComponentSignature,
    MonodromySequence,
    Permutation,
    _Record,
    _product,
    _tables,
    _unpack,
    components,
)

START = "start"
END = "end"


class RestrictionSpec(_Record):
    """Which curves to cut along (sorted, 1-based) and which base point to use."""

    indices: tuple[int, ...]
    base: str

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("a restriction must remove at least one curve")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError(f"indices must be sorted and distinct: {self.indices!r}")
        if self.indices[0] < 1:
            raise ValueError("curve indices start at 1")
        if self.base not in (START, END):
            raise ValueError(f"base point must be {START!r} or {END!r}")

    def validate_for(self, seq: MonodromySequence) -> None:
        if self.indices[-1] > seq.length:
            raise ValueError(
                f"index {self.indices[-1]} out of range for {seq.length} branch points"
            )


def restrict(seq: MonodromySequence, spec: RestrictionSpec) -> MonodromySequence:
    """The monodromy sequence of the covering restricted to the cut disk."""
    spec.validate_for(seq)
    tables = _tables(seq.degree)
    packed = seq._packed
    # Walk away from the base point.  image[s] is sheet s under the removed
    # entries passed so far, the nearest applied first: passing one more, r,
    # composes it in front, which swaps the images of r's two sheets.
    image = list(range(seq.degree + 1))
    positions = range(seq.length) if spec.base == START else range(seq.length - 1, -1, -1)
    kept: list[int] = []
    for j in positions:
        a, b = tables.pairs[packed[j]]
        if j + 1 in spec.indices:
            image[a], image[b] = image[b], image[a]
        else:
            kept.append(tables.index(image[a], image[b]))
    if spec.base == END:
        kept.reverse()
    return _unpack(seq.degree, tuple(kept))


def restricted_total_monodromy(seq: MonodromySequence, spec: RestrictionSpec) -> Permutation:
    """Boundary monodromy of the cut disk, computed without restricting.

    Start base point: the total monodromy followed by the removed entries in
    descending index order.  End base point: the removed entries in descending
    order followed by the total monodromy.
    """
    spec.validate_for(seq)
    packed = seq._packed
    removed = tuple([packed[i - 1] for i in reversed(spec.indices)])
    return _product(seq.degree, packed + removed if spec.base == START else removed + packed)


def restriction_signature(seq: MonodromySequence, spec: RestrictionSpec) -> ComponentSignature:
    """Component signature of the restricted covering."""
    return components(restrict(seq, spec))
