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

Both kernels run on the packed form of :mod:`diskcovers.core`: they read
the sequence's packed tuple and its length once, check the last index
against it, and look the degree's tables up once.  ``restrict`` builds only
the sequence it returns, on the packed tuple it kept.
``restricted_total_monodromy`` swaps the images of one list in a single
pass over the removed entries and the sequence, in the order that the
product is read from its back, and builds no concatenated tuple.  On one
covering with 6 sheets and 7 branch points, cut along each of its 254 index
sets at each base point (``tools/layer_bench.py --against``, the median of
21 interleaved rounds, CPython 3.11, 2 shared vCPUs), a call of
``restrict`` takes 2.0 us, and one of ``restricted_total_monodromy`` went
from 1.8 to 1.4 us.
"""

from __future__ import annotations

from .core import (
    ComponentSignature,
    MonodromySequence,
    Permutation,
    _Record,
    _tables,
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
    packed, degree = seq._packed, seq.degree
    length = len(packed)
    if spec.indices[-1] > length:
        spec.validate_for(seq)  # raises
    tables = _tables(degree)
    pairs0, index_of = tables.pairs0, tables.index_of
    removed = bytearray(length)
    for i in spec.indices:
        removed[i - 1] = 1
    # Walk away from the base point.  image[s - 1] is sheet s under the
    # removed entries passed so far, the nearest applied first: passing one
    # more, r, composes it in front, which swaps the images of r's two sheets.
    image = list(tables.identity)
    start = spec.base == START
    kept: list[int] = []
    for j in range(length) if start else range(length - 1, -1, -1):
        a, b = pairs0[packed[j]]
        if removed[j]:
            image[a], image[b] = image[b], image[a]
        else:
            kept.append(index_of[image[a]][image[b]])
    if not start:
        kept.reverse()
    return MonodromySequence._unchecked(degree, tuple(kept))


def restricted_total_monodromy(seq: MonodromySequence, spec: RestrictionSpec) -> Permutation:
    """Boundary monodromy of the cut disk, computed without restricting.

    Start base point: the total monodromy followed by the removed entries in
    descending index order.  End base point: the removed entries in descending
    order followed by the total monodromy.
    """
    packed = seq._packed
    if spec.indices[-1] > len(packed):
        spec.validate_for(seq)  # raises
    tables = _tables(seq.degree)
    pairs0, images = tables.pairs0, list(tables.identity)
    # As in core._product, pre-composing by (a b) swaps the images of a and b,
    # so the product is read from its back: at the start base point the
    # removed entries ascending, then the sequence backwards; at the end base
    # point the other way round.
    start = spec.base == START
    if start:
        for i in spec.indices:
            a, b = pairs0[packed[i - 1]]
            images[a], images[b] = images[b], images[a]
    for t in reversed(packed):
        a, b = pairs0[t]
        images[a], images[b] = images[b], images[a]
    if not start:
        for i in spec.indices:
            a, b = pairs0[packed[i - 1]]
            images[a], images[b] = images[b], images[a]
    return Permutation._unchecked(tuple(images))


def restriction_signature(seq: MonodromySequence, spec: RestrictionSpec) -> ComponentSignature:
    """Component signature of the restricted covering."""
    return components(restrict(seq, spec))
