"""The value types' record methods: construction, ``repr``, equality, hashing,
order and immutability, the same for every public value type.

The ``repr`` strings are golden, the strings the ``dataclass`` methods wrote
before the value types shared one record base; callers such as the
benchmark's oracles format them, so they must not move.
"""

import pytest

from diskcovers import (
    BraidWord,
    CanonicalizationResult,
    ComponentInvariants,
    ComponentSignature,
    CurveRef,
    CycleType,
    IntervalGenerationReport,
    IntervalRef,
    MonodromySequence,
    OrbitClass,
    Permutation,
    Presentation,
    RestrictionSpec,
    SurfaceInvariants,
    TheoremCReport,
    Transposition,
)
from diskcovers.core import _trusted

WORD = BraidWord(3, (1, -2))
SEQ = MonodromySequence.from_pairs(3, [(1, 2), (2, 3)])
SEQ_REPR = "MonodromySequence(degree=3, entries=(Transposition(a=1, b=2), Transposition(a=2, b=3)))"
PARTS = ComponentInvariants((1, 2), 1, 1, 0)
PARTS_REPR = "ComponentInvariants(sheets=(1, 2), euler=1, boundary=1, genus=0)"
WORD_REPR = "BraidWord(strands=3, letters=(1, -2))"

#: (type, field values, repr); the values build the instance positionally.
RECORDS = [
    (Permutation, ((2, 3, 1),), "Permutation(images=(2, 3, 1))"),
    (Transposition, (1, 2), "Transposition(a=1, b=2)"),
    (CycleType, ((3,), 4), "CycleType(parts=(3,), degree=4)"),
    (MonodromySequence, (3, SEQ.entries), SEQ_REPR),
    (ComponentSignature, ((((1, 2), 1), ((3,), 0)),), "ComponentSignature(blocks=(((1, 2), 1), ((3,), 0)))"),
    (ComponentInvariants, ((1, 2), 1, 1, 0), PARTS_REPR),
    (SurfaceInvariants, (1, 2, (PARTS,)), f"SurfaceInvariants(euler=1, boundary=2, per_component=({PARTS_REPR},))"),
    (RestrictionSpec, ((1, 3), "end"), "RestrictionSpec(indices=(1, 3), base='end')"),
    (BraidWord, (3, (1, -2)), WORD_REPR),
    (
        CanonicalizationResult,
        (Permutation((1, 2, 3)), ((1, "forward"),), SEQ),
        f"CanonicalizationResult(relabel=Permutation(images=(1, 2, 3)), moves=((1, 'forward'),), canonical={SEQ_REPR})",
    ),
    (CurveRef, (1, WORD), f"CurveRef(base=1, word={WORD_REPR})"),
    (IntervalRef, (1, WORD), f"IntervalRef(base=1, word={WORD_REPR})"),
    (
        OrbitClass,
        (SEQ, 9, CycleType((3,), 3), True),
        f"OrbitClass(representative={SEQ_REPR}, count=9, omega=CycleType(parts=(3,), degree=3), connected=True)",
    ),
    (Presentation, (3, ((1, 2, 1, -2, -1, -2),)), "Presentation(strands=3, relators=((1, 2, 1, -2, -1, -2),))"),
    (
        IntervalGenerationReport,
        (4, 4, 3, True),
        "IntervalGenerationReport(orbit_index=4, tc_index=4, generator_count=3, generates=True)",
    ),
    (
        TheoremCReport,
        (3, 3, True, 4, 4, True),
        "TheoremCReport(branch_points=3, generator_count=3, all_liftable=True, orbit_index=4, tc_index=4, passed=True)",
    ),
]
#: Each ordered type, with a pair of instances in ascending order.
ORDERED = {
    Permutation: (Permutation((1, 2, 3)), Permutation((2, 3, 1))),
    Transposition: (Transposition(1, 3), Transposition(2, 3)),
    MonodromySequence: (MonodromySequence.from_pairs(3, [(1, 2), (1, 3)]), SEQ),
}


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_methods(cls, values, text):
    fields = cls.__match_args__
    assert len(fields) == len(values) and not any(name.startswith("_") for name in fields)
    record = cls(*values)
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in fields) == values
    assert hash(record) == hash(values)
    assert record == cls(**dict(zip(fields, values)))
    assert record != values and not record != cls(*values)
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(AttributeError):
        setattr(record, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    if cls in ORDERED:
        low, high = ORDERED[cls]
        assert low < high and low <= high and high > low and high >= low and low <= low
        assert not (high < low or low >= high)
        assert sorted([high, low]) == [low, high]
    else:
        with pytest.raises(TypeError):
            record < record  # noqa: B015


def test_types_with_the_same_fields_are_never_equal():
    assert CurveRef(1, WORD) != IntervalRef(1, WORD)
    assert IntervalRef(1, WORD) != CurveRef(1, WORD)
    with pytest.raises(TypeError):
        Transposition(1, 2) < Permutation((2, 1))  # noqa: B015


def test_packed_form_is_neither_shown_nor_compared():
    other = _trusted(MonodromySequence, degree=3, entries=SEQ.entries, _packed=(2, 2))
    assert other == SEQ and hash(other) == hash(SEQ) and not other < SEQ and not SEQ < other
    assert repr(other) == SEQ_REPR
    assert MonodromySequence.__match_args__ == ("degree", "entries")
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, (0, 2))
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, _packed=(0, 2))
