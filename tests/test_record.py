"""The value types' record methods: construction, ``repr``, equality, hashing,
order, immutability, copying and pickling, the same for every public value
type, and their slotted layout.

The ``repr`` strings are golden, the strings the ``dataclass`` methods wrote
before the value types shared one record base; callers such as the
benchmark's oracles format them, so they must not move.
"""

import copy
import importlib
import pickle

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
from diskcovers.core import _Record

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
#: Each type whose public constructor checks its fields, with values that it
#: rejects.
REJECTED = {
    Permutation: ((1, 1),),
    Transposition: (2, 2),
    CycleType: ((1,), 1),
    MonodromySequence: (0, (), ()),
    RestrictionSpec: ((), "middle"),
    BraidWord: (2, (0, 5)),
    CurveRef: (4, WORD),
    IntervalRef: (3, WORD),
}
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


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_unchecked_constructor_equals_the_public_one(cls, values, text):
    public = cls(*values)
    stored = tuple(cls.__annotations__)  # every field, ``_packed`` included
    unchecked = cls._unchecked(*(getattr(public, name) for name in stored))
    assert type(unchecked) is cls
    assert unchecked == public and hash(unchecked) == hash(public) and repr(unchecked) == text
    assert all(getattr(unchecked, name) is getattr(public, name) for name in stored)
    with pytest.raises(AttributeError):
        setattr(unchecked, stored[0], values[0])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_each_slot_is_set_from_its_own_argument_and_then_frozen(cls, values, text):
    # The constructors store each field through the class's own slot
    # descriptor: a distinct object per slot must land in that slot, and stay.
    stored = tuple(cls.__annotations__)
    tokens = [object() for _ in stored]
    built = [cls._unchecked(*tokens)]
    if not hasattr(cls, "__post_init__"):  # the public constructor takes any value
        built.append(cls(*tokens))
    for record in built + [cls(*values), cls._unchecked(*(getattr(cls(*values), name) for name in stored))]:
        before = [getattr(record, name) for name in stored]
        for name in stored:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert all(getattr(record, name) is value for name, value in zip(stored, before))
    for record in built:
        assert all(getattr(record, name) is token for name, token in zip(stored, tokens))


@pytest.mark.parametrize("cls", REJECTED, ids=[cls.__name__ for cls in REJECTED])
def test_unchecked_constructor_skips_the_checks(cls):
    values = REJECTED[cls]
    with pytest.raises(ValueError):
        cls(*values[: len(cls.__match_args__)])
    unchecked = cls._unchecked(*values)
    assert tuple(getattr(unchecked, name) for name in cls.__annotations__) == values


def test_packed_form_is_neither_shown_nor_compared():
    other = MonodromySequence._unchecked(3, SEQ.entries, (2, 2))
    assert other._packed == (2, 2)
    assert other == SEQ and hash(other) == hash(SEQ) and not other < SEQ and not SEQ < other
    assert repr(other) == SEQ_REPR
    assert MonodromySequence.__match_args__ == ("degree", "entries")
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, (0, 2))
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, _packed=(0, 2))


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_copies_and_pickles_are_equal_records(cls, values, text):
    record = cls(*values)
    stored = tuple(cls.__annotations__)  # ``_packed`` included
    for duplicate in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(duplicate) is cls and duplicate == record and repr(duplicate) == text
        assert tuple(getattr(duplicate, name) for name in stored) == tuple(getattr(record, name) for name in stored)


def test_every_record_type_is_slotted():
    names = ("core", "hurwitz", "orbit", "lift", "cosets", "restrict")
    modules = [importlib.import_module(f"diskcovers.{name}") for name in names]
    types = {v for m in modules for v in vars(m).values() if isinstance(v, type) and issubclass(v, _Record)}
    assert types - {_Record} == {cls for cls, _, _ in RECORDS}
    for cls, values, _ in RECORDS:
        assert cls.__slots__ == tuple(cls.__annotations__), cls
        assert not hasattr(cls(*values), "__dict__"), cls
