"""The value types' record methods: construction, ``repr``, equality, hashing,
order, immutability, copying and pickling, the same for every public value
type, their slotted layout, and their writing on first use.

The ``repr`` strings are golden, the strings the ``dataclass`` methods wrote
before the value types shared one record base; callers such as the
benchmark's oracles format them, so they must not move.  The table of
instances is in ``record_values``.
"""

import copy
import importlib
import json
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from record_values import FIRST_USES, ORDERED, RECORDS, SEQ, SEQ_REPR, WORD, first_use

import diskcovers
from diskcovers import (
    BraidWord,
    CanonicalizationResult,
    CurveRef,
    CycleType,
    IntervalRef,
    MonodromySequence,
    Permutation,
    RestrictionSpec,
    Transposition,
)
from diskcovers import core
from diskcovers.core import _Record, _tables, _Written
from diskcovers.orbit import all_sequences

#: Each type whose public constructor checks its fields, with values that it
#: rejects.
REJECTED = {
    Permutation: ((1, 1),),
    Transposition: (2, 2),
    CycleType: ((1,), 1),
    MonodromySequence: (0, ()),
    RestrictionSpec: ((), "middle"),
    BraidWord: (2, (0, 5)),
    CanonicalizationResult: (Permutation((1, 2, 3)), ((0, "forward"),), SEQ),
    CurveRef: (4, WORD),
    IntervalRef: (3, WORD),
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
    # Each method is written on its first use: by now every one has run, so
    # that a warning from the written code fails tier-1 under -W error.
    assert cls._unchecked(*(getattr(record, name) for name in cls.__annotations__)) == record
    assert [name for name, method in vars(cls).items() if isinstance(method, _Written)] == []


def test_types_with_the_same_fields_are_never_equal():
    assert CurveRef(1, WORD) != IntervalRef(1, WORD)
    assert IntervalRef(1, WORD) != CurveRef(1, WORD)
    with pytest.raises(TypeError):
        Transposition(1, 2) < Permutation((2, 1))  # noqa: B015


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_unchecked_constructor_equals_the_public_one(cls, values, text):
    public = cls(*values)
    stored = tuple(cls.__annotations__)  # every slot, ``_packed`` and ``_letters`` included
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


def test_packed_form_is_the_only_one_stored():
    # A sequence stores its degree and packed tuple; ``entries`` is read off
    # them, and equality, order and hashing agree with the pairs.
    assert MonodromySequence.__match_args__ == ("degree", "entries")
    assert MonodromySequence.__slots__ == ("degree", "_packed")
    sequences = all_sequences(4, 3)
    interned = _tables(4).interned
    for seq in sequences:
        assert seq.entries == tuple(Transposition(a, b) for a, b in seq.pairs())
        assert all(seq.entries[i] is interned[seq._packed[i]] for i in range(seq.length))
        assert hash(seq) == hash((seq.degree, seq.entries)) == hash((seq.degree, seq.pairs()))
        assert repr(seq) == f"MonodromySequence(degree=4, entries={seq.entries!r})"
        assert MonodromySequence._unchecked(*seq.__reduce__()[1]) == seq
    for seq, other in zip(sequences, random.Random(6).sample(sequences, len(sequences))):
        key, other_key = (seq.degree, seq.pairs()), (other.degree, other.pairs())
        assert (seq == other) == (key == other_key) and (seq < other) == (key < other_key)
    assert repr(SEQ) == SEQ_REPR
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, (0, 2))
    with pytest.raises(TypeError):
        MonodromySequence(3, SEQ.entries, _packed=(0, 2))


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_copies_and_pickles_are_equal_records(cls, values, text):
    record = cls(*values)
    stored = tuple(cls.__annotations__)  # ``_packed`` and ``_letters`` included
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


# --- methods written on first use -------------------------------------------

#: The methods that a stand-in does not hold when the table has been built:
#: a class's own ``__hash__``, and the ``_unchecked`` that ``from_pairs``
#: builds sequences with and the tables of a degree intern transpositions
#: with.
NOT_STAND_INS = {(MonodromySequence, "__hash__"), (MonodromySequence, "_unchecked"), (Transposition, "_unchecked")}

#: Runs ``first_use`` of one operation on every record type in table order,
#: which puts each type after the types of its fields, so that each type's
#: method is written by that operation.  Prints, per type, whether the method
#: was still a stand-in beforehand, and what the operation gave.
FIRST_USE = """
import inspect, json, sys
import diskcovers
from diskcovers.core import _Written
op, method, names = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
if op == "signature":  # before record_values builds any instance
    classes = [getattr(diskcovers, name) for name in names]
    print(json.dumps([[isinstance(vars(cls).get(method), _Written), str(inspect.signature(cls))] for cls in classes]))
    raise SystemExit
import record_values
print(json.dumps([
    [isinstance(vars(cls).get(method), _Written), record_values.first_use(op, cls, values)]
    for cls, values, _ in record_values.RECORDS
]))
"""


@pytest.mark.parametrize("op", FIRST_USES)
def test_each_first_use_of_a_record_method_behaves_as_before(op):
    method = FIRST_USES[op]
    names = [cls.__name__ for cls, _, _ in RECORDS]
    path = os.pathsep.join([str(Path(diskcovers.__file__).parents[1]), str(Path(__file__).parent)])
    child = subprocess.run(
        [sys.executable, "-c", FIRST_USE, op, json.dumps(method), json.dumps(names)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    fresh = json.loads(child.stdout.splitlines()[-1])
    for (cls, values, _), (was_stand_in, gave) in zip(RECORDS, fresh, strict=True):
        # Here every method has long been written: the fresh process must agree.
        assert gave == json.loads(json.dumps(first_use(op, cls, values))), cls
        if method is not None and method in vars(cls):
            assert was_stand_in == ((cls, method) not in NOT_STAND_INS), cls


def test_a_stand_in_kept_from_before_writes_its_method_once(monkeypatch):
    compiled = []

    def counted(source, *scopes):
        compiled.append(source.split("(", 1)[0])
        exec(source, *scopes)

    monkeypatch.setattr(core, "exec", counted, raising=False)

    class Probe(_Record, order=True):
        a: int
        b: int

    kept = {name: vars(Probe)[name] for name in ("__repr__", "__lt__", "__hash__")}
    assert all(isinstance(stand_in, _Written) for stand_in in kept.values())
    low, high = Probe(1, 2), Probe(1, 3)
    # Written through the kept stand-in, then called through the class.
    assert kept["__repr__"](low) == repr(low) == kept["__repr__"](low) == f"{Probe.__qualname__}(a=1, b=2)"
    # Written through the class, then called through the kept stand-in.
    assert low < high and kept["__lt__"](low, high) and not kept["__lt__"](high, low)
    assert compiled == ["def __init__", "def __repr__", "def __lt__"]
    assert vars(Probe)["__repr__"] is kept["__repr__"].method and vars(Probe)["__lt__"] is kept["__lt__"].method
    assert isinstance(vars(Probe)["__hash__"], _Written)  # never used, never written


def test_a_method_the_class_defines_is_kept():
    class Own(_Record):
        a: int

        def __repr__(self) -> str:
            return "own"

        def __eq__(self, other: object) -> bool:  # so Python sets __hash__ to None
            return isinstance(other, Own)

    record = Own(1)
    assert repr(record) == "own" and record == Own(2) and record != (1,)
    assert hash(record) == hash((1,))  # the None counts as not defined: written
    own = vars(MonodromySequence)["__hash__"]
    assert own.__qualname__ == "MonodromySequence.__hash__" and hash(SEQ) == own(SEQ)
